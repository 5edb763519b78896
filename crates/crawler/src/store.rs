//! The columnar shard store underneath [`MeasurementDb`].
//!
//! Crawl records intern their crawled domains into an arena-backed
//! [`StrTable`] at record time, so a visit row carries a fixed-width
//! [`Sym`] instead of an owned `String` and the analysis layer resolves
//! names through the table.
//! A [`CrawlSlice`] is a zero-copy view over a contiguous visit range of
//! one crawl (sharing the crawl's table), which is the unit the map/reduce
//! stage pipeline streams: `CrawlRecord::shards(n)` splits a crawl into `n`
//! near-equal contiguous slices whose concatenation, in order, is exactly
//! the monolithic crawl.
//!
//! [`MeasurementDb`]: crate::db::MeasurementDb

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

use redlight_net::geoip::Country;
use serde::{Deserialize, Serialize};

use crate::db::{CorpusLabel, SiteVisitRecord};

/// An interned string id: an index into the owning [`StrTable`].
///
/// Two `Sym`s from the *same* table are equal iff the strings are equal;
/// comparing syms across tables is meaningless, which is why the slice and
/// record APIs always pair a sym with its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Sym(u32);

impl Sym {
    /// The table index this sym resolves through.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena-backed interned string table.
///
/// All string bytes live in one contiguous arena; a sym is an index into
/// the span column. Interning dedups through hash buckets with exact
/// comparison inside the bucket, so equal strings always share one sym and
/// a 64-bit collision can never alias two different strings.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StrTable {
    /// Concatenated string bytes.
    arena: String,
    /// `(start, len)` of each interned string, indexed by sym.
    spans: Vec<(u32, u32)>,
    /// hash → syms whose strings share that hash.
    buckets: HashMap<u64, Vec<Sym>>,
}

impl StrTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn hash_of(s: &str) -> u64 {
        let mut hasher = DefaultHasher::new();
        s.hash(&mut hasher);
        hasher.finish()
    }

    /// Interns `s`, returning the existing sym when the string was seen
    /// before.
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = Self::hash_of(s);
        if let Some(bucket) = self.buckets.get(&hash) {
            for &sym in bucket {
                if self.resolve(sym) == s {
                    return sym;
                }
            }
        }
        let sym = Sym(u32::try_from(self.spans.len()).expect("string table overflow"));
        let start = u32::try_from(self.arena.len()).expect("arena overflow");
        let len = u32::try_from(s.len()).expect("oversized string");
        self.arena.push_str(s);
        self.spans.push((start, len));
        self.buckets.entry(hash).or_default().push(sym);
        sym
    }

    /// The sym of `s`, when it has been interned — a read-only probe that
    /// never grows the table.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.buckets
            .get(&Self::hash_of(s))?
            .iter()
            .copied()
            .find(|&sym| self.resolve(sym) == s)
    }

    /// The string behind `sym`. Panics on a sym from another table whose
    /// index is out of range.
    pub fn resolve(&self, sym: Sym) -> &str {
        let (start, len) = self.spans[sym.index()];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Bytes held by the string arena (excluding the span/bucket columns).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// All interned strings in sym order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.spans.len()).map(|i| self.resolve(Sym(i as u32)))
    }
}

/// A zero-copy view over one contiguous visit range of a crawl, sharing the
/// crawl's string table — the unit of work the sharded stage pipeline
/// streams.
#[derive(Debug, Clone, Copy)]
pub struct CrawlSlice<'a> {
    /// Country of the underlying crawl.
    pub country: Country,
    /// Corpus of the underlying crawl.
    pub corpus: CorpusLabel,
    /// Vantage-point public IP of the underlying crawl.
    pub client_ip: Ipv4Addr,
    /// The visit rows this slice covers.
    pub visits: &'a [SiteVisitRecord],
    /// Absolute index of `visits[0]` within the full crawl — session-order
    /// analyses (cookie syncing) need every visit's global position.
    pub offset: usize,
    names: &'a StrTable,
}

impl<'a> CrawlSlice<'a> {
    pub(crate) fn new(
        country: Country,
        corpus: CorpusLabel,
        client_ip: Ipv4Addr,
        visits: &'a [SiteVisitRecord],
        offset: usize,
        names: &'a StrTable,
    ) -> Self {
        CrawlSlice {
            country,
            corpus,
            client_ip,
            visits,
            offset,
            names,
        }
    }

    /// Resolves an interned name through the crawl's table.
    pub fn name(&self, sym: Sym) -> &'a str {
        self.names.resolve(sym)
    }

    /// The crawl's string table.
    pub fn names(&self) -> &'a StrTable {
        self.names
    }

    /// Visits whose document loaded successfully.
    pub fn successful(&self) -> impl Iterator<Item = &'a SiteVisitRecord> + 'a {
        self.visits.iter().filter(|v| v.visit.success)
    }

    /// Number of successful visits in this slice.
    pub fn success_count(&self) -> usize {
        self.successful().count()
    }

    /// Number of visit rows in this slice.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// Whether the slice covers no visits.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }
}

/// Splits `len` rows into at most `shards` contiguous near-equal ranges
/// (first `len % shards` ranges are one row longer). Degenerate inputs
/// clamp: zero shards become one, and empty trailing shards are dropped, so
/// every returned range is non-empty unless `len == 0`.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1).min(len.max(1));
    let base = len / shards;
    let rem = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < rem);
        out.push((start, start + size));
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_resolves() {
        let mut t = StrTable::new();
        let a = t.intern("exoclick.com");
        let b = t.intern("pornsite.com");
        let a2 = t.intern("exoclick.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "exoclick.com");
        assert_eq!(t.resolve(b), "pornsite.com");
        assert_eq!(t.len(), 2);
        assert_eq!(t.arena_bytes(), "exoclick.com".len() + "pornsite.com".len());
    }

    #[test]
    fn lookup_probes_without_growing() {
        let mut t = StrTable::new();
        let a = t.intern("exoclick.com");
        assert_eq!(t.lookup("exoclick.com"), Some(a));
        assert_eq!(t.lookup("never-interned.com"), None);
        assert_eq!(t.len(), 1, "lookup must not intern");
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for len in [0usize, 1, 5, 12, 100] {
            for shards in [0usize, 1, 3, 7, 200] {
                let ranges = shard_ranges(len, shards);
                assert!(!ranges.is_empty());
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                    assert!(w[0].1 > w[0].0 || len == 0, "non-empty");
                }
                if len > 0 {
                    let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "near-equal split: {sizes:?}");
                }
            }
        }
    }
}
