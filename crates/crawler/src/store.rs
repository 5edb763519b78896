//! The columnar store underneath [`MeasurementDb`].
//!
//! Crawl records intern their crawled domains into an arena-backed
//! [`StrTable`] at record time, so a visit row carries a fixed-width
//! [`Sym`] instead of an owned `String` and the analysis layer resolves
//! names through the table.
//!
//! [`MeasurementDb`]: crate::db::MeasurementDb

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// An interned string id: an index into the owning [`StrTable`].
///
/// Two `Sym`s from the *same* table are equal iff the strings are equal;
/// comparing syms across tables is meaningless, which is why the record
/// API always pairs a sym with its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The table index this sym resolves through.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena-backed interned string table.
///
/// All string bytes live in one contiguous arena; a sym is an index into
/// the span column. Interning dedups through hash buckets with exact
/// comparison inside the bucket, so equal strings always share one sym and
/// a 64-bit collision can never alias two different strings.
#[derive(Debug, Clone, Default)]
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
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn hash_of(s: &str) -> u64 {
        let mut hasher = DefaultHasher::new();
        s.hash(&mut hasher);
        hasher.finish()
    }

    /// Interns `s`, returning the existing sym when the string was seen
    /// before.
    pub(crate) fn intern(&mut self, s: &str) -> Sym {
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

    /// The string behind `sym`. Panics on a sym from another table whose
    /// index is out of range.
    pub(crate) fn resolve(&self, sym: Sym) -> &str {
        let (start, len) = self.spans[sym.index()];
        &self.arena[start as usize..(start + len) as usize]
    }
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
    }
}
