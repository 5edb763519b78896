//! Indexed filter matching over whole lists.
//!
//! [`FilterSet`] holds parsed rules from one or more lists (EasyList +
//! EasyPrivacy in the study) behind a two-tier index and answers:
//!
//! * [`FilterSet::matches`] — full-URL matching with exception handling, the
//!   §4.2(2) classification;
//! * [`FilterSet::matches_fqdn_relaxed`] — the paper's relaxed variant that
//!   only considers the base FQDN, used to count ATS organizations.
//!
//! # Index structure
//!
//! * **Tier 1 — domain buckets.** Domain-anchored rules (`||anchor^…`) can
//!   only match requests whose host sits under the anchor, so they are
//!   bucketed by the anchor's registrable domain and looked up by the
//!   request host's registrable domain.
//! * **Tier 2 — token buckets.** Generic rules are bucketed by a hash of a
//!   *safe* fixed substring of their pattern (see [`crate::tokens`]); a
//!   lookup tokenizes the URL once and only evaluates rules sharing a
//!   token. Rules without a safe token live in a small always-scanned list.
//!
//! Exception rules get the same treatment (domain buckets + token buckets),
//! with one guard: an anchored exception whose anchor *is itself* a public
//! suffix (`@@||co.uk^…`) covers hosts across many registrable domains, so
//! it stays in the always-scanned list.
//!
//! Candidates gathered from several buckets are evaluated in insertion
//! order, so the first matching rule — and therefore every returned
//! [`MatchResult`] — is byte-identical to the retained linear reference
//! matcher ([`crate::linear::LinearFilterSet`]), which the equivalence
//! property test enforces.

use std::borrow::Cow;
use std::collections::HashMap;

use redlight_net::psl;

use crate::filter::{Filter, RequestContext};
use crate::tokens;

/// Outcome of matching a URL against a filter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchResult {
    /// A blocking rule matched (rule text attached).
    Blocked(String),
    /// An exception rule overrode a blocking match.
    Excepted(String),
    /// Nothing matched.
    Clean,
}

impl MatchResult {
    /// `true` only for [`MatchResult::Blocked`].
    pub fn is_blocked(&self) -> bool {
        matches!(self, MatchResult::Blocked(_))
    }
}

/// A parsed, indexed collection of filter rules.
#[derive(Debug, Clone, Default)]
pub struct FilterSet {
    /// Domain-anchored blocking rules, bucketed by the anchor's registrable
    /// domain (tier 1).
    by_domain: HashMap<String, Vec<Filter>>,
    /// Blocking rules without a domain anchor, in insertion order.
    generic: Vec<Filter>,
    /// Token hash → indices into `generic` (tier 2).
    generic_tokens: HashMap<u64, Vec<u32>>,
    /// Indices of generic rules without a safe token: always evaluated.
    generic_scan: Vec<u32>,
    /// Exception rules (`@@`), all of them, in insertion order.
    exceptions: Vec<Filter>,
    /// Anchored exceptions, bucketed by the anchor's registrable domain.
    exc_by_domain: HashMap<String, Vec<u32>>,
    /// Token hash → indices into `exceptions`.
    exc_tokens: HashMap<u64, Vec<u32>>,
    /// Exception indices that must always be evaluated (no safe token, or
    /// anchored on a public suffix).
    exc_scan: Vec<u32>,
    /// Number of rule lines parsed.
    rule_count: usize,
}

impl FilterSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a list text and merges its rules (comments, metadata and
    /// element-hiding rules are skipped). Returns how many rules were added.
    pub fn add_list(&mut self, text: &str) -> usize {
        let mut added = 0;
        for line in text.lines() {
            if let Ok(f) = Filter::parse(line) {
                self.add_filter(f);
                added += 1;
            }
        }
        added
    }

    /// Adds one parsed filter to the appropriate index tier.
    pub fn add_filter(&mut self, filter: Filter) {
        self.rule_count += 1;
        if filter.exception {
            let idx = self.exceptions.len() as u32;
            match filter.anchor_domain.as_deref() {
                Some(anchor) if bucketable_anchor(anchor) => {
                    let key = psl::registrable_domain(anchor).to_string();
                    self.exc_by_domain.entry(key).or_default().push(idx);
                }
                Some(_) => self.exc_scan.push(idx),
                None => {
                    match tokens::pattern_token(
                        &filter.pattern,
                        filter.start_anchor,
                        filter.end_anchor,
                    ) {
                        Some(t) => self.exc_tokens.entry(t).or_default().push(idx),
                        None => self.exc_scan.push(idx),
                    }
                }
            }
            self.exceptions.push(filter);
            return;
        }
        match &filter.anchor_domain {
            Some(anchor) => {
                let key = psl::registrable_domain(anchor).to_string();
                self.by_domain.entry(key).or_default().push(filter);
            }
            None => {
                let idx = self.generic.len() as u32;
                match tokens::pattern_token(&filter.pattern, filter.start_anchor, filter.end_anchor)
                {
                    Some(t) => self.generic_tokens.entry(t).or_default().push(idx),
                    None => self.generic_scan.push(idx),
                }
                self.generic.push(filter);
            }
        }
    }

    /// Total number of rules (blocking + exceptions).
    pub fn len(&self) -> usize {
        self.rule_count
    }

    /// `true` when no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rule_count == 0
    }

    /// Matches a full URL in context, applying exception rules.
    pub fn matches(&self, url: &str, ctx: &RequestContext<'_>) -> MatchResult {
        // The URL is tokenized at most once, memoized across the blocking
        // and exception passes.
        let mut url_tokens: Option<Vec<u64>> = None;
        match self.first_blocking_match(url, ctx, &mut url_tokens) {
            None => MatchResult::Clean,
            Some(rule) => match self.first_exception_match(url, ctx, &mut url_tokens) {
                Some(exc) => MatchResult::Excepted(exc.raw.clone()),
                None => MatchResult::Blocked(rule.raw.clone()),
            },
        }
    }

    fn first_blocking_match<'s>(
        &'s self,
        url: &str,
        ctx: &RequestContext<'_>,
        url_tokens: &mut Option<Vec<u64>>,
    ) -> Option<&'s Filter> {
        let key = psl::registrable_domain(ctx.request_host);
        if let Some(rules) = self.by_domain.get(key) {
            if let Some(f) = rules.iter().find(|f| f.matches(url, ctx)) {
                return Some(f);
            }
        }
        if self.generic.is_empty() {
            return None;
        }
        let candidates = gather(
            url,
            url_tokens,
            &self.generic_scan,
            &self.generic_tokens,
            None,
        );
        candidates
            .into_iter()
            .map(|i| &self.generic[i as usize])
            .find(|f| f.matches(url, ctx))
    }

    fn first_exception_match<'s>(
        &'s self,
        url: &str,
        ctx: &RequestContext<'_>,
        url_tokens: &mut Option<Vec<u64>>,
    ) -> Option<&'s Filter> {
        if self.exceptions.is_empty() {
            return None;
        }
        let domain_bucket = self
            .exc_by_domain
            .get(psl::registrable_domain(ctx.request_host))
            .map(Vec::as_slice);
        let candidates = gather(
            url,
            url_tokens,
            &self.exc_scan,
            &self.exc_tokens,
            domain_bucket,
        );
        candidates
            .into_iter()
            .map(|i| &self.exceptions[i as usize])
            .find(|f| f.matches(url, ctx))
    }

    /// The paper's relaxed matching: is this FQDN covered by a rule's domain
    /// anchor? Domain-wide rules (`||anchor^` with no path) cover the anchor
    /// and its subdomains; path rules only flag the anchored host itself —
    /// a path rule on `cloudfront.net` marks `cloudfront.net` as ATS but
    /// does not taint every customer's `dxxxx.cloudfront.net` bucket.
    pub fn matches_fqdn_relaxed(&self, fqdn: &str) -> bool {
        // Only lowercase when the caller's FQDN actually needs it.
        let lowered: Cow<'_, str> = if fqdn.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(fqdn.to_ascii_lowercase())
        } else {
            Cow::Borrowed(fqdn)
        };
        let fqdn = lowered.as_ref();
        let key = psl::registrable_domain(fqdn);
        self.by_domain.get(key).is_some_and(|rules| {
            rules.iter().any(|f| {
                f.anchor_domain.as_deref().is_some_and(|anchor| {
                    let domain_wide = f.pattern.is_empty() || f.pattern == "^";
                    if domain_wide {
                        fqdn == anchor
                            || ends_with_dot_prefixed(fqdn, anchor)
                            || ends_with_dot_prefixed(anchor, fqdn)
                    } else {
                        fqdn == anchor
                    }
                })
            })
        })
    }

    /// All anchor domains in the set (used to compute list coverage).
    pub fn anchor_domains(&self) -> impl Iterator<Item = &str> {
        self.by_domain
            .values()
            .flatten()
            .filter_map(|f| f.anchor_domain.as_deref())
    }
}

/// `haystack` ends with `".{needle}"` — the old `ends_with(&format!(…))`
/// check without the per-call allocation.
fn ends_with_dot_prefixed(haystack: &str, needle: &str) -> bool {
    haystack
        .strip_suffix(needle)
        .is_some_and(|prefix| prefix.ends_with('.'))
}

/// An anchored exception may be bucketed by its anchor's registrable domain
/// only when every matching host shares that registrable domain: true for
/// clean, non-public-suffix anchors (`reg(sub.anchor) == reg(anchor)`),
/// false for public suffixes (`@@||co.uk^` must cover `x.co.uk`, whose
/// registrable domain is `x.co.uk` itself) and malformed anchors.
fn bucketable_anchor(anchor: &str) -> bool {
    !psl::is_public_suffix(anchor)
        && !anchor.starts_with('.')
        && !anchor.ends_with('.')
        && !anchor.contains("..")
}

/// Collects candidate rule indices: the always-scan list, the optional
/// domain bucket, and every token bucket the URL's tokens hit. Sorting and deduplicating restores insertion order, which
/// keeps first-match-wins semantics identical to a linear scan.
fn gather(
    url: &str,
    url_tokens: &mut Option<Vec<u64>>,
    scan: &[u32],
    token_buckets: &HashMap<u64, Vec<u32>>,
    domain_bucket: Option<&[u32]>,
) -> Vec<u32> {
    let mut candidates: Vec<u32> = scan.to_vec();
    if let Some(bucket) = domain_bucket {
        candidates.extend_from_slice(bucket);
    }
    if !token_buckets.is_empty() {
        let toks = url_tokens.get_or_insert_with(|| {
            let mut t = Vec::with_capacity(16);
            tokens::url_token_hashes(url, &mut t);
            t
        });
        for t in toks.iter() {
            if let Some(bucket) = token_buckets.get(t) {
                candidates.extend_from_slice(bucket);
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearFilterSet;
    use redlight_net::http::ResourceKind;

    const LIST: &str = r#"
! EasyList-style test list
[Adblock Plus 2.0]
||exoclick.com^
||exosrv.com^$third-party
||doublepimp.com^
||bbc.co.uk/analytics
/adserver/*$script
@@||exoclick.com/allowed.js$script
example.com##.banner
"#;

    fn set() -> FilterSet {
        let mut s = FilterSet::new();
        let added = s.add_list(LIST);
        assert_eq!(added, 6, "6 URL rules (cosmetic + comments skipped)");
        s
    }

    fn ctx<'a>(page: &'a str, req: &'a str) -> RequestContext<'a> {
        RequestContext::new(page, req, ResourceKind::Script)
    }

    #[test]
    fn blocks_anchored_domains() {
        let s = set();
        assert!(s
            .matches(
                "https://main.exoclick.com/tag.js",
                &ctx("porn.site", "main.exoclick.com")
            )
            .is_blocked());
        assert_eq!(
            s.matches(
                "https://clean.cdn.com/lib.js",
                &ctx("porn.site", "clean.cdn.com")
            ),
            MatchResult::Clean
        );
    }

    #[test]
    fn exception_overrides_block() {
        let s = set();
        let r = s.matches(
            "https://exoclick.com/allowed.js",
            &ctx("porn.site", "exoclick.com"),
        );
        assert!(matches!(r, MatchResult::Excepted(_)));
    }

    #[test]
    fn third_party_rule_spares_first_party() {
        let s = set();
        assert!(s
            .matches(
                "https://sync.exosrv.com/pixel",
                &ctx("porn.site", "sync.exosrv.com")
            )
            .is_blocked());
        assert_eq!(
            s.matches(
                "https://sync.exosrv.com/pixel",
                &ctx("www.exosrv.com", "sync.exosrv.com")
            ),
            MatchResult::Clean
        );
    }

    #[test]
    fn path_only_rule_needs_the_path() {
        let s = set();
        assert!(s
            .matches("https://bbc.co.uk/analytics/b", &ctx("a.com", "bbc.co.uk"))
            .is_blocked());
        assert_eq!(
            s.matches("https://bbc.co.uk/news", &ctx("a.com", "bbc.co.uk")),
            MatchResult::Clean
        );
    }

    #[test]
    fn generic_substring_rule() {
        let s = set();
        assert!(s
            .matches("https://x.net/adserver/300.js", &ctx("a.com", "x.net"))
            .is_blocked());
        // $script option: images do not match.
        assert_eq!(
            s.matches(
                "https://x.net/adserver/300.gif",
                &RequestContext::new("a.com", "x.net", ResourceKind::Image)
            ),
            MatchResult::Clean
        );
    }

    #[test]
    fn relaxed_fqdn_matching() {
        let s = set();
        assert!(s.matches_fqdn_relaxed("exoclick.com"));
        assert!(s.matches_fqdn_relaxed("sync.exoclick.com"));
        assert!(s.matches_fqdn_relaxed("EXOSRV.com"));
        // bbc rule is a path rule anchoring bbc.co.uk: the host itself is
        // flagged, but sibling subdomains are not.
        assert!(s.matches_fqdn_relaxed("bbc.co.uk"));
        assert!(!s.matches_fqdn_relaxed("video.bbc.co.uk"));
        assert!(!s.matches_fqdn_relaxed("cleancdn.net"));
    }

    #[test]
    fn empty_set_is_clean() {
        let s = FilterSet::new();
        assert!(s.is_empty());
        assert_eq!(
            s.matches("https://anything.com/x", &ctx("a.com", "anything.com")),
            MatchResult::Clean
        );
        assert!(!s.matches_fqdn_relaxed("anything.com"));
    }

    #[test]
    fn untokenizable_rules_are_still_matched() {
        // `*track*` has no safe token (both runs touch `*`): it must land
        // in the always-scan list and keep matching.
        let mut s = FilterSet::new();
        s.add_list("*track*\n");
        assert!(s
            .matches("https://x.com/subtracker/a", &ctx("a.com", "x.com"))
            .is_blocked());
    }

    #[test]
    fn public_suffix_anchored_exception_is_always_scanned() {
        // `@@||co.uk^` covers x.co.uk, whose registrable domain ("x.co.uk")
        // differs from the anchor's ("co.uk") — a domain bucket would miss
        // it, so the rule must be in the always-scan list.
        let mut s = FilterSet::new();
        s.add_list("/pixel/\n@@||co.uk^\n");
        assert_eq!(
            s.matches("https://shop.co.uk/pixel/1", &ctx("a.com", "shop.co.uk")),
            MatchResult::Excepted("@@||co.uk^".to_string())
        );
    }

    #[test]
    fn first_match_wins_across_buckets() {
        // Two generic rules match; the earlier one must be reported even
        // though they live in different token buckets.
        let mut s = FilterSet::new();
        s.add_list("/zzztoken/\n/adserver/\n");
        let r = s.matches("https://x.net/adserver/zzztoken/1", &ctx("a.com", "x.net"));
        assert_eq!(r, MatchResult::Blocked("/zzztoken/".to_string()));
    }

    /// End-to-end coverage for `$domain=a.com|~b.com` page restrictions
    /// through the full `FilterSet` pipeline (option parsing is covered in
    /// `filter::tests`).
    #[test]
    fn domain_option_end_to_end() {
        let mut s = FilterSet::new();
        s.add_list("/track.js$domain=porn.site|~sub.porn.site\n@@/track.js$domain=allowed.site\n");
        // Allowed page domain (and its subdomains) → blocked.
        assert!(s
            .matches("https://x.com/track.js", &ctx("porn.site", "x.com"))
            .is_blocked());
        assert!(s
            .matches("https://x.com/track.js", &ctx("www.porn.site", "x.com"))
            .is_blocked());
        // Negated subdomain → clean.
        assert_eq!(
            s.matches("https://x.com/track.js", &ctx("sub.porn.site", "x.com")),
            MatchResult::Clean
        );
        // Unlisted page domain → clean.
        assert_eq!(
            s.matches("https://x.com/track.js", &ctx("other.site", "x.com")),
            MatchResult::Clean
        );
        // The exception's own $domain= restriction only fires on its page.
        assert!(matches!(
            s.matches("https://x.com/track.js", &ctx("porn.site", "x.com")),
            MatchResult::Blocked(_)
        ));
        let mut both = FilterSet::new();
        both.add_list("/track.js$domain=porn.site\n@@/track.js$domain=porn.site\n");
        assert!(matches!(
            both.matches("https://x.com/track.js", &ctx("porn.site", "x.com")),
            MatchResult::Excepted(_)
        ));
    }

    /// The indexed engine and the linear reference agree on the test list.
    #[test]
    fn agrees_with_linear_reference() {
        let mut indexed = FilterSet::new();
        indexed.add_list(LIST);
        let mut linear = LinearFilterSet::new();
        linear.add_list(LIST);
        let cases = [
            (
                "https://main.exoclick.com/tag.js",
                "porn.site",
                "main.exoclick.com",
            ),
            (
                "https://exoclick.com/allowed.js",
                "porn.site",
                "exoclick.com",
            ),
            (
                "https://sync.exosrv.com/pixel",
                "www.exosrv.com",
                "sync.exosrv.com",
            ),
            ("https://bbc.co.uk/analytics/b", "a.com", "bbc.co.uk"),
            ("https://x.net/adserver/300.js", "a.com", "x.net"),
            ("https://clean.cdn.com/lib.js", "porn.site", "clean.cdn.com"),
        ];
        for (url, page, req) in cases {
            let c = ctx(page, req);
            assert_eq!(indexed.matches(url, &c), linear.matches(url, &c), "{url}");
        }
        for fqdn in ["exoclick.com", "sync.exoclick.com", "bbc.co.uk", "x.net"] {
            assert_eq!(
                indexed.matches_fqdn_relaxed(fqdn),
                linear.matches_fqdn_relaxed(fqdn),
                "{fqdn}"
            );
        }
    }
}
