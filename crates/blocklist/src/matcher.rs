//! Filter matching over whole lists.
//!
//! [`FilterSet`] holds parsed rules from one or more lists (EasyList +
//! EasyPrivacy in the study) and answers:
//!
//! * [`FilterSet::matches`] — full-URL matching with exception handling, the
//!   §4.2(2) classification;
//! * [`FilterSet::matches_fqdn_relaxed`] — the paper's relaxed variant that
//!   only considers the base FQDN, used to count ATS organizations.
//!
//! # Layout
//!
//! * **Domain buckets.** A blocking rule anchored on a domain (`||anchor^…`)
//!   can only match hosts under its anchor. When the anchor is neither a
//!   public suffix nor malformed, every such host shares the anchor's
//!   registrable domain, so the rule is bucketed by it and a lookup reads
//!   the request host's bucket only.
//! * **The scan.** Every other blocking rule — unanchored patterns, and
//!   anchors that are public suffixes (`||co.uk^`) or malformed — sits in
//!   one list, in insertion order, tried after the bucket.
//! * **Exceptions.** `@@` rules sit in one list, in insertion order, tried
//!   only once a blocking rule matched.
//!
//! The first matching exception is the one a linear scan of the lists would
//! report. The blocking rule named in [`MatchResult::Blocked`] can differ
//! from a linear scan's, because the bucket is consulted before the scan;
//! the verdict cannot.

use std::borrow::Cow;
use std::collections::HashMap;

use redlight_net::psl;

use crate::filter::{Filter, RequestContext};

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

/// A parsed collection of filter rules.
#[derive(Debug, Clone, Default)]
pub struct FilterSet {
    /// Blocking rules with a bucketable domain anchor, keyed by the
    /// anchor's registrable domain.
    by_domain: HashMap<String, Vec<Filter>>,
    /// Every other blocking rule, in insertion order.
    scan: Vec<Filter>,
    /// Exception rules (`@@`), in insertion order.
    exceptions: Vec<Filter>,
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

    /// Adds one parsed filter: to its domain bucket, the scan or the
    /// exceptions.
    fn add_filter(&mut self, filter: Filter) {
        self.rule_count += 1;
        if filter.exception {
            self.exceptions.push(filter);
            return;
        }
        match filter.anchor_domain.as_deref() {
            Some(anchor) if bucketable_anchor(anchor) => {
                let key = psl::registrable_domain(anchor).to_string();
                self.by_domain.entry(key).or_default().push(filter);
            }
            _ => self.scan.push(filter),
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
        let bucket = self
            .by_domain
            .get(psl::registrable_domain(ctx.request_host))
            .map_or(&[][..], Vec::as_slice);
        let Some(rule) = bucket
            .iter()
            .chain(&self.scan)
            .find(|f| f.matches(url, ctx))
        else {
            return MatchResult::Clean;
        };
        match self.exceptions.iter().find(|f| f.matches(url, ctx)) {
            Some(exc) => MatchResult::Excepted(exc.raw.clone()),
            None => MatchResult::Blocked(rule.raw.clone()),
        }
    }

    /// The paper's relaxed matching: is this FQDN covered by a blocking
    /// rule's domain anchor? Domain-wide rules (`||anchor^` with no path)
    /// cover the anchor, its subdomains and its parents; path rules only
    /// flag the anchored host itself — a path rule on `cloudfront.net`
    /// marks `cloudfront.net` as ATS but does not taint every customer's
    /// `dxxxx.cloudfront.net` bucket.
    pub fn matches_fqdn_relaxed(&self, fqdn: &str) -> bool {
        // Only lowercase when the caller's FQDN actually needs it.
        let lowered: Cow<'_, str> = if fqdn.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(fqdn.to_ascii_lowercase())
        } else {
            Cow::Borrowed(fqdn)
        };
        let fqdn = lowered.as_ref();
        let covers = |f: &Filter| {
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
        };
        if !bucketable_anchor(fqdn) {
            // A public suffix (`co.uk`) is the parent of anchors in many
            // registrable domains, so no single bucket holds them all.
            return self.by_domain.values().flatten().any(covers) || self.scan.iter().any(covers);
        }
        self.by_domain
            .get(psl::registrable_domain(fqdn))
            .is_some_and(|rules| rules.iter().any(covers))
            || self.scan.iter().any(covers)
    }
}

/// `haystack` ends with `".{needle}"` — the old `ends_with(&format!(…))`
/// check without the per-call allocation.
fn ends_with_dot_prefixed(haystack: &str, needle: &str) -> bool {
    haystack
        .strip_suffix(needle)
        .is_some_and(|prefix| prefix.ends_with('.'))
}

/// A name may key a domain bucket only when every subdomain shares its
/// registrable domain (`reg(sub.name) == reg(name)`): true for clean,
/// non-public-suffix names, false for public suffixes (`||co.uk^` must
/// cover `x.co.uk`, whose registrable domain is `x.co.uk` itself) and
/// malformed names.
fn bucketable_anchor(name: &str) -> bool {
    !psl::is_public_suffix(name)
        && !name.starts_with('.')
        && !name.ends_with('.')
        && !name.contains("..")
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn wildcard_rules_are_scanned() {
        // `*track*` has no anchor to bucket by: it sits in the scan and
        // keeps matching.
        let mut s = FilterSet::new();
        s.add_list("*track*\n");
        assert!(s
            .matches("https://x.com/subtracker/a", &ctx("a.com", "x.com"))
            .is_blocked());
    }

    #[test]
    fn public_suffix_anchored_exception_is_always_scanned() {
        // `@@||co.uk^` covers x.co.uk, whose registrable domain ("x.co.uk")
        // differs from the anchor's ("co.uk"). Exceptions are one list,
        // scanned whole once a rule blocks, so no bucket can miss it.
        let mut s = FilterSet::new();
        s.add_list("/pixel/\n@@||co.uk^\n");
        assert_eq!(
            s.matches("https://shop.co.uk/pixel/1", &ctx("a.com", "shop.co.uk")),
            MatchResult::Excepted("@@||co.uk^".to_string())
        );
    }

    #[test]
    fn first_scan_match_wins() {
        // Two scan rules match; the earlier one is reported.
        let mut s = FilterSet::new();
        s.add_list("/zzztoken/\n/adserver/\n");
        let r = s.matches("https://x.net/adserver/zzztoken/1", &ctx("a.com", "x.net"));
        assert_eq!(r, MatchResult::Blocked("/zzztoken/".to_string()));
    }

    #[test]
    fn public_suffix_anchor_blocks_its_subdomains() {
        // `||co.uk^` covers shop.co.uk, whose registrable domain is
        // shop.co.uk, not co.uk: no bucket keyed by co.uk would be read.
        let mut s = FilterSet::new();
        s.add_list("||co.uk^\n");
        assert!(s
            .matches("https://shop.co.uk/x.js", &ctx("a.com", "shop.co.uk"))
            .is_blocked());
    }

    #[test]
    fn public_suffix_anchor_covers_subdomains_relaxed() {
        let mut s = FilterSet::new();
        s.add_list("||co.uk^\n");
        assert!(s.matches_fqdn_relaxed("shop.co.uk"));
    }

    #[test]
    fn public_suffix_path_rule_blocks_its_subdomains() {
        let mut s = FilterSet::new();
        s.add_list("||com.ru/ads/\n");
        assert!(s
            .matches("https://x.com.ru/ads/1", &ctx("a.com", "x.com.ru"))
            .is_blocked());
    }

    #[test]
    fn relaxed_public_suffix_reads_every_anchor() {
        // A domain-wide rule covers its parents, and `co.uk` is a parent
        // of anchors in every `*.co.uk` registrable domain.
        let mut s = FilterSet::new();
        s.add_list("||ads.example.co.uk^\n");
        assert!(s.matches_fqdn_relaxed("co.uk"));
        assert!(s.matches_fqdn_relaxed("example.co.uk"));
        assert!(!s.matches_fqdn_relaxed("other.co.uk"));
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
}
