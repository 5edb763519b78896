//! A compact public-suffix list and registrable-domain (eTLD+1) extraction.
//!
//! The third-party attribution pipeline constantly maps FQDNs to their
//! registrable domain (`img100-589.xvideos.com` → `xvideos.com`,
//! `stats.g.doubleclick.net` → `doubleclick.net`). A full Mozilla PSL is not
//! needed for the synthetic ecosystem; this embedded list covers every suffix
//! the simulator generates plus the common multi-label suffixes that make the
//! algorithm non-trivial (`co.uk`, `com.ru`, `xxx`, …).

/// Multi-label public suffixes known to the embedded list, each expressed as
/// the suffix string *without* a leading dot.
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.ru", "com.br", "com.au", "co.jp", "co.in", "com.sg",
    "com.es", "com.mx", "co.za", "com.tr", "com.ar", "net.ru", "org.ru", "in.ua", "com.ua",
    "com.cn",
];

/// Returns `true` when `domain` (normalized, lowercase) is exactly a public
/// suffix.
pub fn is_public_suffix(domain: &str) -> bool {
    if MULTI_LABEL_SUFFIXES.contains(&domain) {
        return true;
    }
    !domain.contains('.')
}

/// Extracts the registrable domain (eTLD+1) from a normalized hostname.
///
/// Falls back to the wildcard rule — last label is the public suffix — for
/// TLDs not in the embedded list, which matches how the Mozilla PSL treats
/// unknown TLDs. Malformed hosts with empty labels (leading, trailing or
/// doubled dots) are handled defensively: surrounding dots are trimmed and
/// empty labels never count toward the suffix, so `"example.com."` resolves
/// to `"example.com"` and `".com"` to `"com"` instead of mis-sliced text.
///
/// ```
/// assert_eq!(redlight_net::psl::registrable_domain("a.b.example.co.uk"), "example.co.uk");
/// assert_eq!(redlight_net::psl::registrable_domain("stats.g.doubleclick.net"), "doubleclick.net");
/// assert_eq!(redlight_net::psl::registrable_domain("xvideos.com"), "xvideos.com");
/// assert_eq!(redlight_net::psl::registrable_domain("example.com."), "example.com");
/// ```
pub fn registrable_domain(host: &str) -> &str {
    let trimmed = host.trim_matches('.');
    if trimmed.is_empty() {
        // "." / ".." / "": nothing but separators. The empty subslice keeps
        // the result borrowed from `host`.
        return trimmed;
    }
    // Byte offsets of the last three *non-empty* label starts, most recent
    // first. Walking with `rfind` avoids the per-call `Vec<&str>` the old
    // implementation allocated.
    let mut starts = [0usize; 3];
    let mut found = 0usize;
    let mut end = trimmed.len();
    loop {
        let start = match trimmed[..end].rfind('.') {
            Some(dot) => dot + 1,
            None => 0,
        };
        if start < end {
            starts[found] = start;
            found += 1;
            if found == 3 {
                break;
            }
        }
        if start == 0 {
            break;
        }
        end = start - 1;
    }
    if found == 1 {
        return trimmed; // single label: the host is (treated as) a suffix
    }
    let last_two = &trimmed[starts[1]..];
    if MULTI_LABEL_SUFFIXES.contains(&last_two) {
        if found == 2 {
            return trimmed; // the host *is* a suffix (e.g. "co.uk")
        }
        return &trimmed[starts[2]..];
    }
    // Wildcard rule: last label is the suffix, registrable = last two labels.
    last_two
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_label_hosts_are_registrable() {
        assert_eq!(registrable_domain("pornhub.com"), "pornhub.com");
        assert_eq!(registrable_domain("sexmex.xxx"), "sexmex.xxx");
    }

    #[test]
    fn subdomains_collapse() {
        assert_eq!(registrable_domain("www.pornhub.com"), "pornhub.com");
        assert_eq!(registrable_domain("a.b.c.tracker.net"), "tracker.net");
    }

    #[test]
    fn multi_label_suffixes() {
        assert_eq!(registrable_domain("www.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(registrable_domain("adx.com.ru"), "adx.com.ru");
        assert_eq!(registrable_domain("deep.sub.adx.com.ru"), "adx.com.ru");
    }

    #[test]
    fn suffix_itself_is_returned_verbatim() {
        assert_eq!(registrable_domain("co.uk"), "co.uk");
        assert_eq!(registrable_domain("com"), "com");
    }

    #[test]
    fn unknown_tld_falls_back_to_wildcard_rule() {
        assert_eq!(registrable_domain("tracker.weirdtld"), "tracker.weirdtld");
        assert_eq!(registrable_domain("a.tracker.weirdtld"), "tracker.weirdtld");
    }

    #[test]
    fn empty_labels_are_handled() {
        // Trailing dot (FQDN root form): trimmed, not mis-sliced to "com.".
        assert_eq!(registrable_domain("example.com."), "example.com");
        assert_eq!(registrable_domain("www.example.com."), "example.com");
        // Leading dot: trimmed, not returned verbatim.
        assert_eq!(registrable_domain(".com"), "com");
        assert_eq!(registrable_domain(".example.com"), "example.com");
        // Doubled interior dot: the empty label never counts as a label, so
        // the multi-label walk still lands on a non-empty start.
        assert_eq!(registrable_domain("a..b"), "a..b");
        assert_eq!(registrable_domain("x.a..b"), "a..b");
        // Nothing but separators.
        assert_eq!(registrable_domain("."), "");
        assert_eq!(registrable_domain(".."), "");
        assert_eq!(registrable_domain(""), "");
    }

    #[test]
    fn suffix_predicates() {
        assert!(is_public_suffix("com"));
        assert!(is_public_suffix("co.uk"));
        assert!(!is_public_suffix("example.com"));
    }
}
