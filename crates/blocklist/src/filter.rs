//! Adblock-Plus filter rules: parsing and single-rule matching.
//!
//! Supported syntax (the subset EasyList/EasyPrivacy URL rules are built
//! from):
//!
//! * `||domain.com^path` — domain anchor: matches the domain and all its
//!   subdomains at a label boundary;
//! * `|https://exact.start` / `ending|` — start / end anchors;
//! * plain substring patterns, `*` wildcards, `^` separator placeholders;
//! * `@@` exception rules;
//! * `$` options: `third-party`, `~third-party`, resource types (`script`,
//!   `image`, `stylesheet`, `subdocument`, `xmlhttprequest`, `ping`,
//!   `document`, `other`) and their `~` negations, and
//!   `domain=a.com|~b.com` page-domain restrictions;
//! * `!` comment lines and `##`/`#@#` element-hiding rules are recognized
//!   and skipped by the list parser in [`crate::matcher`].

use redlight_net::http::ResourceKind;
use redlight_net::psl;

/// Error for unparseable rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterParseError(pub String);

/// The request context a rule is evaluated against.
#[derive(Debug, Clone)]
pub struct RequestContext<'a> {
    /// Hostname of the page (first party) issuing the request.
    pub page_host: &'a str,
    /// Hostname of the request URL.
    pub request_host: &'a str,
    /// `true` when request and page hosts have different registrable domains.
    pub third_party: bool,
    /// Resource type being loaded.
    pub kind: ResourceKind,
}

impl<'a> RequestContext<'a> {
    /// Builds a context, deriving `third_party` from registrable domains.
    pub fn new(page_host: &'a str, request_host: &'a str, kind: ResourceKind) -> Self {
        let third_party =
            psl::registrable_domain(page_host) != psl::registrable_domain(request_host);
        RequestContext {
            page_host,
            request_host,
            third_party,
            kind,
        }
    }
}

/// Option constraints attached to a rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterOptions {
    /// `Some(true)` = only third-party, `Some(false)` = only first-party.
    pub third_party: Option<bool>,
    /// Resource kinds explicitly allowed; empty = all.
    pub kinds: Vec<String>,
    /// Resource kinds explicitly excluded (`~script`).
    not_kinds: Vec<String>,
    /// Page domains the rule is restricted to; empty = all.
    pub domains: Vec<String>,
    /// Page domains the rule must not apply on.
    not_domains: Vec<String>,
}

/// One parsed URL filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// The raw rule text (for reporting).
    pub raw: String,
    /// `true` for `@@` exception rules.
    pub exception: bool,
    /// Domain anchor (`||domain^…`), lowercase, when present.
    pub anchor_domain: Option<String>,
    /// Pattern to match after the anchor (may contain `*` and `^`).
    pub pattern: String,
    /// `|`-anchored at the start (absolute URL prefix).
    start_anchor: bool,
    /// `|`-anchored at the end.
    end_anchor: bool,
    /// Options.
    pub options: FilterOptions,
}

impl Filter {
    /// Parses one rule line. Returns `Err` for element-hiding rules,
    /// comments and empty lines — the list parser skips those.
    pub fn parse(line: &str) -> Result<Filter, FilterParseError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('!') || line.starts_with('[') {
            return Err(FilterParseError("comment or empty".into()));
        }
        if line.contains("##") || line.contains("#@#") || line.contains("#?#") {
            return Err(FilterParseError("element hiding rule".into()));
        }

        let (exception, rest) = match line.strip_prefix("@@") {
            Some(r) => (true, r),
            None => (false, line),
        };

        // Split off options at the last '$' that is followed by option-ish text.
        let (body, opts_str) = match rest.rfind('$') {
            Some(idx) if idx + 1 < rest.len() && looks_like_options(&rest[idx + 1..]) => {
                (&rest[..idx], Some(&rest[idx + 1..]))
            }
            _ => (rest, None),
        };
        if body.is_empty() {
            return Err(FilterParseError("empty pattern".into()));
        }

        let mut options = FilterOptions::default();
        if let Some(opts) = opts_str {
            for opt in opts.split(',') {
                let opt = opt.trim();
                match opt {
                    "third-party" => options.third_party = Some(true),
                    "~third-party" => options.third_party = Some(false),
                    "script" | "image" | "stylesheet" | "subdocument" | "xmlhttprequest"
                    | "ping" | "document" | "other" => options.kinds.push(opt.to_string()),
                    _ if opt.starts_with('~')
                        && matches!(
                            &opt[1..],
                            "script"
                                | "image"
                                | "stylesheet"
                                | "subdocument"
                                | "xmlhttprequest"
                                | "ping"
                                | "document"
                                | "other"
                        ) =>
                    {
                        options.not_kinds.push(opt[1..].to_string());
                    }
                    _ if opt.starts_with("domain=") => {
                        for d in opt["domain=".len()..].split('|') {
                            if let Some(nd) = d.strip_prefix('~') {
                                options.not_domains.push(nd.to_ascii_lowercase());
                            } else if !d.is_empty() {
                                options.domains.push(d.to_ascii_lowercase());
                            }
                        }
                    }
                    // Unknown options are tolerated (EasyList has many).
                    _ => {}
                }
            }
        }

        // Domain-anchored rule.
        if let Some(after) = body.strip_prefix("||") {
            let split = after.find(['^', '/', '*', '|', '?']).unwrap_or(after.len());
            let domain = after[..split].to_ascii_lowercase();
            if domain.is_empty() {
                return Err(FilterParseError("empty domain anchor".into()));
            }
            let pattern = after[split..].to_string();
            let end_anchor = pattern.ends_with('|');
            let pattern = pattern.strip_suffix('|').unwrap_or(&pattern).to_string();
            return Ok(Filter {
                raw: line.to_string(),
                exception,
                anchor_domain: Some(domain),
                pattern,
                start_anchor: false,
                end_anchor,
                options,
            });
        }

        let start_anchor = body.starts_with('|');
        let body2 = body.strip_prefix('|').unwrap_or(body);
        let end_anchor = body2.ends_with('|');
        let pattern = body2.strip_suffix('|').unwrap_or(body2).to_string();
        if pattern.is_empty() {
            return Err(FilterParseError("empty pattern".into()));
        }
        Ok(Filter {
            raw: line.to_string(),
            exception,
            anchor_domain: None,
            pattern,
            start_anchor,
            end_anchor,
            options,
        })
    }

    /// Whether this rule matches `url` (full URL, no fragment) in `ctx`.
    pub fn matches(&self, url: &str, ctx: &RequestContext<'_>) -> bool {
        if !self.options_match(ctx) {
            return false;
        }
        match &self.anchor_domain {
            Some(domain) => {
                if !host_matches_anchor(ctx.request_host, domain) {
                    return false;
                }
                if self.pattern.is_empty() {
                    return true;
                }
                // The pattern applies from the position right after the host.
                let Some(host_pos) = find_host_end(url, ctx.request_host) else {
                    return false;
                };
                pattern_match(&url[host_pos..], &self.pattern, true, self.end_anchor)
                    // `^` right after the anchor also matches end-of-URL.
                    || (self.pattern == "^" && url.len() == host_pos)
            }
            None => {
                if self.start_anchor {
                    pattern_match(url, &self.pattern, true, self.end_anchor)
                } else {
                    pattern_search(url, &self.pattern, self.end_anchor)
                }
            }
        }
    }

    fn options_match(&self, ctx: &RequestContext<'_>) -> bool {
        if let Some(tp) = self.options.third_party {
            if tp != ctx.third_party {
                return false;
            }
        }
        let kind_name = ctx.kind.option_name();
        if !self.options.kinds.is_empty() && !self.options.kinds.iter().any(|k| k == kind_name) {
            return false;
        }
        if self.options.not_kinds.iter().any(|k| k == kind_name) {
            return false;
        }
        if !self.options.domains.is_empty()
            && !self
                .options
                .domains
                .iter()
                .any(|d| host_matches_anchor(ctx.page_host, d))
        {
            return false;
        }
        if self
            .options
            .not_domains
            .iter()
            .any(|d| host_matches_anchor(ctx.page_host, d))
        {
            return false;
        }
        true
    }
}

fn looks_like_options(s: &str) -> bool {
    // Options are comma-separated words, possibly with '=' and '~' and '|'.
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, ',' | '-' | '=' | '~' | '|' | '.'))
}

/// `host` equals `anchor` or is a subdomain of it.
fn host_matches_anchor(host: &str, anchor: &str) -> bool {
    host == anchor
        || (host.len() > anchor.len()
            && host.ends_with(anchor)
            && host.as_bytes()[host.len() - anchor.len() - 1] == b'.')
}

/// Byte offset in `url` just past the hostname.
fn find_host_end(url: &str, host: &str) -> Option<usize> {
    let idx = url.find(host)?;
    Some(idx + host.len())
}

/// `^` matches a separator: anything that is not alphanumeric, `_`, `-`,
/// `.` or `%` — or the end of the URL.
fn is_separator(b: u8) -> bool {
    !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'%'))
}

/// Matches `pattern` against `text` anchored at position 0.
/// When `anchored_end`, the pattern must consume all of `text`.
fn pattern_match(text: &str, pattern: &str, anchored_start: bool, anchored_end: bool) -> bool {
    debug_assert!(anchored_start);
    fn rec(t: &[u8], p: &[u8], anchored_end: bool) -> bool {
        match p.first() {
            None => !anchored_end || t.is_empty(),
            Some(b'*') => {
                // Try all suffixes.
                (0..=t.len()).any(|skip| rec(&t[skip..], &p[1..], anchored_end))
            }
            Some(b'^') => {
                if t.is_empty() {
                    // `^` may match end-of-input, consuming nothing.
                    rec(t, &p[1..], anchored_end)
                } else if is_separator(t[0]) {
                    rec(&t[1..], &p[1..], anchored_end)
                } else {
                    false
                }
            }
            Some(&c) => {
                t.first().is_some_and(|&tc| tc.eq_ignore_ascii_case(&c))
                    && rec(&t[1..], &p[1..], anchored_end)
            }
        }
    }
    rec(text.as_bytes(), pattern.as_bytes(), anchored_end)
}

/// Searches `pattern` anywhere in `text`. The search already tries every
/// start offset, so a leading `*` could only retry every suffix of each
/// one again — quadratic in the URL — and is stripped first. No verdict
/// changes: a match after the stripped `*`s is a match at a later offset.
fn pattern_search(text: &str, pattern: &str, anchored_end: bool) -> bool {
    let pattern = pattern.trim_start_matches('*');
    (0..=text.len()).any(|start| pattern_match(&text[start..], pattern, true, anchored_end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx<'a>(page: &'a str, req: &'a str) -> RequestContext<'a> {
        RequestContext::new(page, req, ResourceKind::Script)
    }

    #[test]
    fn domain_anchor_matches_domain_and_subdomains() {
        let f = Filter::parse("||exoclick.com^").unwrap();
        assert!(f.matches(
            "https://exoclick.com/tag.js",
            &ctx("porn.site", "exoclick.com")
        ));
        assert!(f.matches(
            "https://main.exoclick.com/tag.js",
            &ctx("porn.site", "main.exoclick.com")
        ));
        assert!(!f.matches(
            "https://notexoclick.com/tag.js",
            &ctx("porn.site", "notexoclick.com")
        ));
    }

    #[test]
    fn paper_example_full_url_vs_domain() {
        // bbc.co.uk is not blacklisted, but bbc.co.uk/analytics is.
        let f = Filter::parse("||bbc.co.uk/analytics").unwrap();
        assert!(f.matches(
            "https://bbc.co.uk/analytics/beacon",
            &ctx("news.site", "bbc.co.uk")
        ));
        assert!(!f.matches("https://bbc.co.uk/news", &ctx("news.site", "bbc.co.uk")));
    }

    #[test]
    fn separator_semantics() {
        let f = Filter::parse("||ads.net^").unwrap();
        // `^` matches '/' and end-of-URL but not an alphanumeric char.
        assert!(f.matches("http://ads.net/x", &ctx("a.com", "ads.net")));
        assert!(f.matches("http://ads.net", &ctx("a.com", "ads.net")));
        // Different host entirely: anchor check fails first.
        assert!(!f.matches("http://ads.network/x", &ctx("a.com", "ads.network")));
    }

    #[test]
    fn wildcards() {
        let f = Filter::parse("/banner/*/img^").unwrap();
        assert!(f.matches(
            "http://x.com/banner/300x250/img/a.png",
            &ctx("a.com", "x.com")
        ));
        assert!(!f.matches("http://x.com/banner/img", &ctx("a.com", "x.com")));
    }

    #[test]
    fn start_and_end_anchors() {
        let start = Filter::parse("|https://cdn.").unwrap();
        assert!(start.matches(
            "https://cdn.tracker.net/x",
            &ctx("a.com", "cdn.tracker.net")
        ));
        assert!(!start.matches("http://a.com/https://cdn.", &ctx("a.com", "a.com")));

        let end = Filter::parse("/pixel.gif|").unwrap();
        assert!(end.matches("http://t.co/pixel.gif", &ctx("a.com", "t.co")));
        assert!(!end.matches("http://t.co/pixel.gif?x=1", &ctx("a.com", "t.co")));
    }

    #[test]
    fn third_party_option() {
        let f = Filter::parse("||tracker.com^$third-party").unwrap();
        assert!(f.matches("https://tracker.com/t.js", &ctx("site.com", "tracker.com")));
        // First-party context: registrable domains match.
        assert!(!f.matches(
            "https://tracker.com/t.js",
            &ctx("www.tracker.com", "tracker.com")
        ));
        let fp = Filter::parse("||self.com^$~third-party").unwrap();
        assert!(fp.matches("https://self.com/a.js", &ctx("www.self.com", "self.com")));
        assert!(!fp.matches("https://self.com/a.js", &ctx("other.com", "self.com")));
    }

    #[test]
    fn resource_kind_options() {
        let f = Filter::parse("||ads.com^$script,image").unwrap();
        let script = RequestContext::new("a.com", "ads.com", ResourceKind::Script);
        let frame = RequestContext::new("a.com", "ads.com", ResourceKind::Frame);
        assert!(f.matches("https://ads.com/t.js", &script));
        assert!(!f.matches("https://ads.com/frame", &frame));

        let neg = Filter::parse("||ads.com^$~script").unwrap();
        assert!(!neg.matches("https://ads.com/t.js", &script));
        assert!(neg.matches("https://ads.com/frame", &frame));
    }

    #[test]
    fn domain_option_restricts_page() {
        let f = Filter::parse("/track.js$domain=porn.site|~sub.porn.site").unwrap();
        assert!(f.matches("https://x.com/track.js", &ctx("porn.site", "x.com")));
        assert!(f.matches("https://x.com/track.js", &ctx("www.porn.site", "x.com")));
        assert!(!f.matches("https://x.com/track.js", &ctx("sub.porn.site", "x.com")));
        assert!(!f.matches("https://x.com/track.js", &ctx("other.site", "x.com")));
    }

    #[test]
    fn domain_option_parses_allow_and_deny_lists() {
        let f = Filter::parse("/t.js$domain=A.com|~b.com|c.org|~D.net").unwrap();
        assert_eq!(f.options.domains, vec!["a.com", "c.org"]);
        assert_eq!(f.options.not_domains, vec!["b.com", "d.net"]);
        // Denied pages lose even when listed nowhere else.
        assert!(f.matches("https://x.com/t.js", &ctx("a.com", "x.com")));
        assert!(f.matches("https://x.com/t.js", &ctx("c.org", "x.com")));
        assert!(!f.matches("https://x.com/t.js", &ctx("b.com", "x.com")));
        assert!(!f.matches("https://x.com/t.js", &ctx("sub.d.net", "x.com")));
        assert!(!f.matches("https://x.com/t.js", &ctx("unlisted.com", "x.com")));
    }

    #[test]
    fn domain_option_with_only_negations_allows_everywhere_else() {
        let f = Filter::parse("/t.js$domain=~b.com").unwrap();
        assert!(f.options.domains.is_empty());
        assert_eq!(f.options.not_domains, vec!["b.com"]);
        assert!(f.matches("https://x.com/t.js", &ctx("anything.com", "x.com")));
        assert!(!f.matches("https://x.com/t.js", &ctx("b.com", "x.com")));
        assert!(!f.matches("https://x.com/t.js", &ctx("www.b.com", "x.com")));
    }

    #[test]
    fn domain_option_combines_with_other_options() {
        let f = Filter::parse("||ads.com^$third-party,domain=porn.site").unwrap();
        assert_eq!(f.options.domains, vec!["porn.site"]);
        assert_eq!(f.options.third_party, Some(true));
        assert!(f.matches("https://ads.com/t.js", &ctx("porn.site", "ads.com")));
        // Wrong page domain, even though third-party holds.
        assert!(!f.matches("https://ads.com/t.js", &ctx("other.site", "ads.com")));
    }

    #[test]
    fn exception_rules_parse() {
        let f = Filter::parse("@@||goodcdn.com^$script").unwrap();
        assert!(f.exception);
        assert!(f.matches("https://goodcdn.com/lib.js", &ctx("a.com", "goodcdn.com")));
    }

    #[test]
    fn comments_and_cosmetic_rules_are_rejected() {
        assert!(Filter::parse("! comment").is_err());
        assert!(Filter::parse("").is_err());
        assert!(Filter::parse("[Adblock Plus 2.0]").is_err());
        assert!(Filter::parse("example.com##.ad-banner").is_err());
    }

    #[test]
    fn case_insensitive_pattern_match() {
        let f = Filter::parse("/AdServer/").unwrap();
        assert!(f.matches("http://x.com/adserver/a", &ctx("a.com", "x.com")));
    }

    /// The search as it stood before leading `*`s were stripped: every
    /// start offset, and for a leading `*` every suffix of each one again.
    fn quadratic_search(text: &str, pattern: &str, anchored_end: bool) -> bool {
        (0..=text.len()).any(|start| pattern_match(&text[start..], pattern, true, anchored_end))
    }

    proptest! {
        /// `Filter::matches` on start- and end-anchored or unanchored
        /// rules agrees with the pre-change search on random URLs. The
        /// alphabets are small, with separators (`/`, `?`) and
        /// non-separators (`.`, `%`), so about one case in five matches.
        #[test]
        fn search_agrees_with_the_quadratic_oracle(
            url in "[abA/.?%]{0,20}",
            pattern in "[abB/.?*^]{1,6}",
            start_anchor in any::<bool>(),
            end_anchor in any::<bool>(),
        ) {
            let rule = format!(
                "{}{pattern}{}",
                if start_anchor { "|" } else { "" },
                if end_anchor { "|" } else { "" }
            );
            let f = Filter::parse(&rule).expect("the pattern alphabet always parses");
            prop_assert_eq!((f.start_anchor, f.end_anchor), (start_anchor, end_anchor));
            let expected = if start_anchor {
                pattern_match(&url, &pattern, true, end_anchor)
            } else {
                quadratic_search(&url, &pattern, end_anchor)
            };
            prop_assert_eq!(
                f.matches(&url, &ctx("a.com", "x.com")),
                expected,
                "rule {} on {}",
                rule,
                url
            );
        }
    }
}
