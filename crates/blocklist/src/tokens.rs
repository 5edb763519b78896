//! Token extraction for the indexed matcher (adblock-rust style).
//!
//! The idea: most filter patterns contain a fixed alphanumeric substring
//! ("token") that *must* appear in any URL the pattern matches — e.g.
//! `/adserver/*` can only match URLs containing `adserver`. Bucketing rules
//! by a hash of one such token and tokenizing each URL once means a lookup
//! only evaluates rules that share a token with the URL, instead of scanning
//! every generic rule.
//!
//! Correctness hinges on picking *safe* tokens only. A run of `[a-z0-9]`
//! pattern bytes is safe when it is guaranteed to appear as a **maximal**
//! alphanumeric run in every matching URL:
//!
//! * its left neighbour is a literal non-`*` pattern byte (necessarily
//!   non-alphanumeric, the run is maximal in the pattern) or the pattern
//!   start of a start-anchored rule — `^` qualifies, because when it matches
//!   it consumes a separator (it can only consume nothing at the *end* of
//!   input, which cannot precede the run);
//! * symmetrically, its right neighbour is a literal non-`*` byte or the
//!   pattern end of an end-anchored rule (`^` again qualifies: consuming
//!   nothing means end-of-input, so the run sits at the URL's end).
//!
//! Runs adjacent to `*`, or touching an unanchored pattern edge, may appear
//! mid-run in a URL (`ads` matches inside `loads`), so rules without any
//! safe run fall back to an always-scanned list. Everything is compared
//! ASCII-lowercased, mirroring the matcher's case-insensitivity.

/// FNV-1a over `bytes` with each byte ASCII-lowercased.
pub fn hash_token(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b.to_ascii_lowercase() as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends the hash of every maximal `[A-Za-z0-9]` run in `url` to `out`
/// (cleared first). One pass, no allocation beyond `out`'s capacity.
pub fn url_token_hashes(url: &str, out: &mut Vec<u64>) {
    out.clear();
    let bytes = url.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphanumeric() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
            out.push(hash_token(&bytes[start..i]));
        } else {
            i += 1;
        }
    }
}

/// Minimum token length worth indexing: 1-byte tokens appear in virtually
/// every URL, so their buckets would be scanned on every lookup anyway.
const MIN_TOKEN_LEN: usize = 2;

/// Picks the best safe token of `pattern` and returns its hash, or `None`
/// when the pattern has no safe run (the rule must be scanned always).
/// The longest safe run wins — longer tokens are rarer in URLs, keeping
/// buckets small.
pub fn pattern_token(pattern: &str, start_anchor: bool, end_anchor: bool) -> Option<u64> {
    let bytes = pattern.as_bytes();
    let mut best: Option<&[u8]> = None;
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_alphanumeric() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
            i += 1;
        }
        let run = &bytes[start..i];
        let safe_left = if start == 0 {
            start_anchor
        } else {
            bytes[start - 1] != b'*'
        };
        let safe_right = if i == bytes.len() {
            end_anchor
        } else {
            bytes[i] != b'*'
        };
        if safe_left
            && safe_right
            && run.len() >= MIN_TOKEN_LEN
            && best.is_none_or(|b| run.len() > b.len())
        {
            best = Some(run);
        }
    }
    best.map(hash_token)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urls_tokens(url: &str) -> Vec<u64> {
        let mut v = Vec::new();
        url_token_hashes(url, &mut v);
        v
    }

    #[test]
    fn hashing_is_case_insensitive() {
        assert_eq!(hash_token(b"AdServer"), hash_token(b"adserver"));
        assert_ne!(hash_token(b"adserver"), hash_token(b"adserver2"));
    }

    #[test]
    fn url_tokenization_finds_maximal_runs() {
        let toks = urls_tokens("https://x.net/adserver/300.js");
        assert!(toks.contains(&hash_token(b"adserver")));
        assert!(toks.contains(&hash_token(b"https")));
        assert!(toks.contains(&hash_token(b"300")));
        assert!(toks.contains(&hash_token(b"js")));
        // "adserver" is one maximal run — its pieces are not tokens.
        assert!(!toks.contains(&hash_token(b"ads")));
    }

    #[test]
    fn delimited_runs_are_safe() {
        // `/adserver/` — both sides are literal separators.
        let t = pattern_token("/adserver/", false, false).expect("safe token");
        assert_eq!(t, hash_token(b"adserver"));
    }

    #[test]
    fn wildcard_neighbours_are_unsafe() {
        // `*ads*` — "ads" could appear mid-run ("loads").
        assert_eq!(pattern_token("*ads*", false, false), None);
        // `/banner/*/img^`: "banner" is delimited, "img" touches `*`.
        let t = pattern_token("/banner/*/img^", false, false).expect("banner is safe");
        assert_eq!(t, hash_token(b"banner"));
    }

    #[test]
    fn pattern_edges_need_anchors() {
        // Unanchored "pixel" could match inside "subpixel3".
        assert_eq!(pattern_token("pixel", false, false), None);
        assert_eq!(
            pattern_token("pixel", true, true),
            Some(hash_token(b"pixel"))
        );
        // `|https://cdn.` — "https" is safe-left via the start anchor,
        // "cdn" is delimited by literals.
        let t = pattern_token("https://cdn.", true, false).expect("safe");
        assert_eq!(t, hash_token(b"https"));
    }

    #[test]
    fn separator_placeholder_is_a_safe_boundary() {
        // `^track^` — `^` consumes a separator (or end of input on the
        // right), so "track" stays a maximal run in the URL.
        assert_eq!(
            pattern_token("^track^", false, false),
            Some(hash_token(b"track"))
        );
    }

    #[test]
    fn longest_safe_run_wins() {
        let t = pattern_token("/ad/analytics/", false, false).expect("safe");
        assert_eq!(t, hash_token(b"analytics"));
    }

    #[test]
    fn single_byte_runs_are_not_indexed() {
        assert_eq!(pattern_token("/a/", false, false), None);
    }
}
