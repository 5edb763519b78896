//! Lightweight tokenizers shared by the TF-IDF model and the keyword
//! detectors.

/// Calls `visit` with each lowercase word token of `text`, in order.
///
/// A token is a maximal run of alphanumeric characters; everything else
/// (punctuation, whitespace, markup leftovers) is a separator. Tokens
/// shorter than two characters after lowercasing are dropped, matching what
/// the study's policy similarity computation needs (single letters carry no
/// signal). Each token is lowercased into `buf`, which is reused across
/// tokens and calls, so tokenizing allocates nothing per token.
pub(crate) fn for_each_word(text: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    buf.clear();
    let mut chars = 0usize;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                buf.push(lc);
                chars += 1;
            }
        } else if chars > 0 {
            if chars >= 2 {
                visit(buf);
            }
            buf.clear();
            chars = 0;
        }
    }
    if chars >= 2 {
        visit(buf);
    }
}

/// Counts the number of letters (alphabetic characters) in `text`.
///
/// The paper reports privacy-policy lengths in letters (§7.3: shortest 1,088,
/// longest 243,649, mean 17,159), so the analysis needs the same measure.
pub fn letter_count(text: &str) -> usize {
    text.chars().filter(|c| c.is_alphabetic()).count()
}

/// Returns `true` when `haystack` contains `needle` case-insensitively.
///
/// Both strings are lowercased with full Unicode case folding before the
/// substring scan; used by all keyword detectors (consent buttons, policy
/// links, subscription signals).
pub fn contains_ci(haystack: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return true;
    }
    haystack.to_lowercase().contains(&needle.to_lowercase())
}

/// Counts distinct characters in `text` (used by the canvas-fingerprinting
/// heuristic: scripts drawing text with more than 10 distinct characters).
pub fn distinct_chars(text: &str) -> usize {
    let mut seen: Vec<char> = text.chars().collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for_each_word(text, &mut String::new(), |w| out.push(w.to_owned()));
        out
    }

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        assert_eq!(
            words("We value your Privacy! Take some cookies."),
            vec!["we", "value", "your", "privacy", "take", "some", "cookies"]
        );
    }

    #[test]
    fn drops_single_char_tokens() {
        assert_eq!(words("a b cd"), vec!["cd"]);
        // `İ` lowercases to two chars (`i` + U+0307), so it stays a token.
        assert_eq!(words("İ x"), vec!["i\u{307}"]);
    }

    #[test]
    fn reused_buffer_starts_clean() {
        let mut buf = String::from("stale");
        let mut out = Vec::new();
        for_each_word("ok", &mut buf, |w| out.push(w.to_owned()));
        for_each_word("x, yz", &mut buf, |w| out.push(w.to_owned()));
        assert_eq!(out, vec!["ok", "yz"]);
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(words("").is_empty());
        assert!(words("!!! ???").is_empty());
    }

    #[test]
    fn letter_count_ignores_digits_and_punct() {
        assert_eq!(letter_count("abc 123 d.e"), 5);
    }

    #[test]
    fn contains_ci_works_across_case() {
        assert!(contains_ci("PRIVACY Policy", "privacy"));
        assert!(contains_ci("política de privacidad", "Privacidad"));
        assert!(!contains_ci("terms of service", "privacy"));
        assert!(contains_ci("anything", ""));
    }

    #[test]
    fn distinct_chars_counts_unique() {
        assert_eq!(distinct_chars("aabbcc"), 3);
        assert_eq!(distinct_chars(""), 0);
        // 26 distinct letters (the pangram) plus the space character.
        assert_eq!(distinct_chars("Cwm fjordbank glyphs vext quiz"), 27);
    }
}
