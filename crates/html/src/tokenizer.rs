//! HTML tokenizer: turns markup into a stream of tags, text and comments.
//!
//! Covers the HTML that real-world landing pages are made of — attributes
//! with single/double/no quotes, void elements, comments, doctypes and raw
//! text elements (`<script>`, `<style>`) whose content must not be parsed as
//! markup.

/// One parsed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Name.
    pub name: String,
    /// Value.
    pub value: String,
}

/// A token produced by the tokenizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<name attr=...>`; `self_closing` covers both `<br/>` and void tags.
    StartTag {
        /// Name.
        name: String,
        /// Attributes.
        attributes: Vec<Attribute>,
        /// Self closing.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lowercased tag name.
        name: String,
    },
    /// Text content (entity-decoded for the common entities).
    Text(String),
    /// `<!-- ... -->`.
    Comment(String),
    /// `<!DOCTYPE ...>`.
    Doctype(String),
}

/// Elements whose content is raw text up to the matching close tag.
fn is_raw_text(name: &str) -> bool {
    matches!(name, "script" | "style")
}

/// Decodes the handful of entities that matter for keyword matching.
fn decode_entities(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let mut replaced = false;
        for (ent, ch) in [
            ("&amp;", '&'),
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&#39;", '\''),
            ("&apos;", '\''),
            ("&nbsp;", ' '),
        ] {
            if rest.starts_with(ent) {
                out.push(ch);
                rest = &rest[ent.len()..];
                replaced = true;
                break;
            }
        }
        if !replaced {
            out.push('&');
            rest = &rest[1..];
        }
    }
    out.push_str(rest);
    out
}

/// Tokenizes `input` into a token stream. The tokenizer is lenient: stray
/// `<` become text, unterminated constructs consume to end of input.
pub(crate) fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0;
    let mut raw_until: Option<String> = None;

    while pos < bytes.len() {
        if let Some(tag) = raw_until.clone() {
            // Inside <script>/<style>: scan for the matching close tag.
            let close = format!("</{tag}");
            let hay = &input[pos..];
            let end = hay.to_ascii_lowercase().find(&close);
            match end {
                Some(off) => {
                    if off > 0 {
                        tokens.push(Token::Text(hay[..off].to_string()));
                    }
                    pos += off;
                    raw_until = None;
                    // fall through to parse the close tag normally
                }
                None => {
                    tokens.push(Token::Text(hay.to_string()));
                    pos = bytes.len();
                    raw_until = None;
                    continue;
                }
            }
        }

        let rest = &input[pos..];
        if let Some(stripped) = rest.strip_prefix("<!--") {
            let end = stripped.find("-->");
            match end {
                Some(off) => {
                    tokens.push(Token::Comment(stripped[..off].to_string()));
                    pos += 4 + off + 3;
                }
                None => {
                    tokens.push(Token::Comment(stripped.to_string()));
                    pos = bytes.len();
                }
            }
            continue;
        }
        if rest.len() >= 2 && rest.starts_with('<') && rest[1..].starts_with('!') {
            let end = rest.find('>');
            match end {
                Some(off) => {
                    tokens.push(Token::Doctype(rest[2..off].trim().to_string()));
                    pos += off + 1;
                }
                None => pos = bytes.len(),
            }
            continue;
        }
        if rest.starts_with("</") {
            let end = rest.find('>');
            match end {
                Some(off) => {
                    let name = rest[2..off].trim().to_ascii_lowercase();
                    if !name.is_empty() {
                        tokens.push(Token::EndTag { name });
                    }
                    pos += off + 1;
                }
                None => pos = bytes.len(),
            }
            continue;
        }
        if rest.starts_with('<')
            && rest[1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
        {
            match parse_start_tag(rest) {
                Some((token, consumed)) => {
                    if let Token::StartTag {
                        name, self_closing, ..
                    } = &token
                    {
                        if is_raw_text(name) && !self_closing {
                            raw_until = Some(name.clone());
                        }
                    }
                    tokens.push(token);
                    pos += consumed;
                }
                None => {
                    // Malformed tag: emit '<' as text and move on.
                    push_text(&mut tokens, "<");
                    pos += 1;
                }
            }
            continue;
        }
        // Text run up to the next '<' (skip at least the first char, which
        // may be multi-byte).
        let first_len = rest.chars().next().map(char::len_utf8).unwrap_or(1);
        let next = rest[first_len..]
            .find('<')
            .map(|i| i + first_len)
            .unwrap_or(rest.len());
        push_text(&mut tokens, &rest[..next]);
        pos += next;
    }
    tokens
}

fn push_text(tokens: &mut Vec<Token>, raw: &str) {
    let decoded = decode_entities(raw);
    if let Some(Token::Text(prev)) = tokens.last_mut() {
        prev.push_str(&decoded);
    } else {
        tokens.push(Token::Text(decoded));
    }
}

/// Parses `<name attrs...>` returning the token and bytes consumed.
fn parse_start_tag(input: &str) -> Option<(Token, usize)> {
    debug_assert!(input.starts_with('<'));
    let bytes = input.as_bytes();
    let mut i = 1;
    let name_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-') {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let name = input[name_start..i].to_ascii_lowercase();
    let mut attributes = Vec::new();
    let mut self_closing = false;

    loop {
        // Skip whitespace.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return None; // unterminated tag
        }
        match bytes[i] {
            b'>' => {
                i += 1;
                break;
            }
            b'/' => {
                self_closing = true;
                i += 1;
            }
            _ => {
                // Attribute name.
                let an_start = i;
                while i < bytes.len()
                    && !bytes[i].is_ascii_whitespace()
                    && !matches!(bytes[i], b'=' | b'>' | b'/')
                {
                    i += 1;
                }
                if i == an_start {
                    i += 1; // skip stray byte
                    continue;
                }
                let attr_name = input[an_start..i].to_ascii_lowercase();
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                let mut value = String::new();
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                        let quote = bytes[i];
                        i += 1;
                        let v_start = i;
                        while i < bytes.len() && bytes[i] != quote {
                            i += 1;
                        }
                        value = decode_entities(&input[v_start..i]);
                        i = (i + 1).min(bytes.len());
                    } else {
                        let v_start = i;
                        while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'>'
                        {
                            i += 1;
                        }
                        value = decode_entities(&input[v_start..i]);
                    }
                }
                attributes.push(Attribute {
                    name: attr_name,
                    value,
                });
            }
        }
    }
    Some((
        Token::StartTag {
            name,
            attributes,
            self_closing,
        },
        i,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tokens: &[Token], idx: usize) -> (&str, &[Attribute], bool) {
        match &tokens[idx] {
            Token::StartTag {
                name,
                attributes,
                self_closing,
            } => (name.as_str(), attributes.as_slice(), *self_closing),
            t => panic!("expected start tag, got {t:?}"),
        }
    }

    #[test]
    fn simple_document() {
        let toks = tokenize("<html><body>Hello</body></html>");
        assert_eq!(toks.len(), 5);
        assert_eq!(start(&toks, 0).0, "html");
        assert_eq!(toks[2], Token::Text("Hello".into()));
        assert_eq!(
            toks[4],
            Token::EndTag {
                name: "html".into()
            }
        );
    }

    #[test]
    fn attributes_in_all_quote_styles() {
        let toks = tokenize(r#"<a href="https://x.com/p" class='big' data-id=42 hidden>"#);
        let (name, attrs, _) = start(&toks, 0);
        assert_eq!(name, "a");
        assert_eq!(attrs.len(), 4);
        assert_eq!(attrs[0].value, "https://x.com/p");
        assert_eq!(attrs[1].value, "big");
        assert_eq!(attrs[2].value, "42");
        assert_eq!(attrs[3].value, "");
    }

    #[test]
    fn script_content_is_raw_text() {
        let toks = tokenize("<script>if (a < b) { x = '<div>'; }</script><p>after</p>");
        assert_eq!(start(&toks, 0).0, "script");
        assert_eq!(toks[1], Token::Text("if (a < b) { x = '<div>'; }".into()));
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "script".into()
            }
        );
        assert_eq!(start(&toks, 3).0, "p");
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- RTA-5042-1996-1400-1577-RTA --><p>x</p>");
        assert_eq!(toks[0], Token::Doctype("DOCTYPE html".into()));
        assert_eq!(
            toks[1],
            Token::Comment(" RTA-5042-1996-1400-1577-RTA ".into())
        );
    }

    #[test]
    fn self_closing_and_case_normalization() {
        let toks = tokenize("<IMG SRC='/pixel.gif'/>");
        let (name, attrs, selfc) = start(&toks, 0);
        assert_eq!(name, "img");
        assert_eq!(attrs[0].name, "src");
        assert!(selfc);
    }

    #[test]
    fn entities_are_decoded_in_text() {
        let toks = tokenize("<p>Terms &amp; Conditions &lt;18+&gt;&nbsp;ok</p>");
        assert_eq!(toks[1], Token::Text("Terms & Conditions <18+> ok".into()));
    }

    #[test]
    fn stray_angle_bracket_is_text() {
        let toks = tokenize("1 < 2 but <b>3</b>");
        assert_eq!(toks[0], Token::Text("1 < 2 but ".into()));
        assert_eq!(start(&toks, 1).0, "b");
    }

    #[test]
    fn multibyte_text_runs_do_not_panic() {
        // Regression: a text run starting with a multi-byte char used to
        // slice at byte 1 and panic.
        let toks = tokenize("<a>войти</a> <b>да</b>");
        assert_eq!(toks[1], Token::Text("войти".into()));
        assert!(toks.iter().any(|t| *t == Token::Text("да".into())));
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        tokenize("<div class='x");
        tokenize("<!-- never closed");
        tokenize("<script>var x = 1;");
        tokenize("</");
        tokenize("<");
    }
}
