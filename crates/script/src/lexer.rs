//! Lexer for the mini scripting language. Tokens borrow from the source:
//! an identifier is a slice of it, and so is a string literal unless an
//! escape had to be resolved.

use std::borrow::Cow;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    // literals
    /// Integer literal.
    Int(i64),
    /// String literal (escapes resolved).
    Str(Cow<'a, str>),
    /// Identifier (variable or call-path segment).
    Ident(&'a str),
    // keywords
    /// `let` keyword.
    Let,
    /// `for` keyword.
    For,
    /// `in` keyword.
    In,
    /// `if` keyword.
    If,
    /// `else` keyword.
    Else,
    /// `return` keyword.
    Return,
    /// `true` literal.
    True,
    /// `false` literal.
    False,
    /// `null` literal.
    Null,
    // punctuation / operators
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
    /// `.` (call-path separator).
    Dot,
    /// `..` (range operator).
    DotDot,
    /// `=`.
    Assign,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Bang,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A lexing error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

/// Tokenizes `src`. Line (`//`) comments are skipped.
pub(crate) fn lex(src: &str) -> Result<Vec<Tok<'_>>, LexError> {
    let bytes = src.as_bytes();
    // Generated scripts average well over four bytes per token.
    let mut toks = Vec::with_capacity(src.len() / 4 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            b'{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            b'}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            b',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            b';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            b'.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    toks.push(Tok::DotDot);
                    i += 2;
                } else {
                    toks.push(Tok::Dot);
                    i += 1;
                }
            }
            b'+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            b'-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            b'*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            b'/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            b'%' => {
                toks.push(Tok::Percent);
                i += 1;
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Eq);
                    i += 2;
                } else {
                    toks.push(Tok::Assign);
                    i += 1;
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    toks.push(Tok::Bang);
                    i += 1;
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            b'&' if bytes.get(i + 1) == Some(&b'&') => {
                toks.push(Tok::AndAnd);
                i += 2;
            }
            b'|' if bytes.get(i + 1) == Some(&b'|') => {
                toks.push(Tok::OrOr);
                i += 2;
            }
            b'"' | b'\'' => {
                let (tok, end) = string_literal(src, i)?;
                toks.push(Tok::Str(tok));
                i = end;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i].parse().map_err(|_| LexError {
                    offset: start,
                    message: "integer overflow".into(),
                })?;
                toks.push(Tok::Int(n));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                toks.push(match word {
                    "let" => Tok::Let,
                    "for" => Tok::For,
                    "in" => Tok::In,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "return" => Tok::Return,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    _ => Tok::Ident(word),
                });
            }
            other => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character {:?}", other as char),
                });
            }
        }
    }
    Ok(toks)
}

/// Lexes the string literal whose opening quote is at `start`, returning
/// it and the offset just past its closing quote. The literal borrows from
/// `src` unless it holds an escape.
fn string_literal(src: &str, start: usize) -> Result<(Cow<'_, str>, usize), LexError> {
    let bytes = src.as_bytes();
    let quote = bytes[start];
    let unterminated = || LexError {
        offset: start,
        message: "unterminated string".into(),
    };
    let body = start + 1;
    let stop = bytes[body..]
        .iter()
        .position(|&b| b == quote || b == b'\\')
        .ok_or_else(unterminated)?;
    if bytes[body + stop] == quote {
        return Ok((Cow::Borrowed(&src[body..body + stop]), body + stop + 1));
    }
    let mut s = String::from(&src[body..body + stop]);
    let mut i = body + stop;
    loop {
        if i >= bytes.len() {
            return Err(unterminated());
        }
        match bytes[i] {
            q if q == quote => return Ok((Cow::Owned(s), i + 1)),
            b'\\' => {
                let esc = src[i + 1..].chars().next().ok_or_else(|| LexError {
                    offset: i,
                    message: "dangling escape".into(),
                })?;
                s.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                i += 1 + esc.len_utf8();
            }
            _ => {
                // Consume one UTF-8 scalar.
                let ch_len = utf8_len(bytes[i]);
                s.push_str(&src[i..i + ch_len]);
                i += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_statement() {
        let toks = lex("let x = 1 + 2;").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Let,
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Int(1),
                Tok::Plus,
                Tok::Int(2),
                Tok::Semi
            ]
        );
    }

    #[test]
    fn lexes_dotted_call_and_range() {
        let toks = lex("canvas.fillText(\"hi\", 0..5)").unwrap();
        assert!(toks.contains(&Tok::Dot));
        assert!(toks.contains(&Tok::DotDot));
        assert!(toks.contains(&Tok::Str("hi".into())));
    }

    #[test]
    fn string_escapes_and_quotes() {
        let toks = lex(r#"'it\'s' "a\nb""#).unwrap();
        assert_eq!(toks[0], Tok::Str("it's".into()));
        assert_eq!(toks[1], Tok::Str("a\nb".into()));
    }

    #[test]
    fn literals_borrow_unless_escaped() {
        let toks = lex(r#"'plain' "esc\"aped" id"#).unwrap();
        assert!(matches!(&toks[0], Tok::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[1], Tok::Str(Cow::Owned(s)) if s == "esc\"aped"));
        assert_eq!(toks[2], Tok::Ident("id"));
        let err = lex("'ends with \\").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (11, "dangling escape"));
        assert_eq!(lex("x = 'open\\'").unwrap_err().offset, 4);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("let x = 1; // set cookie here\nlet y = 2;").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Tok::Let).count(), 2);
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a == b != c <= d >= e < f > g && h || !i").unwrap();
        for t in [
            Tok::Eq,
            Tok::Ne,
            Tok::Le,
            Tok::Ge,
            Tok::Lt,
            Tok::Gt,
            Tok::AndAnd,
            Tok::OrOr,
            Tok::Bang,
        ] {
            assert!(toks.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let err = lex("let x = @").unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(lex("\"open").is_err());
    }

    #[test]
    fn unicode_strings_pass_through() {
        let toks = lex("'Cwm fjörd 🦀'").unwrap();
        assert_eq!(toks[0], Tok::Str("Cwm fjörd 🦀".into()));
    }
}
