//! Minimal JSON emission helpers (the crate is dependency-free).

use crate::span::AttrVal;

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an [`AttrVal`] as a JSON value to `out`.
fn push_attr_val(out: &mut String, v: &AttrVal) {
    match v {
        AttrVal::U64(n) => out.push_str(&n.to_string()),
        AttrVal::I64(n) => out.push_str(&n.to_string()),
        AttrVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        AttrVal::Str(s) => push_str_literal(out, s),
    }
}

/// Appends an attribute list as a JSON object to `out`.
pub(crate) fn push_attrs(out: &mut String, attrs: &[(&'static str, AttrVal)]) {
    out.push('{');
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(out, key);
        out.push(':');
        push_attr_val(out, value);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn renders_attr_objects() {
        let mut out = String::new();
        push_attrs(
            &mut out,
            &[
                ("n", AttrVal::U64(3)),
                ("ok", AttrVal::Bool(true)),
                ("s", AttrVal::Str("x".into())),
            ],
        );
        assert_eq!(out, r#"{"n":3,"ok":true,"s":"x"}"#);
    }
}
