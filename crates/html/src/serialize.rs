//! DOM → HTML serialization (round-trip support and screenshot-free
//! "what did the crawler see" debugging).

use crate::dom::{Document, NodeId, NodeKind};

/// Serializes the whole document.
pub fn serialize(doc: &Document) -> String {
    let mut out = String::new();
    for &child in &doc.node(doc.root()).children {
        write_node(doc, child, &mut out);
    }
    out
}

fn escape_text(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn escape_attr(value: &str) -> String {
    escape_text(value).replace('"', "&quot;")
}

fn write_node(doc: &Document, id: NodeId, out: &mut String) {
    match &doc.node(id).kind {
        NodeKind::Root => {
            for &child in &doc.node(id).children {
                write_node(doc, child, out);
            }
        }
        NodeKind::Text(t) => out.push_str(&escape_text(t)),
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
        NodeKind::Element(e) => {
            out.push('<');
            out.push_str(&e.tag);
            for (name, value) in &e.attributes {
                out.push(' ');
                out.push_str(name);
                out.push_str("=\"");
                out.push_str(&escape_attr(value));
                out.push('"');
            }
            out.push('>');
            let children = &doc.node(id).children;
            if !children.is_empty() || !is_void(&e.tag) {
                for &child in children {
                    write_node(doc, child, out);
                }
                out.push_str("</");
                out.push_str(&e.tag);
                out.push('>');
            }
        }
    }
}

fn is_void(tag: &str) -> bool {
    matches!(
        tag,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_preserves_structure() {
        let src = r#"<div id="x"><p>a &amp; b</p><img src="p.gif"></div>"#;
        let doc = parse(src);
        let out = serialize(&doc);
        // Reparse: same structure.
        let doc2 = parse(&out);
        assert_eq!(
            crate::query::by_tag(&doc2, "p").len(),
            crate::query::by_tag(&doc, "p").len()
        );
        assert!(out.contains("a &amp; b"));
        assert!(out.contains(r#"<img src="p.gif">"#));
    }

    #[test]
    fn attribute_values_are_escaped() {
        let doc = parse(r#"<a href='x?a=1&amp;b="q"'>l</a>"#);
        let out = serialize(&doc);
        assert!(out.contains("&quot;"), "{out}");
        assert!(parse(&out).len() == doc.len());
    }
}
