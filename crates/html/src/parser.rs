//! Tree construction: token stream → [`Document`].
//!
//! Implements a lenient subset of the HTML5 tree-building rules: void
//! elements never take children, mis-nested close tags pop to the nearest
//! matching open element, and unknown close tags are ignored — enough to
//! build a faithful DOM for real-world-shaped landing pages.

use crate::dom::{Document, ElementData, NodeId, NodeKind};
use crate::tokenizer::{tokenize, Token};

/// Elements that cannot have children (HTML void elements).
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

/// Parses `html` into a [`Document`]. Never fails: malformed input degrades
/// to a best-effort tree, exactly like a browser.
pub fn parse(html: &str) -> Document {
    let mut doc = Document::new();
    let mut stack: Vec<(NodeId, String)> = vec![(doc.root(), String::new())];

    for token in tokenize(html) {
        let current = stack.last().expect("stack never empties").0;
        match token {
            Token::StartTag {
                name,
                attributes,
                self_closing,
            } => {
                let id = doc.append(
                    current,
                    NodeKind::Element(ElementData {
                        tag: name.clone(),
                        attributes: attributes.into_iter().map(|a| (a.name, a.value)).collect(),
                    }),
                );
                if !self_closing && !is_void(&name) {
                    stack.push((id, name));
                }
            }
            Token::EndTag { name } => {
                // Pop to the nearest matching open element, if any.
                if let Some(pos) = stack.iter().rposition(|(_, n)| *n == name) {
                    if pos > 0 {
                        stack.truncate(pos);
                    }
                }
            }
            Token::Text(text) => {
                if !text.is_empty() {
                    doc.append(current, NodeKind::Text(text));
                }
            }
            Token::Comment(c) => {
                doc.append(current, NodeKind::Comment(c));
            }
            Token::Doctype(_) => {}
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;

    #[test]
    fn nested_structure() {
        let doc = parse("<html><body><div id='a'><p>text</p></div></body></html>");
        let div = query::by_tag(&doc, "div")[0];
        let e = doc.element(div).unwrap();
        assert_eq!(e.tag, "div");
        assert_eq!(doc.text_content(div), "text");
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse("<div><img src='a.gif'><p>after img</p></div>");
        let imgs = query::by_tag(&doc, "img");
        assert_eq!(imgs.len(), 1);
        assert!(doc.node(imgs[0]).children.is_empty());
        // <p> must be a sibling of <img>, i.e. child of <div>.
        let p = query::by_tag(&doc, "p")[0];
        let div = query::by_tag(&doc, "div")[0];
        assert_eq!(doc.parent(p), Some(div));
    }

    #[test]
    fn misnested_close_tags_recover() {
        let doc = parse("<b><i>text</b></i><p>after</p>");
        assert_eq!(query::by_tag(&doc, "p").len(), 1);
    }

    #[test]
    fn unknown_close_tag_is_ignored() {
        let doc = parse("<div>a</span>b</div>");
        let div = query::by_tag(&doc, "div")[0];
        assert_eq!(doc.text_content(div), "a b");
    }

    #[test]
    fn script_bodies_survive_verbatim() {
        let doc =
            parse("<script src='t.js'></script><script>canvas.fillText('x<y', 0, 0)</script>");
        let scripts = query::by_tag(&doc, "script");
        assert_eq!(scripts.len(), 2);
        assert_eq!(doc.element(scripts[0]).unwrap().attr("src"), Some("t.js"));
        assert!(doc.text_content(scripts[1]).contains("x<y"));
    }

    #[test]
    fn empty_and_garbage_inputs() {
        assert!(parse("").is_empty());
        let doc = parse("<<<>>>");
        assert!(!doc.is_empty());
    }
}
