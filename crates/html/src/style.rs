//! Inline-style parsing and "floating element" detection.
//!
//! The Selenium-style crawler detects consent banners and age gates by
//! looking for **floating elements** (§3.1): overlays positioned with
//! `position: fixed/absolute`, high `z-index`, or modal-ish class names.

use crate::dom::{Document, NodeId};

/// A parsed `style="..."` attribute: lowercase property → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InlineStyle {
    props: Vec<(String, String)>,
}

impl InlineStyle {
    /// Parses `property: value; property: value` declarations.
    pub fn parse(style: &str) -> InlineStyle {
        let props = style
            .split(';')
            .filter_map(|decl| {
                let (k, v) = decl.split_once(':')?;
                let k = k.trim().to_ascii_lowercase();
                let v = v.trim().to_string();
                if k.is_empty() || v.is_empty() {
                    None
                } else {
                    Some((k, v))
                }
            })
            .collect();
        InlineStyle { props }
    }

    /// Value of `property`, if declared.
    pub(crate) fn get(&self, property: &str) -> Option<&str> {
        self.props
            .iter()
            .rev() // later declarations win
            .find(|(k, _)| k == property)
            .map(|(_, v)| v.as_str())
    }

    /// Numeric `z-index`, when declared and parseable.
    fn z_index(&self) -> Option<i64> {
        self.get("z-index").and_then(|v| v.trim().parse().ok())
    }

    /// `true` for `position: fixed` or `position: absolute`.
    fn is_positioned_overlay(&self) -> bool {
        matches!(
            self.get("position").map(str::to_ascii_lowercase).as_deref(),
            Some("fixed") | Some("absolute")
        )
    }
}

/// Class-name fragments that advertise an overlay even without inline styles.
const OVERLAY_CLASS_HINTS: &[&str] = &["modal", "overlay", "popup", "banner", "notice", "consent"];

/// Returns `true` when element `id` *floats* above the page: positioned
/// overlay, large z-index, or overlay-ish class names.
fn is_floating(doc: &Document, id: NodeId) -> bool {
    let Some(e) = doc.element(id) else {
        return false;
    };
    if let Some(style) = e.attr("style") {
        let parsed = InlineStyle::parse(style);
        if parsed.is_positioned_overlay() || parsed.z_index().is_some_and(|z| z >= 100) {
            return true;
        }
    }
    e.classes().any(|c| {
        let lc = c.to_ascii_lowercase();
        OVERLAY_CLASS_HINTS.iter().any(|hint| lc.contains(hint))
    })
}

/// All floating elements of a document, pre-order.
pub fn floating_elements(doc: &Document) -> Vec<NodeId> {
    doc.descendants()
        .filter(|&id| is_floating(doc, id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn parses_declarations() {
        let s = InlineStyle::parse("position: Fixed; z-index: 9999; top:0");
        assert_eq!(s.get("position"), Some("Fixed"));
        assert_eq!(s.z_index(), Some(9999));
        assert!(s.is_positioned_overlay());
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn later_declarations_win() {
        let s = InlineStyle::parse("position: static; position: fixed");
        assert!(s.is_positioned_overlay());
    }

    #[test]
    fn malformed_declarations_are_skipped() {
        let s = InlineStyle::parse(";;;nonsense;;:empty;x:");
        assert_eq!(s.get("x"), None);
        assert!(!s.is_positioned_overlay());
    }

    #[test]
    fn floating_detection_by_style_and_class() {
        let doc = parse(
            r#"<div id="a" style="position:fixed">gate</div>
               <div id="b" class="cookie-banner-wrap">notice</div>
               <div id="c" style="z-index: 5000">high</div>
               <div id="d">plain content</div>"#,
        );
        let float_ids: Vec<String> = floating_elements(&doc)
            .iter()
            .filter_map(|&id| {
                doc.element(id)
                    .and_then(|e| e.attr("id"))
                    .map(str::to_string)
            })
            .collect();
        assert_eq!(float_ids, vec!["a", "b", "c"]);
    }

    #[test]
    fn low_z_index_is_not_floating() {
        let doc = parse(r#"<div id="x" style="z-index: 2">x</div>"#);
        assert!(floating_elements(&doc).is_empty());
    }
}
