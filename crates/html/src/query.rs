//! DOM query helpers: the selector-ish operations the crawlers need.

use crate::dom::{Document, NodeId};

/// All elements with tag `tag` in pre-order.
pub fn by_tag(doc: &Document, tag: &str) -> Vec<NodeId> {
    doc.descendants()
        .filter(|&id| doc.element(id).is_some_and(|e| e.tag == tag))
        .collect()
}

/// All `(element, href)` anchor pairs.
pub fn links(doc: &Document) -> Vec<(NodeId, String)> {
    by_tag(doc, "a")
        .into_iter()
        .filter_map(|id| {
            doc.element(id)
                .and_then(|e| e.attr("href"))
                .map(|href| (id, href.to_string()))
        })
        .collect()
}

/// Subresource references a browser would fetch from this document:
/// `(tag, url attribute value)` for scripts, images, iframes and stylesheets.
pub fn subresources(doc: &Document) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for id in doc.descendants() {
        let Some(e) = doc.element(id) else { continue };
        match e.tag.as_str() {
            "script" | "img" | "iframe" => {
                if let Some(src) = e.attr("src") {
                    if !src.is_empty() {
                        out.push((e.tag.clone(), src.to_string()));
                    }
                }
            }
            "link" => {
                let is_css = e
                    .attr("rel")
                    .is_some_and(|r| r.eq_ignore_ascii_case("stylesheet"));
                if is_css {
                    if let Some(href) = e.attr("href") {
                        if !href.is_empty() {
                            out.push(("link".to_string(), href.to_string()));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Inline script bodies (`<script>` without `src`).
pub fn inline_scripts(doc: &Document) -> Vec<String> {
    by_tag(doc, "script")
        .into_iter()
        .filter(|&id| doc.element(id).is_some_and(|e| e.attr("src").is_none()))
        .map(|id| doc.text_content(id))
        .filter(|body| !body.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const PAGE: &str = r#"
      <html><head>
        <link rel="stylesheet" href="/main.css">
        <script src="https://t.exoclick.com/tag.js"></script>
        <script>host.cookie_set('u','1')</script>
      </head><body>
        <div id="overlay" class="modal warn">
          <p>You must be 18 to <a href="/enter">Enter</a></p>
        </div>
        <img src="/pixel.gif">
        <iframe src="https://ads.net/frame"></iframe>
        <a href="/privacy-policy">Privacy Policy</a>
      </body></html>"#;

    #[test]
    fn tag_queries() {
        let doc = parse(PAGE);
        assert_eq!(by_tag(&doc, "script").len(), 2);
    }

    #[test]
    fn links_and_subresources() {
        let doc = parse(PAGE);
        let ls = links(&doc);
        assert_eq!(ls.len(), 2);
        assert!(ls.iter().any(|(_, h)| h == "/privacy-policy"));

        let subs = subresources(&doc);
        let urls: Vec<&str> = subs.iter().map(|(_, u)| u.as_str()).collect();
        assert!(urls.contains(&"https://t.exoclick.com/tag.js"));
        assert!(urls.contains(&"/pixel.gif"));
        assert!(urls.contains(&"https://ads.net/frame"));
        assert!(urls.contains(&"/main.css"));
        assert_eq!(subs.len(), 4, "inline script has no src: {subs:?}");
    }

    #[test]
    fn inline_script_bodies() {
        let doc = parse(PAGE);
        let inline = inline_scripts(&doc);
        assert_eq!(inline.len(), 1);
        assert!(inline[0].contains("cookie_set"));
    }
}
