//! Arena-based DOM.
//!
//! Nodes live in a flat `Vec` inside [`Document`]; [`NodeId`] indexes into
//! it. This keeps the tree cheap to build and trivially serializable, and
//! gives the crawler the parent/child navigation the paper's banner
//! verification needs ("inspect the text of the parent and grandparent
//! elements", §3.1).

/// Index of a node within its [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// Element payload: tag name and attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementData {
    /// Tag.
    pub tag: String,
    /// Attributes.
    pub attributes: Vec<(String, String)>,
}

impl ElementData {
    /// First value of attribute `name` (names are stored lowercase).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whitespace-separated classes.
    pub(crate) fn classes(&self) -> impl Iterator<Item = &str> {
        self.attr("class").unwrap_or("").split_whitespace()
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The synthetic document root.
    Root,
    /// Element.
    Element(ElementData),
    /// Text.
    Text(String),
    /// Comment.
    Comment(String),
}

/// One DOM node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Kind.
    pub kind: NodeKind,
    /// Parent.
    pub parent: Option<NodeId>,
    /// Children.
    pub children: Vec<NodeId>,
}

/// A parsed HTML document.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Document {
    /// A document containing only the root node.
    pub(crate) fn new() -> Self {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Root,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrows a node.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Appends a new node under `parent` and returns its id.
    pub(crate) fn append(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Total node count (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Parent of `id`.
    pub(crate) fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0 as usize].parent
    }

    /// Pre-order traversal of the whole tree (excluding the root).
    pub fn descendants(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Arena insertion order *is* pre-order for a parser-built tree, but
        // walk explicitly so manually-built trees behave too.
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<NodeId> = self.nodes[0].children.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            order.push(id);
            stack.extend(self.nodes[id.0 as usize].children.iter().rev());
        }
        order.into_iter()
    }

    /// Pre-order traversal of the subtree rooted at `id` (inclusive).
    pub fn subtree(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut order = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            order.push(n);
            stack.extend(self.nodes[n.0 as usize].children.iter().rev());
        }
        order.into_iter()
    }

    /// The element data of `id`, when it is an element.
    pub fn element(&self, id: NodeId) -> Option<&ElementData> {
        match &self.nodes[id.0 as usize].kind {
            NodeKind::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Concatenated text content of the subtree at `id`, whitespace-joined.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.subtree(id) {
            if let NodeKind::Text(t) = &self.nodes[n.0 as usize].kind {
                let trimmed = t.trim();
                if !trimmed.is_empty() {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(trimmed);
                }
            }
        }
        out
    }

    /// Ancestor chain of `id`, nearest first, excluding the root.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == self.root() {
                break;
            }
            out.push(p);
            cur = self.parent(p);
        }
        out
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(tag: &str) -> NodeKind {
        NodeKind::Element(ElementData {
            tag: tag.into(),
            attributes: vec![],
        })
    }

    #[test]
    fn build_and_navigate() {
        let mut doc = Document::new();
        let html = doc.append(doc.root(), elem("html"));
        let body = doc.append(html, elem("body"));
        let p = doc.append(body, elem("p"));
        let t = doc.append(p, NodeKind::Text("hello".into()));
        assert_eq!(doc.parent(t), Some(p));
        assert_eq!(doc.ancestors(t), vec![p, body, html]);
        assert_eq!(doc.len(), 5);
    }

    #[test]
    fn text_content_joins_subtree() {
        let mut doc = Document::new();
        let div = doc.append(doc.root(), elem("div"));
        doc.append(div, NodeKind::Text("  We use ".into()));
        let b = doc.append(div, elem("b"));
        doc.append(b, NodeKind::Text("cookies".into()));
        doc.append(div, NodeKind::Text(" ok?  ".into()));
        assert_eq!(doc.text_content(div), "We use cookies ok?");
    }

    #[test]
    fn descendants_is_preorder() {
        let mut doc = Document::new();
        let a = doc.append(doc.root(), elem("a"));
        let b = doc.append(a, elem("b"));
        let c = doc.append(a, elem("c"));
        let d = doc.append(b, elem("d"));
        let order: Vec<NodeId> = doc.descendants().collect();
        assert_eq!(order, vec![a, b, d, c]);
    }

    #[test]
    fn element_attr_helpers() {
        let e = ElementData {
            tag: "div".into(),
            attributes: vec![
                ("id".into(), "banner".into()),
                ("class".into(), "fixed cookie-notice".into()),
            ],
        };
        assert_eq!(e.attr("id"), Some("banner"));
        assert_eq!(e.attr("missing"), None);
    }
}
