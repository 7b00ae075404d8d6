//! The crawler-visible snapshot of a fetched page.

use mak_websim::dom::{DocShared, Document, Interactable};
use mak_websim::http::Status;
use mak_websim::url::Url;
use std::sync::Arc;

/// A fetched page: final URL (after redirects), status, and extracted
/// interactable elements.
///
/// The interactables (and the tag sequence WebExplor consumes) live in an
/// `Arc<DocShared>`: documents served from a render cache carry a
/// precomputed one, so snapshotting such a page costs no tree walk and no
/// per-element clone.
#[derive(Debug, Clone)]
pub struct Page {
    url: Url,
    status: Status,
    title: String,
    document: Option<Document>,
    shared: Arc<DocShared>,
}

impl Page {
    /// Builds a page snapshot from a served document.
    pub fn from_document(status: Status, doc: Document) -> Self {
        let shared = doc.shared_cache();
        Page {
            url: doc.url().clone(),
            status,
            title: doc.title().to_owned(),
            document: Some(doc),
            shared,
        }
    }

    /// Builds an empty-bodied page (e.g. a bare 404).
    pub fn empty(status: Status, url: Url) -> Self {
        Page {
            url,
            status,
            title: String::new(),
            document: None,
            shared: Arc::new(DocShared::empty()),
        }
    }

    /// The final URL the page was served from.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// The response status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// The page title (empty for body-less responses).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The underlying document, if the response had a body.
    pub fn document(&self) -> Option<&Document> {
        self.document.as_ref()
    }

    /// All interactable elements extracted from the page.
    pub fn interactables(&self) -> &[Interactable] {
        self.shared.interactables()
    }

    /// The shared derivations (interactables + tag sequence) backing this
    /// snapshot — state abstractions hold the `Arc` instead of re-deriving.
    pub fn shared(&self) -> &Arc<DocShared> {
        &self.shared
    }

    /// Interactable elements whose targets stay on `origin` — the valid
    /// action set under the paper's external-domain rule (§V-A ii).
    pub fn valid_interactables<'a>(
        &'a self,
        origin: &'a Url,
    ) -> impl Iterator<Item = &'a Interactable> {
        self.shared.interactables().iter().filter(move |i| i.target_url().same_origin(origin))
    }

    /// Whether the page is a navigation error (non-2xx).
    pub fn is_error(&self) -> bool {
        !matches!(self.status, Status::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak_websim::dom::{Element, Tag};

    fn sample() -> Page {
        let url: Url = "http://h/p".parse().unwrap();
        let body = Element::new(Tag::Body)
            .child(Element::new(Tag::A).attr("href", "/internal").text("in"))
            .child(Element::new(Tag::A).attr("href", "http://evil.example/x").text("out"));
        Page::from_document(Status::Ok, Document::new(url, "sample", body))
    }

    #[test]
    fn extracts_interactables_once() {
        let p = sample();
        assert_eq!(p.interactables().len(), 2);
        assert_eq!(p.title(), "sample");
        assert!(!p.is_error());
    }

    #[test]
    fn valid_interactables_filter_external_domains() {
        let p = sample();
        let origin: Url = "http://h/".parse().unwrap();
        let valid: Vec<_> = p.valid_interactables(&origin).collect();
        assert_eq!(valid.len(), 1);
        assert_eq!(valid[0].target_url().path(), "/internal");
    }

    #[test]
    fn empty_page_has_no_elements() {
        let p = Page::empty(Status::NotFound, "http://h/missing".parse().unwrap());
        assert!(p.interactables().is_empty());
        assert!(p.is_error());
        assert!(p.document().is_none());
    }
}
