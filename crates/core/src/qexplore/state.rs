//! QExplore's state abstraction: hashed interactable attribute values.

use crate::framework::qcrawler::StateAbstraction;
use mak_browser::page::Page;
use mak_intern::FastHashMap;

/// QExplore abstracts a page into "a sequence of attribute values of the
/// interactable elements of the page", then compares "the hash of the
/// string representations of the resulting states" (§III-A). Equal hashes
/// are the same state; any change in the element list — including a single
/// appended broken link — is a brand-new state, which is the unbounded
/// state-explosion failure of Fig. 1 (bottom).
///
/// The hash of a page's representation is a property of its document
/// ([`DocShared::attribute_hash`](mak_websim::dom::DocShared::attribute_hash)),
/// derived once per document rather than on every step.
#[derive(Debug, Default)]
pub struct QExploreState {
    by_hash: FastHashMap<u64, u64>,
}

impl QExploreState {
    /// Creates an empty state store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateAbstraction for QExploreState {
    fn state_of(&mut self, page: &Page) -> u64 {
        let hash = page.shared().attribute_hash();
        let next_id = self.by_hash.len() as u64;
        *self.by_hash.entry(hash).or_insert(next_id)
    }

    fn state_count(&self) -> usize {
        self.by_hash.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak_websim::dom::{Document, Element, Tag};
    use mak_websim::http::Status;

    fn page(url: &str, hrefs: &[&str]) -> Page {
        let mut body = Element::new(Tag::Body);
        for h in hrefs {
            body = body.child(Element::new(Tag::A).attr("href", (*h).to_owned()).text(*h));
        }
        Page::from_document(Status::Ok, Document::new(url.parse().unwrap(), "t", body))
    }

    #[test]
    fn same_elements_same_state_even_across_urls() {
        // Unlike WebExplor, QExplore ignores the URL: two alias URLs with
        // identical element lists collapse into one state.
        let mut s = QExploreState::new();
        let a = s.state_of(&page("http://h/p?r=23-8", &["/x", "/y"]));
        let b = s.state_of(&page("http://h/p?m=re", &["/x", "/y"]));
        assert_eq!(a, b);
        assert_eq!(s.state_count(), 1);
    }

    #[test]
    fn appended_element_is_a_new_state() {
        let mut s = QExploreState::new();
        let a = s.state_of(&page("http://h/p", &["/x"]));
        let b = s.state_of(&page("http://h/p", &["/x", "/shortcut/a1"]));
        let c = s.state_of(&page("http://h/p", &["/x", "/shortcut/a2"]));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(s.state_count(), 3, "unbounded growth under mutation");
    }

    #[test]
    fn element_order_matters() {
        let mut s = QExploreState::new();
        let a = s.state_of(&page("http://h/p", &["/x", "/y"]));
        let b = s.state_of(&page("http://h/p", &["/y", "/x"]));
        assert_ne!(a, b);
    }

    #[test]
    fn empty_pages_share_one_state() {
        let mut s = QExploreState::new();
        let a = s.state_of(&Page::empty(Status::NotFound, "http://h/a".parse().unwrap()));
        let b = s.state_of(&Page::empty(Status::NotFound, "http://h/b".parse().unwrap()));
        assert_eq!(a, b);
    }
}
