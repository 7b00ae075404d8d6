//! WebExplor's state abstraction: exact URL + HTML-tag-sequence matching.

use crate::framework::qcrawler::StateAbstraction;
use mak_browser::page::Page;
use mak_intern::FastHashMap;
use mak_websim::dom::{DocShared, Tag};
use std::fmt::Write;
use std::sync::Arc;

/// Fraction of positional tag mismatches (and length difference) tolerated
/// by the pattern-matching similarity before a new state is created.
const TAG_TOLERANCE: f64 = 0.10;

#[derive(Debug)]
struct StateEntry {
    /// The page derivations (tag sequence lives here). Holding the `Arc`
    /// instead of a cloned `Vec<Tag>` makes revisits of a cached page a
    /// pointer comparison.
    shared: Arc<DocShared>,
}

/// WebExplor's pre-processing + similarity functions (§III-A):
///
/// 1. pre-process a page into (URL, tag sequence);
/// 2. exact-match the URL against known states — a *new* URL is always a
///    new state (this is what explodes on HotCRP-style alias links);
/// 3. among states with the same URL, compare tag sequences with a
///    tolerant pattern match; if none is close enough, create a new state
///    anyway.
#[derive(Debug, Default)]
pub struct WebExplorState {
    entries: Vec<StateEntry>,
    by_url: FastHashMap<String, Vec<usize>>,
    /// Reusable key buffer: the exact (non-normalized) URL string is
    /// rebuilt here each lookup, so the hit path allocates nothing.
    url_key: String,
}

impl WebExplorState {
    /// Creates an empty state store.
    pub fn new() -> Self {
        Self::default()
    }

    fn similar(a: &[Tag], b: &[Tag]) -> bool {
        let (la, lb) = (a.len(), b.len());
        let max = la.max(lb);
        if max == 0 {
            return true;
        }
        if (la as f64 - lb as f64).abs() / max as f64 > TAG_TOLERANCE {
            return false;
        }
        let min = la.min(lb);
        let mismatches = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count() + (max - min);
        (mismatches as f64 / max as f64) <= TAG_TOLERANCE
    }
}

impl StateAbstraction for WebExplorState {
    fn state_of(&mut self, page: &Page) -> u64 {
        self.url_key.clear();
        write!(self.url_key, "{}", page.url()).expect("writing to a String cannot fail");
        let shared = page.shared();

        if let Some(candidates) = self.by_url.get(self.url_key.as_str()) {
            for &idx in candidates {
                let entry = &self.entries[idx];
                // Pointer-equal derivations are trivially similar (identical
                // tag sequences), so revisits of a cached page skip the
                // positional comparison entirely.
                if Arc::ptr_eq(&entry.shared, shared)
                    || Self::similar(entry.shared.tags(), shared.tags())
                {
                    return idx as u64;
                }
            }
        }
        let idx = self.entries.len();
        self.entries.push(StateEntry { shared: Arc::clone(shared) });
        self.by_url.entry(self.url_key.clone()).or_default().push(idx);
        idx as u64
    }

    fn state_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak_websim::dom::{Document, Element, Tag};
    use mak_websim::http::Status;

    fn page(url: &str, extra_divs: usize) -> Page {
        let mut body = Element::new(Tag::Body);
        for _ in 0..extra_divs {
            body = body.child(Element::new(Tag::Div));
        }
        Page::from_document(Status::Ok, Document::new(url.parse().unwrap(), "t", body))
    }

    #[test]
    fn same_url_same_tags_is_one_state() {
        let mut s = WebExplorState::new();
        let a = s.state_of(&page("http://h/p", 3));
        let b = s.state_of(&page("http://h/p", 3));
        assert_eq!(a, b);
        assert_eq!(s.state_count(), 1);
    }

    #[test]
    fn new_url_is_always_a_new_state() {
        // The Fig. 1 (top) failure: two alias URLs of the same page.
        let mut s = WebExplorState::new();
        let a = s.state_of(&page("http://h/review?p=8&r=23-8", 3));
        let b = s.state_of(&page("http://h/review?p=8&m=re", 3));
        assert_ne!(a, b, "exact URL matching duplicates states for aliases");
        assert_eq!(s.state_count(), 2);
    }

    #[test]
    fn small_tag_drift_is_tolerated() {
        let mut s = WebExplorState::new();
        let a = s.state_of(&page("http://h/p", 40));
        let b = s.state_of(&page("http://h/p", 42)); // ~5% longer
        assert_eq!(a, b, "pattern matching tolerates small differences");
    }

    #[test]
    fn large_tag_drift_creates_a_new_state() {
        let mut s = WebExplorState::new();
        let a = s.state_of(&page("http://h/p", 10));
        let b = s.state_of(&page("http://h/p", 30));
        assert_ne!(a, b);
    }

    #[test]
    fn bodyless_pages_are_states_too() {
        let mut s = WebExplorState::new();
        let p = Page::empty(Status::NotFound, "http://h/missing".parse().unwrap());
        let a = s.state_of(&p);
        let b = s.state_of(&p);
        assert_eq!(a, b);
        assert_eq!(s.state_count(), 1);
    }
}
