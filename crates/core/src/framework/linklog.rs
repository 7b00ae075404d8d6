//! Link-coverage accounting.
//!
//! §IV-C: *"Link coverage is determined by the number of different links
//! gathered during the exploration of the web application and it is
//! positively correlated with code coverage."* The [`LinkLog`] records
//! every distinct same-origin URL a crawl observes — visited page URLs and
//! the targets of extracted elements — and reports the per-step increment
//! MAK's reward standardizes.

use mak_browser::page::Page;
use mak_intern::{FastHashMap, Interner};
use mak_websim::dom::DocShared;
use mak_websim::url::Url;
use std::sync::Arc;

/// The set of distinct URLs gathered during one crawl.
///
/// Backed by an [`Interner`]: probing with an already-seen URL allocates
/// nothing, and each distinct normalized URL is stored exactly once.
///
/// The log also remembers which render-cached documents it has absorbed
/// ([`DocShared::is_cached`]). Their element targets are all in `seen`
/// already, and `seen` only grows, so absorbing one again examines only
/// the page URL. The record is a cache, not crawl state: it is not
/// checkpointed, and a restored log examines each document once more.
#[derive(Debug, Default)]
pub struct LinkLog {
    seen: Interner,
    /// Absorbed render-cached documents, keyed by address. Holding the
    /// `Arc` keeps the address from being reused by another document.
    documents: FastHashMap<usize, Arc<DocShared>>,
}

/// What [`LinkLog::absorb_page`] learned from one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Absorbed {
    /// URLs seen for the first time: the raw link-coverage increment `r_t`
    /// of §IV-C.
    pub new_urls: u64,
    /// Whether the page's document had been absorbed before, so its
    /// elements were skipped: every one of them was examined then.
    pub known_document: bool,
}

impl LinkLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one URL; returns `true` if it was new.
    pub fn record(&mut self, url: &Url) -> bool {
        self.seen.try_intern(url.normalized()).1
    }

    /// Absorbs a fetched page: its own URL plus every same-origin element
    /// target, counting the *new* URLs. `origin` must be the same on every
    /// call, as it is within one crawl.
    pub fn absorb_page(&mut self, page: &Page, origin: &Url) -> Absorbed {
        let mut new_urls = 0;
        if page.url().same_origin(origin) && self.record(page.url()) {
            new_urls += 1;
        }
        let shared = page.shared();
        let key = Arc::as_ptr(shared) as usize;
        if shared.is_cached() && self.documents.contains_key(&key) {
            return Absorbed { new_urls, known_document: true };
        }
        for el in page.valid_interactables(origin) {
            if self.record(el.target_url()) {
                new_urls += 1;
            }
        }
        if shared.is_cached() {
            self.documents.insert(key, Arc::clone(shared));
        }
        Absorbed { new_urls, known_document: false }
    }

    /// Number of distinct URLs gathered so far.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been gathered yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// The URL interner (diagnostics: table size under `MAK_LOG=debug`).
    pub fn interner(&self) -> &Interner {
        &self.seen
    }
}

/// Checkpointing: the log serializes as its URLs in insertion order, which
/// [`Interner::from_ordered`] maps back to identical symbol ids.
impl serde::Serialize for LinkLog {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(
            self.seen.ordered_strings().map(|s| serde::Value::Str(s.to_owned())).collect(),
        )
    }
}

impl serde::Deserialize for LinkLog {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let items = match v {
            serde::Value::Array(items) => items,
            other => {
                return Err(serde::Error::custom(format!("expected LinkLog array, got {other:?}")))
            }
        };
        let mut urls = Vec::with_capacity(items.len());
        for item in items {
            match item {
                serde::Value::Str(s) => urls.push(s.as_str()),
                other => {
                    return Err(serde::Error::custom(format!(
                        "expected URL string in LinkLog, got {other:?}"
                    )))
                }
            }
        }
        Ok(LinkLog { seen: Interner::from_ordered(urls), documents: FastHashMap::default() })
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
            body = body.child(Element::new(Tag::A).attr("href", (*h).to_owned()));
        }
        Page::from_document(Status::Ok, Document::new(url.parse().unwrap(), "t", body))
    }

    #[test]
    fn counts_new_urls_only_once() {
        let origin: Url = "http://h/".parse().unwrap();
        let mut log = LinkLog::new();
        let p = page("http://h/a", &["/b", "/c"]);
        assert_eq!(log.absorb_page(&p, &origin).new_urls, 3);
        assert_eq!(log.absorb_page(&p, &origin).new_urls, 0, "revisit adds nothing");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn ignores_external_targets() {
        let origin: Url = "http://h/".parse().unwrap();
        let mut log = LinkLog::new();
        let p = page("http://h/a", &["http://evil.example/x", "/b"]);
        assert_eq!(log.absorb_page(&p, &origin).new_urls, 2, "page URL + /b only");
    }

    #[test]
    fn normalization_collapses_query_order() {
        let origin: Url = "http://h/".parse().unwrap();
        let mut log = LinkLog::new();
        let p1 = page("http://h/a", &["/x?a=1&b=2"]);
        let p2 = page("http://h/c", &["/x?b=2&a=1"]);
        assert_eq!(log.absorb_page(&p1, &origin).new_urls, 2);
        assert_eq!(log.absorb_page(&p2, &origin).new_urls, 1, "same link in another order");
        assert!(!log.is_empty());
    }
}
