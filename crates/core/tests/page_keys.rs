//! Differential tests for the page keys memoized on a document's shared
//! derivations (`DocShared`) and for the link log that skips documents it
//! has already absorbed. Each memo is checked against the per-element
//! derivation it replaces, on every page a breadth-first walk reaches in
//! all eleven app models.

use mak::framework::linklog::LinkLog;
use mak_browser::client::Browser;
use mak_browser::clock::VirtualClock;
use mak_browser::page::Page;
use mak_intern::Interner;
use mak_websim::apps;
use mak_websim::dom::{Document, Element, Tag};
use mak_websim::http::Status;
use mak_websim::server::AppHost;
use mak_websim::url::Url;
use mak_websim::util::hash_str;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Interactions per app for the walk: enough to reach every page of the
/// smaller models and the static pages plus many widget renders of the
/// larger ones.
const WALK_LIMIT: usize = 400;

/// Breadth-first walk of `app`: opens the seed, then executes every
/// not-yet-executed valid element of each page reached, in order. Returns
/// every page fetched, revisits included.
fn walk(app: &str) -> (Vec<Page>, Url) {
    let host = AppHost::new(apps::build(app).unwrap());
    let mut browser = Browser::new(host, VirtualClock::with_budget_minutes(100_000.0), 1);
    let origin = browser.origin().clone();
    // Drupal's deployment serves transient errors; retry the seed past them.
    let seed = (0..10).find_map(|_| browser.open_seed().ok()).expect("seed page");
    let mut pages = vec![seed];
    let mut executed = BTreeSet::new();
    let mut queue = VecDeque::from([0]);
    'walk: while let Some(i) = queue.pop_front() {
        let page = pages[i].clone();
        for el in page.valid_interactables(&origin) {
            if pages.len() >= WALK_LIMIT {
                break 'walk;
            }
            if !executed.insert(el.signature()) {
                continue;
            }
            if let Ok(next) = browser.execute(el) {
                queue.push_back(pages.len());
                pages.push(next);
            }
        }
    }
    (pages, origin)
}

/// The page representation QExplore's state abstraction hashes, rebuilt
/// element by element: the reference for `DocShared::attribute_hash`.
fn reference_attribute_repr(page: &Page) -> String {
    let mut repr = String::new();
    for el in page.interactables() {
        el.write_attribute_values(&mut repr);
        repr.push('\n');
    }
    repr
}

fn assert_memo_matches(app: &str, page: &Page) {
    let shared = page.shared();
    let expected: Vec<u64> = page.interactables().iter().map(|el| el.signature_hash()).collect();
    assert_eq!(shared.signature_hashes(), expected.as_slice(), "{app} {}", page.url());
    assert_eq!(
        shared.attribute_hash(),
        hash_str(&reference_attribute_repr(page)),
        "{app} {}",
        page.url()
    );
}

#[test]
fn memoized_page_keys_match_per_element_derivations_on_every_app() {
    let mut cached_pages = 0;
    for app in apps::all_names() {
        let (pages, _) = walk(app);
        assert!(pages.len() > 10, "{app}: the walk reached only {} pages", pages.len());
        for page in &pages {
            cached_pages += usize::from(page.shared().is_cached());
            assert_memo_matches(app, page);
        }
    }
    assert!(cached_pages > 0, "the walks reached no render-cached page");
}

/// A link log that examines every element of every page: the reference
/// for `LinkLog`, which skips the elements of documents it has absorbed.
#[derive(Default)]
struct ReferenceLog {
    seen: Interner,
}

impl ReferenceLog {
    fn absorb(&mut self, page: &Page, origin: &Url) -> u64 {
        let mut new = 0;
        if page.url().same_origin(origin) && self.seen.try_intern(page.url().normalized()).1 {
            new += 1;
        }
        for el in page.valid_interactables(origin) {
            if self.seen.try_intern(el.target_url().normalized()).1 {
                new += 1;
            }
        }
        new
    }
}

/// Feeds `pages` through a skipping log and the reference, comparing every
/// increment. Returns how many absorbs skipped a known document.
fn compare_logs(pages: &[Page], origin: &Url) -> usize {
    let mut log = LinkLog::new();
    let mut reference = ReferenceLog::default();
    let mut skipped = 0;
    for (i, page) in pages.iter().enumerate() {
        let holders = Arc::strong_count(page.shared());
        let absorbed = log.absorb_page(page, origin);
        assert_eq!(absorbed.new_urls, reference.absorb(page, origin), "page #{i} {}", page.url());
        if !page.shared().is_cached() {
            // Per-request documents are never recorded, so the log keeps
            // no reference to them.
            assert_eq!(Arc::strong_count(page.shared()), holders, "page #{i} was recorded");
        }
        assert_eq!(log.len(), reference.seen.len(), "page #{i}");
        if absorbed.known_document {
            assert!(page.shared().is_cached(), "page #{i}: a per-request page was skipped");
            skipped += 1;
        }
    }
    let ordered: Vec<&str> = log.interner().ordered_strings().collect();
    let expected: Vec<&str> = reference.seen.ordered_strings().collect();
    assert_eq!(ordered, expected);
    skipped
}

fn links_body(hrefs: &[&str]) -> Element {
    let mut body = Element::new(Tag::Body);
    for href in hrefs {
        body = body.child(Element::new(Tag::A).attr("href", *href).text(*href));
    }
    body
}

#[test]
fn skipping_link_log_matches_a_log_that_examines_every_element() {
    let origin: Url = "http://h/".parse().unwrap();
    let url = |s: &str| -> Url { s.parse().unwrap() };
    let cached = |path: &str, hrefs: &[&str]| {
        Document::new(url(path), "t", links_body(hrefs)).with_shared_cache()
    };
    let served = |doc: &Document, at: &str| Page::from_document(Status::Ok, doc.reissue(url(at)));
    let fresh = |at: &str, hrefs: &[&str]| {
        Page::from_document(Status::Ok, Document::new(url(at), "t", links_body(hrefs)))
    };

    let home = cached("http://h/", &["/a", "/b?x=1&y=2", "http://evil.example/x"]);
    let list = cached("http://h/list", &["/a", "/c", "/b?y=2&x=1", "http://other.example/"]);
    let pages = vec![
        served(&home, "http://h/"),
        served(&list, "http://h/list"),
        // Revisits of cached documents under alias URLs, new and known.
        served(&home, "http://h/?alias=1"),
        served(&list, "http://h/list?alias=2"),
        served(&home, "http://h/"),
        // Per-request pages with the same content as a cached one, and one
        // with links nothing has offered yet.
        fresh("http://h/list", &["/a", "/c", "/b?y=2&x=1", "http://other.example/"]),
        fresh("http://h/list?alias=3", &["/a", "/d"]),
        // Body-less pages, on and off the origin.
        Page::empty(Status::NotFound, url("http://h/missing")),
        Page::empty(Status::NotFound, url("http://elsewhere.example/")),
        Page::empty(Status::NotFound, url("http://h/missing")),
        served(&list, "http://h/list?alias=4"),
        served(&home, "http://h/?alias=5"),
        fresh("http://h/list?alias=3", &["/a", "/d", "/e"]),
        served(&list, "http://h/list?alias=2"),
    ];
    assert!(compare_logs(&pages, &origin) > 0, "nothing was skipped");
}

#[test]
fn skipping_link_log_matches_the_reference_on_app_walks() {
    for app in ["hotcrp", "drupal", "phpbb2", "vanilla"] {
        let (pages, origin) = walk(app);
        // The walk's own order, then every page again in reverse: revisits
        // of cached documents under the URLs other pages reached them by.
        let sequence: Vec<Page> = pages.iter().chain(pages.iter().rev()).cloned().collect();
        let skipped = compare_logs(&sequence, &origin);
        assert!(skipped > 0, "{app}: no absorb skipped a known document");
    }
}
