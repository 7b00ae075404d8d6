//! A simplified Document Object Model.
//!
//! The crawlers in the paper only observe the DOM of each page (§II-B). The
//! pieces they actually consume are:
//!
//! - the sequence of HTML tags of the page (WebExplor's state abstraction),
//! - the attribute values of *interactable* elements (QExplore's state
//!   abstraction),
//! - the visible links, buttons and forms (all crawlers' action sets).
//!
//! This module models exactly those observables with a real element tree, so
//! the abstractions can be computed the way the original tools compute them.

use crate::url::Url;
use std::fmt;
use std::sync::OnceLock;

/// HTML tag names used by the simulated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Tag {
    Html,
    Head,
    Title,
    Body,
    Div,
    Span,
    P,
    H1,
    H2,
    Ul,
    Li,
    Table,
    Tr,
    Td,
    A,
    Form,
    Input,
    Select,
    Option,
    Textarea,
    Button,
    Img,
    Nav,
    Footer,
}

impl Tag {
    /// The lowercase HTML name of the tag.
    pub fn name(self) -> &'static str {
        match self {
            Tag::Html => "html",
            Tag::Head => "head",
            Tag::Title => "title",
            Tag::Body => "body",
            Tag::Div => "div",
            Tag::Span => "span",
            Tag::P => "p",
            Tag::H1 => "h1",
            Tag::H2 => "h2",
            Tag::Ul => "ul",
            Tag::Li => "li",
            Tag::Table => "table",
            Tag::Tr => "tr",
            Tag::Td => "td",
            Tag::A => "a",
            Tag::Form => "form",
            Tag::Input => "input",
            Tag::Select => "select",
            Tag::Option => "option",
            Tag::Textarea => "textarea",
            Tag::Button => "button",
            Tag::Img => "img",
            Tag::Nav => "nav",
            Tag::Footer => "footer",
        }
    }
}

impl Tag {
    /// The inverse of [`Tag::name`], for checkpoint deserialization.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "html" => Tag::Html,
            "head" => Tag::Head,
            "title" => Tag::Title,
            "body" => Tag::Body,
            "div" => Tag::Div,
            "span" => Tag::Span,
            "p" => Tag::P,
            "h1" => Tag::H1,
            "h2" => Tag::H2,
            "ul" => Tag::Ul,
            "li" => Tag::Li,
            "table" => Tag::Table,
            "tr" => Tag::Tr,
            "td" => Tag::Td,
            "a" => Tag::A,
            "form" => Tag::Form,
            "input" => Tag::Input,
            "select" => Tag::Select,
            "option" => Tag::Option,
            "textarea" => Tag::Textarea,
            "button" => Tag::Button,
            "img" => Tag::Img,
            "nav" => Tag::Nav,
            "footer" => Tag::Footer,
            _ => return None,
        })
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl serde::Serialize for Tag {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_owned())
    }
}

impl serde::Deserialize for Tag {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) => {
                Tag::from_name(s).ok_or_else(|| serde::Error::custom("unknown tag name"))
            }
            _ => Err(serde::Error::custom("expected tag name string")),
        }
    }
}

/// A node of the simplified DOM tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    tag: Tag,
    attrs: Vec<(String, String)>,
    text: String,
    visible: bool,
    children: Vec<Element>,
}

impl Element {
    /// Creates an element with the given tag and no attributes or children.
    pub fn new(tag: Tag) -> Self {
        Element { tag, attrs: Vec::new(), text: String::new(), visible: true, children: Vec::new() }
    }

    /// Sets an attribute, builder-style.
    #[must_use]
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Sets the text content, builder-style.
    #[must_use]
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Marks the element as hidden (e.g. `style="display:none"`). Hidden
    /// elements are not interactable per the paper's assumption (i) in §V-A.
    #[must_use]
    pub fn hidden(mut self) -> Self {
        self.visible = false;
        self
    }

    /// Appends a child, builder-style.
    #[must_use]
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// Appends children from an iterator, builder-style.
    #[must_use]
    pub fn children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children.extend(children);
        self
    }

    /// The element's tag.
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// The element's attributes, in document order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attrs
    }

    /// The value of attribute `key`, if present.
    pub fn attr_value(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The element's text content.
    pub fn text_content(&self) -> &str {
        &self.text
    }

    /// Whether the element is visible.
    pub fn is_visible(&self) -> bool {
        self.visible
    }

    /// The element's children.
    pub fn child_elements(&self) -> &[Element] {
        &self.children
    }

    fn collect_tags(&self, out: &mut Vec<Tag>) {
        out.push(self.tag);
        for c in &self.children {
            c.collect_tags(out);
        }
    }
}

/// The kind of form field, which determines how a crawler fills it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// Free-text input; crawlers fill it with a generated string.
    Text,
    /// Hidden input with a server-provided value that must be echoed back.
    Hidden(String),
    /// Selection among fixed options; crawlers pick one.
    Select(Vec<String>),
    /// Password input.
    Password,
}

/// A field of a [`FormSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormField {
    /// The `name` attribute submitted with the form.
    pub name: String,
    /// The kind of input.
    pub kind: FieldKind,
}

/// A parsed, submittable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormSpec {
    /// Absolute action URL the form submits to.
    pub action: Url,
    /// `GET` or `POST`.
    pub method: crate::http::Method,
    /// The fields of the form, in document order.
    pub fields: Vec<FormField>,
    /// The `name`/`id` attribute of the form element, used in element
    /// signatures.
    pub name: String,
}

/// An interactable element extracted from a page: a visible link, button or
/// form (§V-A assumption i).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interactable {
    /// An anchor with an `href`, resolved to an absolute URL.
    Link {
        /// Absolute target.
        href: Url,
        /// Anchor text.
        text: String,
    },
    /// A standalone button that POSTs to an endpoint.
    Button {
        /// The button's `name` attribute.
        name: String,
        /// Absolute endpoint receiving the click.
        target: Url,
    },
    /// A form with fillable fields.
    Form(FormSpec),
}

impl Interactable {
    /// A stable identity for global deduplication: two occurrences of "the
    /// same" element on different visits map to the same signature. Links use
    /// the normalized target, buttons and forms their name plus target.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.write_signature(&mut out);
        out
    }

    /// Appends [`signature`](Self::signature) to `out` — the reusable-buffer
    /// form hot paths use to probe dedup tables without allocating.
    pub fn write_signature(&self, out: &mut String) {
        match self {
            Interactable::Link { href, .. } => {
                out.push_str("link:");
                out.push_str(href.normalized());
            }
            Interactable::Button { name, target } => {
                out.push_str("button:");
                out.push_str(name);
                out.push('@');
                out.push_str(target.normalized());
            }
            Interactable::Form(form) => {
                out.push_str("form:");
                out.push_str(&form.name);
                out.push('@');
                out.push_str(form.action.normalized());
            }
        }
    }

    /// Streaming hash of the signature, bit-identical to
    /// `hash_str(&self.signature())` without materializing the string
    /// (verified by a unit test below — the action keys in recorded
    /// crawl artifacts depend on this equivalence).
    pub fn signature_hash(&self) -> u64 {
        use crate::util::{fnv_fold, mix64, FNV_OFFSET};
        let h = match self {
            Interactable::Link { href, .. } => {
                fnv_fold(fnv_fold(FNV_OFFSET, b"link:"), href.normalized().as_bytes())
            }
            Interactable::Button { name, target } => {
                let h = fnv_fold(FNV_OFFSET, b"button:");
                let h = fnv_fold(h, name.as_bytes());
                fnv_fold(fnv_fold(h, b"@"), target.normalized().as_bytes())
            }
            Interactable::Form(form) => {
                let h = fnv_fold(FNV_OFFSET, b"form:");
                let h = fnv_fold(h, form.name.as_bytes());
                fnv_fold(fnv_fold(h, b"@"), form.action.normalized().as_bytes())
            }
        };
        mix64(h)
    }

    /// The attribute-value string QExplore's state abstraction hashes
    /// (§III-A): the concatenated attribute values of the element.
    pub fn attribute_values(&self) -> String {
        let mut out = String::new();
        self.write_attribute_values(&mut out);
        out
    }

    /// Appends [`attribute_values`](Self::attribute_values) to `out` — the
    /// reusable-buffer form used when building per-page state strings.
    pub fn write_attribute_values(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Interactable::Link { href, text } => {
                let _ = write!(out, "{href} {text}");
            }
            Interactable::Button { name, target } => {
                let _ = write!(out, "{name} {target}");
            }
            Interactable::Form(form) => {
                let _ = write!(out, "{} {}", form.name, form.action);
                for f in &form.fields {
                    out.push(' ');
                    out.push_str(&f.name);
                }
            }
        }
    }

    /// The URL this interactable ultimately addresses.
    pub fn target_url(&self) -> &Url {
        match self {
            Interactable::Link { href, .. } => href,
            Interactable::Button { target, .. } => target,
            Interactable::Form(form) => &form.action,
        }
    }
}

// Checkpoint serialization for interactables. Encodings follow the
// externally-tagged convention the workspace derive uses: unit variants as
// bare strings, data variants as single-entry objects.

impl serde::Serialize for FieldKind {
    fn to_value(&self) -> serde::Value {
        match self {
            FieldKind::Text => serde::Value::Str("Text".to_owned()),
            FieldKind::Password => serde::Value::Str("Password".to_owned()),
            FieldKind::Hidden(v) => {
                serde::Value::Object(vec![("Hidden".to_owned(), serde::Value::Str(v.clone()))])
            }
            FieldKind::Select(opts) => {
                serde::Value::Object(vec![("Select".to_owned(), opts.to_value())])
            }
        }
    }
}

impl serde::Deserialize for FieldKind {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) if s == "Text" => Ok(FieldKind::Text),
            serde::Value::Str(s) if s == "Password" => Ok(FieldKind::Password),
            serde::Value::Object(entries) if entries.len() == 1 => {
                let (tag, inner) = &entries[0];
                match tag.as_str() {
                    "Hidden" => Ok(FieldKind::Hidden(String::from_value(inner)?)),
                    "Select" => Ok(FieldKind::Select(Vec::from_value(inner)?)),
                    _ => Err(serde::Error::custom("unknown FieldKind variant")),
                }
            }
            _ => Err(serde::Error::custom("malformed FieldKind")),
        }
    }
}

impl serde::Serialize for FormField {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_owned(), self.name.to_value()),
            ("kind".to_owned(), self.kind.to_value()),
        ])
    }
}

impl serde::Deserialize for FormField {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Object(entries) => Ok(FormField {
                name: serde::__field(entries, "name")?,
                kind: serde::__field(entries, "kind")?,
            }),
            _ => Err(serde::Error::custom("expected FormField object")),
        }
    }
}

impl serde::Serialize for FormSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("action".to_owned(), self.action.to_value()),
            ("method".to_owned(), self.method.to_value()),
            ("fields".to_owned(), self.fields.to_value()),
            ("name".to_owned(), self.name.to_value()),
        ])
    }
}

impl serde::Deserialize for FormSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Object(entries) => Ok(FormSpec {
                action: serde::__field(entries, "action")?,
                method: serde::__field(entries, "method")?,
                fields: serde::__field(entries, "fields")?,
                name: serde::__field(entries, "name")?,
            }),
            _ => Err(serde::Error::custom("expected FormSpec object")),
        }
    }
}

impl serde::Serialize for Interactable {
    fn to_value(&self) -> serde::Value {
        match self {
            Interactable::Link { href, text } => serde::Value::Object(vec![(
                "Link".to_owned(),
                serde::Value::Object(vec![
                    ("href".to_owned(), href.to_value()),
                    ("text".to_owned(), text.to_value()),
                ]),
            )]),
            Interactable::Button { name, target } => serde::Value::Object(vec![(
                "Button".to_owned(),
                serde::Value::Object(vec![
                    ("name".to_owned(), name.to_value()),
                    ("target".to_owned(), target.to_value()),
                ]),
            )]),
            Interactable::Form(form) => {
                serde::Value::Object(vec![("Form".to_owned(), form.to_value())])
            }
        }
    }
}

impl serde::Deserialize for Interactable {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(entries) = value else {
            return Err(serde::Error::custom("expected Interactable object"));
        };
        if entries.len() != 1 {
            return Err(serde::Error::custom("expected single-variant Interactable"));
        }
        let (tag, inner) = &entries[0];
        match tag.as_str() {
            "Link" => match inner {
                serde::Value::Object(fields) => Ok(Interactable::Link {
                    href: serde::__field(fields, "href")?,
                    text: serde::__field(fields, "text")?,
                }),
                _ => Err(serde::Error::custom("malformed Link")),
            },
            "Button" => match inner {
                serde::Value::Object(fields) => Ok(Interactable::Button {
                    name: serde::__field(fields, "name")?,
                    target: serde::__field(fields, "target")?,
                }),
                _ => Err(serde::Error::custom("malformed Button")),
            },
            "Form" => Ok(Interactable::Form(FormSpec::from_value(inner)?)),
            _ => Err(serde::Error::custom("unknown Interactable variant")),
        }
    }
}

/// Derivations of one DOM tree that every consumer of the page recomputes
/// otherwise: the extracted interactables and the pre-order tag sequence.
/// Shared (via `Arc`) between a cached document and every page served from
/// it, so re-serving a static page costs no tree walk.
///
/// The page keys crawlers derive from these — each interactable's
/// [`signature_hash`](Interactable::signature_hash) and QExplore's
/// [`attribute_hash`](Self::attribute_hash) — are memoized here on first
/// use, so every session served the same cached document derives them once
/// per process. Only pure functions of the interactables and tags belong
/// here; nothing that depends on crawl state (origin, visits, tables).
#[derive(Debug)]
pub struct DocShared {
    interactables: Vec<Interactable>,
    tags: Vec<Tag>,
    /// Whether this belongs to a render-cached document
    /// ([`Document::with_shared_cache`]) rather than to one page.
    cached: bool,
    signature_hashes: OnceLock<Box<[u64]>>,
    attribute_hash: OnceLock<u64>,
}

impl DocShared {
    fn new(interactables: Vec<Interactable>, tags: Vec<Tag>, cached: bool) -> Self {
        DocShared {
            interactables,
            tags,
            cached,
            signature_hashes: OnceLock::new(),
            attribute_hash: OnceLock::new(),
        }
    }

    /// The shared derivations of a body-less page: no elements, no tags.
    pub fn empty() -> Self {
        DocShared::new(Vec::new(), Vec::new(), false)
    }

    /// Rebuilds the derivations from checkpointed parts. Restored pages
    /// carry no DOM tree — only these derivations, which are the sole page
    /// observables the crawlers consume mid-run.
    pub fn from_parts(interactables: Vec<Interactable>, tags: Vec<Tag>) -> Self {
        DocShared::new(interactables, tags, false)
    }

    /// The extracted interactable elements, in document order.
    pub fn interactables(&self) -> &[Interactable] {
        &self.interactables
    }

    /// The pre-order tag sequence.
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Whether these derivations belong to a render-cached document, i.e.
    /// are shared by every page served from it. The same `Arc` coming back
    /// means the same elements; per-request documents are never reused.
    pub fn is_cached(&self) -> bool {
        self.cached
    }

    /// `interactables()[i].signature_hash()` for every `i`, computed once.
    pub fn signature_hashes(&self) -> &[u64] {
        self.signature_hashes
            .get_or_init(|| self.interactables.iter().map(Interactable::signature_hash).collect())
    }

    /// QExplore's state hash (§III-A), computed once: [`hash_str`] of the
    /// [attribute values](Interactable::attribute_values) of every
    /// interactable, each followed by a newline.
    ///
    /// [`hash_str`]: crate::util::hash_str
    pub fn attribute_hash(&self) -> u64 {
        *self.attribute_hash.get_or_init(|| {
            let mut repr = String::new();
            for el in &self.interactables {
                el.write_attribute_values(&mut repr);
                repr.push('\n');
            }
            crate::util::hash_str(&repr)
        })
    }
}

/// A rendered page: its URL, title and DOM tree.
///
/// The tree is held behind an `Arc` so a server can render a static page
/// once and re-serve it under per-request URLs ([`Document::reissue`])
/// without deep-cloning; the optional [`DocShared`] cache travels with it.
/// Equality, like `Debug` before this design, covers the semantic fields
/// (URL, title, tree) only — a cached and a freshly built document compare
/// equal.
#[derive(Debug, Clone)]
pub struct Document {
    url: Url,
    title: String,
    root: std::sync::Arc<Element>,
    shared: Option<std::sync::Arc<DocShared>>,
}

impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        self.url == other.url && self.title == other.title && self.root == other.root
    }
}

impl Eq for Document {}

impl Document {
    /// Wraps a `<body>` element into a full document for `url`.
    pub fn new(url: Url, title: impl Into<String>, body: Element) -> Self {
        let title = title.into();
        let root = Element::new(Tag::Html)
            .child(Element::new(Tag::Head).child(Element::new(Tag::Title).text(title.clone())))
            .child(body);
        Document { url, title, root: std::sync::Arc::new(root), shared: None }
    }

    /// Precomputes and attaches the [`DocShared`] derivations, so every
    /// [`reissue`](Self::reissue)d copy (and every page built from one)
    /// reuses them instead of re-walking the tree.
    #[must_use]
    pub fn with_shared_cache(mut self) -> Self {
        let shared = DocShared::new(self.interactables(), self.tag_sequence(), true);
        self.shared = Some(std::sync::Arc::new(shared));
        self
    }

    /// The attached or freshly computed [`DocShared`] derivations.
    pub fn shared_cache(&self) -> std::sync::Arc<DocShared> {
        match &self.shared {
            Some(s) => std::sync::Arc::clone(s),
            None => std::sync::Arc::new(DocShared::new(
                self.interactables(),
                self.tag_sequence(),
                false,
            )),
        }
    }

    /// Re-serves this document under a per-request URL, sharing the tree
    /// and any attached [`DocShared`] cache instead of deep-cloning.
    ///
    /// Only sound when link resolution does not depend on the document URL
    /// beyond its host — i.e. every `href`/`action`/`formaction` in the
    /// tree is absolute or path-absolute, and `url` stays on the same host
    /// and path as the original (query strings may differ, as with alias
    /// links). The blueprint renderer's static pages satisfy this by
    /// construction; the golden-report equivalence tests pin it down.
    #[must_use]
    pub fn reissue(&self, url: Url) -> Document {
        debug_assert_eq!(url.host(), self.url.host(), "reissue must stay on the original host");
        Document {
            url,
            title: self.title.clone(),
            root: std::sync::Arc::clone(&self.root),
            shared: self.shared.clone(),
        }
    }

    /// The URL the document was served from.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// The page title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The root `<html>` element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Pre-order sequence of all tags in the document — the page
    /// representation WebExplor's state abstraction uses (§III-A).
    pub fn tag_sequence(&self) -> Vec<Tag> {
        if let Some(shared) = &self.shared {
            return shared.tags.clone();
        }
        let mut out = Vec::new();
        self.root.collect_tags(&mut out);
        out
    }

    /// Serializes the document to HTML text — what would travel over the
    /// wire in a real deployment. Attribute values and text are escaped.
    pub fn to_html(&self) -> String {
        let mut out = String::from("<!DOCTYPE html>\n");
        fn walk(el: &Element, out: &mut String) {
            out.push('<');
            out.push_str(el.tag().name());
            for (k, v) in el.attrs() {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(&escape_html(v));
                out.push('"');
            }
            if !el.is_visible() {
                out.push_str(" style=\"display:none\"");
            }
            out.push('>');
            if !el.text_content().is_empty() {
                out.push_str(&escape_html(el.text_content()));
            }
            for c in el.child_elements() {
                walk(c, out);
            }
            out.push_str("</");
            out.push_str(el.tag().name());
            out.push('>');
        }
        walk(&self.root, &mut out);
        out
    }

    /// All text content of the document, concatenated in pre-order with
    /// single spaces — what a scanner searches for reflected payloads.
    pub fn text_content(&self) -> String {
        fn walk(el: &Element, out: &mut String) {
            if !el.text_content().is_empty() {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(el.text_content());
            }
            for c in el.child_elements() {
                walk(c, out);
            }
        }
        let mut out = String::new();
        walk(&self.root, &mut out);
        out
    }

    /// Extracts the visible interactable elements, resolving link targets
    /// against the document URL. Malformed or unresolvable `href`s are
    /// skipped (a real browser would render them as dead links).
    pub fn interactables(&self) -> Vec<Interactable> {
        let mut out = Vec::new();
        self.walk(&self.root, true, &mut out);
        out
    }

    fn walk(&self, el: &Element, visible: bool, out: &mut Vec<Interactable>) {
        let visible = visible && el.is_visible();
        match el.tag() {
            Tag::A if visible => {
                if let Some(href) = el.attr_value("href") {
                    if let Ok(url) = self.url.join(href) {
                        out.push(Interactable::Link {
                            href: url,
                            text: el.text_content().to_owned(),
                        });
                    }
                }
            }
            Tag::Button if visible => {
                if let Some(target) = el.attr_value("formaction") {
                    if let Ok(url) = self.url.join(target) {
                        out.push(Interactable::Button {
                            name: el.attr_value("name").unwrap_or("button").to_owned(),
                            target: url,
                        });
                    }
                }
            }
            Tag::Form if visible => {
                if let Some(form) = self.parse_form(el) {
                    out.push(Interactable::Form(form));
                }
                // Forms own their inputs; do not descend looking for more
                // interactables inside (nested anchors are not emitted by the
                // simulator's renderer).
                return;
            }
            _ => {}
        }
        for c in el.child_elements() {
            self.walk(c, visible, out);
        }
    }

    fn parse_form(&self, el: &Element) -> Option<FormSpec> {
        let action = el.attr_value("action")?;
        let action = self.url.join(action).ok()?;
        let method = match el.attr_value("method").unwrap_or("get") {
            m if m.eq_ignore_ascii_case("post") => crate::http::Method::Post,
            _ => crate::http::Method::Get,
        };
        let mut fields = Vec::new();
        collect_fields(el, &mut fields);
        Some(FormSpec {
            action,
            method,
            fields,
            name: el.attr_value("name").unwrap_or("form").to_owned(),
        })
    }
}

fn escape_html(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn collect_fields(el: &Element, out: &mut Vec<FormField>) {
    for c in el.child_elements() {
        match c.tag() {
            Tag::Input => {
                let name = c.attr_value("name").unwrap_or("input").to_owned();
                let kind = match c.attr_value("type").unwrap_or("text") {
                    "hidden" => FieldKind::Hidden(c.attr_value("value").unwrap_or("").to_owned()),
                    "password" => FieldKind::Password,
                    _ => FieldKind::Text,
                };
                out.push(FormField { name, kind });
            }
            Tag::Textarea => {
                let name = c.attr_value("name").unwrap_or("textarea").to_owned();
                out.push(FormField { name, kind: FieldKind::Text });
            }
            Tag::Select => {
                let name = c.attr_value("name").unwrap_or("select").to_owned();
                let options = c
                    .child_elements()
                    .iter()
                    .filter(|o| o.tag() == Tag::Option)
                    .map(|o| o.attr_value("value").unwrap_or(o.text_content()).to_owned())
                    .collect();
                out.push(FormField { name, kind: FieldKind::Select(options) });
            }
            _ => collect_fields(c, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: Element) -> Document {
        Document::new("http://h/page".parse().unwrap(), "t", body)
    }

    #[test]
    fn tag_sequence_is_preorder() {
        let d = doc(Element::new(Tag::Body)
            .child(Element::new(Tag::Div).child(Element::new(Tag::P)))
            .child(Element::new(Tag::Ul).child(Element::new(Tag::Li))));
        assert_eq!(
            d.tag_sequence(),
            vec![Tag::Html, Tag::Head, Tag::Title, Tag::Body, Tag::Div, Tag::P, Tag::Ul, Tag::Li]
        );
    }

    #[test]
    fn extracts_visible_links() {
        let d = doc(Element::new(Tag::Body)
            .child(Element::new(Tag::A).attr("href", "/x").text("x"))
            .child(Element::new(Tag::A).attr("href", "/y").hidden()));
        let items = d.interactables();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].target_url().path(), "/x");
    }

    #[test]
    fn hidden_parent_hides_children() {
        let d = doc(Element::new(Tag::Body)
            .child(Element::new(Tag::Div).hidden().child(Element::new(Tag::A).attr("href", "/x"))));
        assert!(d.interactables().is_empty());
    }

    #[test]
    fn link_without_href_is_skipped() {
        let d = doc(Element::new(Tag::Body).child(Element::new(Tag::A).text("anchor")));
        assert!(d.interactables().is_empty());
    }

    #[test]
    fn parses_form_with_fields() {
        let form = Element::new(Tag::Form)
            .attr("action", "/search")
            .attr("method", "get")
            .attr("name", "search")
            .child(Element::new(Tag::Input).attr("type", "text").attr("name", "q"))
            .child(
                Element::new(Tag::Input)
                    .attr("type", "hidden")
                    .attr("name", "tok")
                    .attr("value", "abc"),
            )
            .child(Element::new(Tag::Select).attr("name", "scope").children([
                Element::new(Tag::Option).attr("value", "all"),
                Element::new(Tag::Option).attr("value", "posts"),
            ]));
        let d = doc(Element::new(Tag::Body).child(form));
        let items = d.interactables();
        assert_eq!(items.len(), 1);
        let Interactable::Form(f) = &items[0] else { panic!("expected form") };
        assert_eq!(f.fields.len(), 3);
        assert_eq!(f.fields[1].kind, FieldKind::Hidden("abc".to_owned()));
        assert!(matches!(&f.fields[2].kind, FieldKind::Select(opts) if opts.len() == 2));
    }

    #[test]
    fn button_requires_formaction() {
        let d = doc(Element::new(Tag::Body)
            .child(Element::new(Tag::Button).attr("name", "buy").attr("formaction", "/buy"))
            .child(Element::new(Tag::Button).attr("name", "inert")));
        let items = d.interactables();
        assert_eq!(items.len(), 1);
        assert!(matches!(&items[0], Interactable::Button { name, .. } if name == "buy"));
    }

    #[test]
    fn signatures_dedup_query_order() {
        let a =
            Interactable::Link { href: "http://h/p?a=1&b=2".parse().unwrap(), text: String::new() };
        let b =
            Interactable::Link { href: "http://h/p?b=2&a=1".parse().unwrap(), text: String::new() };
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signatures_distinguish_param_values() {
        let a = Interactable::Link { href: "http://h/p?m=1".parse().unwrap(), text: String::new() };
        let b = Interactable::Link { href: "http://h/p?m=2".parse().unwrap(), text: String::new() };
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn to_html_escapes_and_nests() {
        let d = Document::new(
            "http://h/p".parse().unwrap(),
            "T<am>per",
            Element::new(Tag::Body)
                .child(Element::new(Tag::A).attr("href", "/x?a=1&b=2").text("click & go"))
                .child(Element::new(Tag::Div).hidden()),
        );
        let html = d.to_html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("href=\"/x?a=1&amp;b=2\""));
        assert!(html.contains("click &amp; go"));
        assert!(html.contains("T&lt;am&gt;per"));
        assert!(html.contains("style=\"display:none\""));
        assert!(html.ends_with("</html>"));
    }

    #[test]
    fn text_content_concatenates_preorder() {
        let d = Document::new(
            "http://h/p".parse().unwrap(),
            "title",
            Element::new(Tag::Body)
                .child(Element::new(Tag::H1).text("Results for zz1zz"))
                .child(Element::new(Tag::P).text("hello")),
        );
        let text = d.text_content();
        assert!(text.contains("Results for zz1zz"));
        assert!(text.contains("hello"));
        let title_pos = text.find("title").unwrap();
        let h1_pos = text.find("Results").unwrap();
        assert!(title_pos < h1_pos, "pre-order");
    }

    fn sample_interactables() -> Vec<Interactable> {
        vec![
            Interactable::Link {
                href: "http://h/p?b=2&a=1".parse().unwrap(),
                text: "anchor text".to_owned(),
            },
            Interactable::Button {
                name: "buy".to_owned(),
                target: "http://h/buy".parse().unwrap(),
            },
            Interactable::Form(FormSpec {
                action: "http://h/search?scope=all".parse().unwrap(),
                method: crate::http::Method::Post,
                fields: vec![
                    FormField { name: "q".to_owned(), kind: FieldKind::Text },
                    FormField { name: "tok".to_owned(), kind: FieldKind::Hidden("x".to_owned()) },
                ],
                name: "search".to_owned(),
            }),
        ]
    }

    #[test]
    fn signature_hash_matches_hash_of_signature_string() {
        for el in sample_interactables() {
            assert_eq!(
                el.signature_hash(),
                crate::util::hash_str(&el.signature()),
                "streaming hash diverged for {}",
                el.signature()
            );
        }
    }

    #[test]
    fn buffered_writers_match_allocating_forms() {
        for el in sample_interactables() {
            let mut sig = String::from("prefix-must-survive:");
            el.write_signature(&mut sig);
            assert_eq!(sig, format!("prefix-must-survive:{}", el.signature()));
            let mut attrs = String::new();
            el.write_attribute_values(&mut attrs);
            assert_eq!(attrs, el.attribute_values());
        }
    }

    #[test]
    fn reissued_document_shares_derivations_and_compares_equal() {
        let built = doc(Element::new(Tag::Body)
            .child(Element::new(Tag::A).attr("href", "http://h/x?m=1").text("x")))
        .with_shared_cache();
        let alias: Url = "http://h/page?alias=1".parse().unwrap();
        let reissued = built.reissue(alias.clone());
        assert_eq!(reissued.url(), &alias);
        assert_eq!(reissued.title(), built.title());
        // The shared cache travels, pointer-identical.
        assert!(std::sync::Arc::ptr_eq(&built.shared_cache(), &reissued.shared_cache()));
        // And equals what a fresh extraction would produce.
        assert_eq!(reissued.shared_cache().interactables(), built.interactables().as_slice());
        assert_eq!(reissued.shared_cache().tags(), built.tag_sequence().as_slice());
        // A document reissued under its own URL is indistinguishable.
        assert_eq!(built.reissue(built.url().clone()), built);
    }

    #[test]
    fn relative_links_resolve_against_document_url() {
        let d = Document::new(
            "http://h/dir/page.php".parse().unwrap(),
            "t",
            Element::new(Tag::Body).child(Element::new(Tag::A).attr("href", "other.php")),
        );
        let items = d.interactables();
        assert_eq!(items[0].target_url().path(), "/dir/other.php");
    }
}
