//! Server-side session state.
//!
//! The modeled applications are stateful: a shopping cart remembers its
//! items, a forum remembers posted messages, Drupal's shortcut page
//! remembers added shortcuts. Sessions give the simulator the server-side
//! memory the paper's shopping-cart example (§IV-C) relies on: the same
//! button can execute *new* code once earlier interactions changed state.

use crate::http::SessionId;
use std::collections::HashMap;

/// A single session's variables.
#[derive(Debug, Clone, Default)]
pub struct Session {
    vars: HashMap<String, i64>,
    lists: HashMap<String, Vec<String>>,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads an integer variable, defaulting to 0.
    pub fn get(&self, key: &str) -> i64 {
        self.vars.get(key).copied().unwrap_or(0)
    }

    /// Sets an integer variable.
    pub fn set(&mut self, key: impl Into<String>, value: i64) {
        self.vars.insert(key.into(), value);
    }

    /// Adds `delta` to an integer variable and returns the new value.
    pub fn add(&mut self, key: impl Into<String>, delta: i64) -> i64 {
        let entry = self.vars.entry(key.into()).or_insert(0);
        *entry += delta;
        *entry
    }

    /// Appends to a list variable (e.g. Drupal's shortcut list, forum
    /// posts) and returns the new length.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) -> usize {
        let list = self.lists.entry(key.into()).or_default();
        list.push(value.into());
        list.len()
    }

    /// Reads a list variable.
    pub fn list(&self, key: &str) -> &[String] {
        self.lists.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Allocates and stores sessions for one hosted application.
#[derive(Debug, Default)]
pub struct SessionStore {
    sessions: HashMap<SessionId, Session>,
    next: u64,
}

impl SessionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh session and returns its id.
    pub fn create(&mut self) -> SessionId {
        let id = SessionId(self.next);
        self.next += 1;
        self.sessions.insert(id, Session::new());
        id
    }

    /// Returns the session for `id`, creating it if the cookie is unknown
    /// (expired server state), as PHP's session handling does.
    pub fn get_or_create(&mut self, id: Option<SessionId>) -> (SessionId, &mut Session) {
        let id = match id {
            Some(id) if self.sessions.contains_key(&id) => id,
            _ => self.create(),
        };
        (id, self.sessions.get_mut(&id).expect("just ensured present"))
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_default_to_zero() {
        let s = Session::new();
        assert_eq!(s.get("cart_items"), 0);
    }

    #[test]
    fn add_accumulates() {
        let mut s = Session::new();
        assert_eq!(s.add("cart_items", 1), 1);
        assert_eq!(s.add("cart_items", 2), 3);
        s.set("cart_items", 0);
        assert_eq!(s.get("cart_items"), 0);
    }

    #[test]
    fn lists_grow() {
        let mut s = Session::new();
        assert_eq!(s.push("shortcuts", "a"), 1);
        assert_eq!(s.push("shortcuts", "b"), 2);
        assert_eq!(s.list("shortcuts"), ["a", "b"]);
        assert!(s.list("other").is_empty());
    }

    #[test]
    fn store_reuses_known_cookie() {
        let mut store = SessionStore::new();
        let (id, sess) = store.get_or_create(None);
        sess.set("x", 42);
        let (id2, sess2) = store.get_or_create(Some(id));
        assert_eq!(id, id2);
        assert_eq!(sess2.get("x"), 42);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_replaces_unknown_cookie() {
        let mut store = SessionStore::new();
        let (id, _) = store.get_or_create(Some(SessionId(999)));
        assert_ne!(id, SessionId(999));
        assert!(!store.is_empty());
    }
}
