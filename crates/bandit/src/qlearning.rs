//! Tabular Q-learning, as used by the WebExplor and QExplore baselines.
//!
//! Both baselines learn `Q : S × A → ℝ` over *abstracted* page states and
//! per-state action sets (Table I of the paper):
//!
//! - **WebExplor** updates `Q` with the standard Bellman rule and selects
//!   actions via Gumbel-softmax over the current state's Q-values;
//! - **QExplore** "modifies the update to guide the crawler to states with
//!   more actions" and always picks the maximum-Q action.
//!
//! States and actions are identified by opaque `u64` keys, produced by the
//! crawlers' state-abstraction and element-signature functions.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

/// A sparse tabular Q-function with optimistic initialization.
///
/// `S` hashes the table's keys. The default is the std `RandomState`;
/// crawlers pass a deterministic fast hasher ([`QTable::with_hasher`]),
/// which is sound because nothing iterates the table in hasher order — the
/// checkpoint form sorts its entries.
///
/// # Examples
///
/// ```
/// use mak_bandit::qlearning::{argmax, QTable};
///
/// let mut q = QTable::new(0.5, 0.5, 1.0);
/// // Executing action 7 in state 1 earned reward 0.4 and led to state 2
/// // with actions {8, 9} available.
/// q.bellman_update(1, 7, 0.4, 2, &[8, 9]);
/// assert!(q.value(1, 7) < 1.0, "below the optimistic init after a mediocre reward");
/// assert_eq!(argmax(&q.values_for(2, &[8, 9])), Some(0), "fresh actions tie at the init");
/// ```
#[derive(Debug, Clone)]
pub struct QTable<S = RandomState> {
    q: HashMap<(u64, u64), f64, S>,
    /// Learning rate α.
    alpha: f64,
    /// Discount factor γ.
    discount: f64,
    /// Value assumed for never-updated state/action pairs. Optimistic
    /// initialization (> 0) makes deterministic arg-max selection try every
    /// fresh action once, which both baselines rely on.
    initial: f64,
    states: HashSet<u64, S>,
}

impl QTable {
    /// Creates a Q-table.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `discount` outside `[0, 1)`.
    pub fn new(alpha: f64, discount: f64, initial: f64) -> Self {
        Self::with_hasher(alpha, discount, initial)
    }
}

impl<S: BuildHasher + Default> QTable<S> {
    /// Creates a Q-table whose keys are hashed by `S`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `discount` outside `[0, 1)`.
    pub fn with_hasher(alpha: f64, discount: f64, initial: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!((0.0..1.0).contains(&discount), "discount must be in [0, 1)");
        QTable { q: HashMap::default(), alpha, discount, initial, states: HashSet::default() }
    }

    /// The current value of `(state, action)`.
    pub fn value(&self, state: u64, action: u64) -> f64 {
        self.q.get(&(state, action)).copied().unwrap_or(self.initial)
    }

    /// The maximum Q-value over `actions` in `state` (the Bellman target's
    /// `max_{a'} Q(s', a')`). Returns the optimistic initial value when the
    /// action set is empty.
    pub fn max_value(&self, state: u64, actions: &[u64]) -> f64 {
        actions
            .iter()
            .map(|a| self.value(state, *a))
            .fold(f64::NEG_INFINITY, f64::max)
            .max(if actions.is_empty() { self.initial } else { f64::NEG_INFINITY })
    }

    /// Standard Bellman update (WebExplor's `UPDATE_POLICY`):
    /// `Q(s,a) ← Q(s,a) + α (r + γ max_{a'} Q(s',a') − Q(s,a))`.
    pub fn bellman_update(
        &mut self,
        state: u64,
        action: u64,
        reward: f64,
        next_state: u64,
        next_actions: &[u64],
    ) {
        let target = reward + self.discount * self.max_value(next_state, next_actions);
        let q = self.value(state, action);
        self.q.insert((state, action), q + self.alpha * (target - q));
        self.states.insert(state);
        self.states.insert(next_state);
    }

    /// QExplore's modified update: the target gets an additional bonus
    /// proportional to the *number of actions* available in the successor
    /// state, steering the crawler towards action-rich pages:
    /// `Q(s,a) ← Q(s,a) + α (r + β·|A(s')| / (1 + |A(s')|) + γ max' − Q(s,a))`.
    pub fn qexplore_update(
        &mut self,
        state: u64,
        action: u64,
        reward: f64,
        next_state: u64,
        next_actions: &[u64],
        beta: f64,
    ) {
        let n = next_actions.len() as f64;
        let bonus = beta * n / (1.0 + n);
        let target = reward + bonus + self.discount * self.max_value(next_state, next_actions);
        let q = self.value(state, action);
        self.q.insert((state, action), q + self.alpha * (target - q));
        self.states.insert(state);
        self.states.insert(next_state);
    }

    /// The Q-values of `actions` in `state`, in order.
    pub fn values_for(&self, state: u64, actions: &[u64]) -> Vec<f64> {
        actions.iter().map(|a| self.value(state, *a)).collect()
    }

    /// Number of distinct states ever touched by an update — the state-table
    /// size whose growth the paper's §III-A critique is about.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of stored `(state, action)` entries.
    pub fn entry_count(&self) -> usize {
        self.q.len()
    }
}

/// Index of the largest of `values`, the first one on ties; `None` when
/// empty. Over [`QTable::values_for`], the maximum-Q action of QExplore's
/// deterministic `CHOOSE_ACTION`.
///
/// # Panics
///
/// Panics if a value is NaN.
pub fn argmax(values: &[f64]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.partial_cmp(b).unwrap().then(ib.cmp(ia)))
        .map(|(i, _)| i)
}

// Checkpoint serialization. The hash map and set are emitted in sorted key
// order so the bytes are a pure function of the table's content, never of
// insertion history or hasher state.
impl<S> serde::Serialize for QTable<S> {
    fn to_value(&self) -> serde::Value {
        let mut entries: Vec<((u64, u64), f64)> = self.q.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let q: Vec<serde::Value> = entries
            .into_iter()
            .map(|((s, a), v)| {
                serde::Value::Array(vec![
                    serde::Value::UInt(s),
                    serde::Value::UInt(a),
                    serde::Value::Float(v),
                ])
            })
            .collect();
        let mut states: Vec<u64> = self.states.iter().copied().collect();
        states.sort_unstable();
        serde::Value::Object(vec![
            ("alpha".to_owned(), serde::Value::Float(self.alpha)),
            ("discount".to_owned(), serde::Value::Float(self.discount)),
            ("initial".to_owned(), serde::Value::Float(self.initial)),
            ("q".to_owned(), serde::Value::Array(q)),
            ("states".to_owned(), states.to_value()),
        ])
    }
}

impl<S: BuildHasher + Default> serde::Deserialize for QTable<S> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(obj) = value else {
            return Err(serde::Error::custom("expected QTable object"));
        };
        let alpha: f64 = serde::__field(obj, "alpha")?;
        let discount: f64 = serde::__field(obj, "discount")?;
        if !(alpha > 0.0 && alpha <= 1.0 && (0.0..1.0).contains(&discount)) {
            return Err(serde::Error::custom("malformed QTable checkpoint"));
        }
        let triples: Vec<(u64, u64, f64)> = {
            let raw = obj
                .iter()
                .find(|(k, _)| k == "q")
                .map(|(_, v)| v)
                .ok_or_else(|| serde::Error::custom("missing field `q`"))?;
            let serde::Value::Array(items) = raw else {
                return Err(serde::Error::custom("expected array for `q`"));
            };
            items
                .iter()
                .map(|item| {
                    let serde::Value::Array(parts) = item else {
                        return Err(serde::Error::custom("expected [s, a, v] triple"));
                    };
                    if parts.len() != 3 {
                        return Err(serde::Error::custom("expected [s, a, v] triple"));
                    }
                    Ok((
                        u64::from_value(&parts[0])?,
                        u64::from_value(&parts[1])?,
                        f64::from_value(&parts[2])?,
                    ))
                })
                .collect::<Result<_, _>>()?
        };
        let states: Vec<u64> = serde::__field(obj, "states")?;
        Ok(QTable {
            q: triples.into_iter().map(|(s, a, v)| ((s, a), v)).collect(),
            alpha,
            discount,
            initial: serde::__field(obj, "initial")?,
            states: states.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> QTable {
        QTable::new(0.5, 0.9, 1.0)
    }

    #[test]
    fn unseen_pairs_are_optimistic() {
        let t = table();
        assert_eq!(t.value(1, 2), 1.0);
    }

    #[test]
    fn bellman_moves_toward_target() {
        let mut t = table();
        // Terminal-ish next state with one action of value 1.0 (initial).
        t.bellman_update(1, 10, 0.0, 2, &[20]);
        // target = 0 + 0.9 * 1.0 = 0.9; q = 1 + 0.5*(0.9-1) = 0.95
        assert!((t.value(1, 10) - 0.95).abs() < 1e-12);
        t.bellman_update(1, 10, 1.0, 2, &[20]);
        // target = 1 + 0.9 = 1.9; q = 0.95 + 0.5*(1.9-0.95) = 1.425
        assert!((t.value(1, 10) - 1.425).abs() < 1e-12);
    }

    #[test]
    fn qexplore_bonus_prefers_action_rich_states() {
        let mut a = table();
        let mut b = table();
        let many: Vec<u64> = (0..20).collect();
        let few: Vec<u64> = (0..2).collect();
        a.qexplore_update(1, 10, 0.0, 2, &many, 1.0);
        b.qexplore_update(1, 10, 0.0, 2, &few, 1.0);
        assert!(a.value(1, 10) > b.value(1, 10), "successor with more actions yields higher Q");
    }

    #[test]
    fn argmax_of_q_values_takes_the_first_maximum() {
        let mut t = table();
        t.bellman_update(1, 10, 0.0, 9, &[]);
        // action 10 now below initial; 11 and 12 tie at the optimistic value.
        assert_eq!(argmax(&t.values_for(1, &[10, 11, 12])), Some(1));
        assert_eq!(argmax(&t.values_for(1, &[])), None);
    }

    #[test]
    fn max_value_of_empty_action_set_is_initial() {
        let t = table();
        assert_eq!(t.max_value(7, &[]), 1.0);
    }

    #[test]
    fn state_count_tracks_distinct_states() {
        let mut t = table();
        t.bellman_update(1, 10, 0.5, 2, &[1]);
        t.bellman_update(2, 11, 0.5, 1, &[1]);
        t.bellman_update(1, 12, 0.5, 3, &[1]);
        assert_eq!(t.state_count(), 3);
        assert_eq!(t.entry_count(), 3);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = QTable::new(0.0, 0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "discount")]
    fn rejects_bad_discount() {
        let _ = QTable::new(0.5, 1.0, 1.0);
    }
}
