//! A tiny replicated key-value store over the consensus log.
//!
//! The demonstration application: commands are replicated through
//! [`LogHandle`](crate::LogHandle) and applied, in slot order, to a
//! deterministic state machine — every replica that applies the same
//! prefix holds the same map.
//!
//! A key is a shared `Arc<str>`. A command is copied many times on its way
//! through the log — into its proposer's round register, the decision
//! register, every replica's decided prefix, every replica's map — and
//! each copy of the key is a reference-count bump, not an allocation. A
//! client that builds a key once per key (the service names its key
//! population once per replica) allocates nothing per command.

use std::collections::BTreeMap;
use std::sync::Arc;

use omega_registers::RegisterValue;

/// A state-machine command for the KV store.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KvCommand {
    /// Bind `key` to `value`.
    Put(Arc<str>, u64),
    /// Remove `key`.
    Delete(Arc<str>),
}

impl RegisterValue for KvCommand {
    fn footprint_bits(&self) -> u64 {
        match self {
            KvCommand::Put(key, value) => 1 + key_bits(key) + value.footprint_bits(),
            KvCommand::Delete(key) => 1 + key_bits(key),
        }
    }
}

/// A key's footprint: a byte string's (eight bits a byte, at least one).
fn key_bits(key: &str) -> u64 {
    (8 * key.len() as u64).max(1)
}

/// The deterministic state machine replaying committed commands.
///
/// # Examples
///
/// ```
/// use omega_consensus::{KvCommand, KvStore};
///
/// let mut store = KvStore::new();
/// let log = vec![
///     KvCommand::Put("a".into(), 1),
///     KvCommand::Put("b".into(), 2),
///     KvCommand::Delete("a".into()),
/// ];
/// store.apply_committed(&log);
/// assert_eq!(store.get("a"), None);
/// assert_eq!(store.get("b"), Some(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<Arc<str>, u64>,
    applied: usize,
}

impl KvStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Applies any commands in `committed` beyond those already applied.
    /// Safe to call repeatedly with a growing prefix.
    pub fn apply_committed(&mut self, committed: &[KvCommand]) {
        for command in &committed[self.applied.min(committed.len())..] {
            match command {
                KvCommand::Put(key, value) => {
                    self.map.insert(Arc::clone(key), *value);
                }
                KvCommand::Delete(key) => {
                    self.map.remove(&**key);
                }
            }
        }
        self.applied = self.applied.max(committed.len());
    }

    /// Number of log entries applied so far.
    #[must_use]
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Looks up `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<u64> {
        self.map.get(key).copied()
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (&**k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(k: &str, v: u64) -> KvCommand {
        KvCommand::Put(k.into(), v)
    }

    #[test]
    fn applies_puts_and_deletes() {
        let mut store = KvStore::new();
        store.apply_committed(&[put("x", 1), put("y", 2), KvCommand::Delete("x".into())]);
        assert_eq!(store.get("x"), None);
        assert_eq!(store.get("y"), Some(2));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        assert_eq!(store.applied(), 3);
    }

    #[test]
    fn incremental_application_is_idempotent() {
        let mut store = KvStore::new();
        let log = vec![put("a", 1), put("a", 2), put("b", 3)];
        store.apply_committed(&log[..1]);
        assert_eq!(store.get("a"), Some(1));
        store.apply_committed(&log);
        store.apply_committed(&log); // replay: no effect
        assert_eq!(store.get("a"), Some(2));
        assert_eq!(store.applied(), 3);
    }

    #[test]
    fn same_prefix_same_state() {
        let log = vec![put("k1", 10), KvCommand::Delete("k1".into()), put("k2", 20)];
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.apply_committed(&log);
        b.apply_committed(&log[..2]);
        b.apply_committed(&log);
        assert_eq!(a, b, "determinism: same prefix, same state");
    }

    #[test]
    fn commands_have_footprints() {
        assert!(put("key", 300).footprint_bits() > 8);
        assert!(KvCommand::Delete("k".into()).footprint_bits() >= 9);
        // A shared key weighs what the same key as a `String` does.
        for key in ["", "k", "k007"] {
            let bits = key.to_string().footprint_bits();
            assert_eq!(put(key, 300).footprint_bits(), 1 + bits + 9);
            assert_eq!(KvCommand::Delete(key.into()).footprint_bits(), 1 + bits);
        }
    }

    #[test]
    fn copies_of_a_command_share_its_key() {
        let key: Arc<str> = "k001".into();
        let command = KvCommand::Put(Arc::clone(&key), 1);
        let mut store = KvStore::new();
        store.apply_committed(&[command.clone(), command]);
        assert_eq!(Arc::strong_count(&key), 2, "the store holds the key itself");
        assert_eq!(store.get("k001"), Some(1));
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut store = KvStore::new();
        store.apply_committed(&[put("b", 2), put("a", 1)]);
        let pairs: Vec<(&str, u64)> = store.iter().collect();
        assert_eq!(pairs, vec![("a", 1), ("b", 2)]);
    }
}
