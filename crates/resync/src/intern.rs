//! Dense `u32` interning of DNs, with id recycling.
//!
//! Content stores on both sides of the protocol are keyed by DN. The sync
//! layer interns each distinct DN once and hands *ids* to the stores: an
//! id is a dense `u32` usable as a direct vector index, and a set of ids
//! is a sorted posting list that intersects without hashing.
//!
//! Ids are stable while a DN is interned: a DN that stays in the content
//! keeps its id across epochs, which is what lets immutable per-epoch
//! structures (posting lists, attribute indexes) be shared across epochs
//! without re-translation. A DN that has been deleted *and is provably
//! unreferenced* can be [released](DnTable::release): its slot joins a
//! free list and is handed out again by a later `intern`, so the id space
//! — and every id-addressed vector built on it — stops growing with
//! lifetime churn.

use fbdr_ldap::{Dn, Entry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The canonical string key of a DN: lowercased attribute types and
/// normalized values, comma-joined leaf-first. Two DNs that compare equal
/// under LDAP matching rules produce the same key.
pub fn dn_key(dn: &Dn) -> String {
    let mut out = String::new();
    for (i, r) in dn.rdns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r.attr().lower());
        out.push('=');
        out.push_str(r.value().normalized());
    }
    out
}

/// The canonical key of an entry's DN (see [`dn_key`]).
pub fn entry_key(e: &Entry) -> String {
    dn_key(e.dn())
}

/// Deterministic byte accounting for one DN: the sum of its normalized
/// attribute/value lengths plus a fixed per-RDN overhead. Used by the
/// memory-footprint reports instead of allocator statistics so equal
/// runs report equal bytes on every platform.
pub fn dn_approx_bytes(dn: &Dn) -> usize {
    dn.rdns()
        .iter()
        .map(|r| r.attr().lower().len() + r.value().normalized().len() + 16)
        .sum()
}

/// A bidirectional DN ↔ dense `u32` id table with free-list recycling:
/// the master's session bookkeeping and the filter replica's content
/// store both address entries through one.
///
/// Pairs a DN → id map with id-indexed DN slots so the sync layer can
/// both intern a DN touched by an update *and* resolve ids back to DNs
/// when draining actions. Only the slot vector and the free list are
/// serialized; the map is rebuilt lazily after
/// deserialization. `intern` assigns ids in first-seen order, reusing
/// released slots before growing; an id stays valid (a direct index into
/// id-addressed storage of length [`DnTable::capacity`]) until the owner
/// that proved it unreferenced — the master's garbage collector, the
/// replica's refcounts — [releases](DnTable::release) it.
///
/// ```
/// use fbdr_resync::DnTable;
///
/// let mut t = DnTable::new();
/// let a = t.intern(&"cn=A,o=X".parse().unwrap());
/// assert_eq!(t.intern(&"CN=a, O=X".parse().unwrap()), a); // normalized
/// assert_eq!(t.dn_of(a).unwrap().to_string(), "cn=A,o=X");
/// assert_eq!(t.len(), 1);
/// t.release(a);
/// let b = t.intern(&"cn=B,o=X".parse().unwrap());
/// assert_eq!(b, a); // recycled
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DnTable {
    slots: Vec<Option<Dn>>,
    free: Vec<u32>,
    /// `Dn`'s `Eq`/`Hash` are case-insensitive over precomputed forms, so
    /// keying by the DN itself matches LDAP matching-rule equality without
    /// building a string key per probe.
    #[serde(skip)]
    ids: HashMap<Dn, u32>,
}

impl DnTable {
    /// An empty table.
    pub fn new() -> Self {
        DnTable::default()
    }

    /// Number of distinct DNs currently interned (live slots).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Upper bound of the id space: every id ever handed out is
    /// `< capacity()`.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is currently interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rebuilds the DN → id map from the slot vector if it is out of
    /// date (after deserialization the map arrives empty).
    pub fn rehydrate(&mut self) {
        if self.ids.len() == self.len() {
            return;
        }
        self.ids = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|dn| (dn.clone(), i as u32)))
            .collect();
    }

    /// Returns the id of `dn`, reusing a released slot — or assigning
    /// the next dense id — on first sight. DNs equal under LDAP matching
    /// rules share an id; the first spelling seen is the one
    /// [`DnTable::dn_of`] returns.
    pub fn intern(&mut self, dn: &Dn) -> u32 {
        self.rehydrate();
        if let Some(&id) = self.ids.get(dn) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(dn.clone());
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("id space exhausted");
                self.slots.push(Some(dn.clone()));
                id
            }
        };
        self.ids.insert(dn.clone(), id);
        id
    }

    /// The id of `dn`, if currently interned. Requires a hydrated table
    /// (any `&mut self` call rehydrates; fresh tables are hydrated).
    pub fn get(&self, dn: &Dn) -> Option<u32> {
        debug_assert_eq!(self.ids.len(), self.len(), "table not rehydrated");
        self.ids.get(dn).copied()
    }

    /// The DN an id is currently assigned to (drain-time reverse
    /// resolution); `None` for released or never-assigned slots.
    pub fn dn_of(&self, id: u32) -> Option<&Dn> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }

    /// Releases a live slot back to the free list. The caller asserts
    /// nothing still indexes by this id
    /// (the master's GC: no session posting list; the replica:
    /// no filter's refcount). Returns `true` if the slot was live.
    pub fn release(&mut self, id: u32) -> bool {
        self.rehydrate();
        let Some(slot) = self.slots.get_mut(id as usize) else {
            return false;
        };
        let Some(dn) = slot.take() else {
            return false;
        };
        self.ids.remove(&dn);
        self.free.push(id);
        true
    }

    /// Deterministic byte accounting: interned DN bytes (normalized
    /// forms plus fixed per-RDN overhead) plus per-slot overhead for the
    /// map entry, slot and free-list bookkeeping.
    pub fn approx_bytes(&self) -> usize {
        let dn_bytes: usize =
            self.slots.iter().flatten().map(|dn| 2 * dn_approx_bytes(dn) + 48).sum();
        dn_bytes + self.slots.len() * 32 + self.free.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_normalized() {
        let d: Dn = "CN=John  Doe, O=XYZ".parse().unwrap();
        assert_eq!(dn_key(&d), "cn=john doe,o=xyz");
        let e = Entry::new("cn=A,o=X".parse().unwrap());
        assert_eq!(entry_key(&e), "cn=a,o=x");
    }

    #[test]
    fn ids_are_dense_stable_and_recycled() {
        let parse = |i: u32| -> Dn { format!("cn=e{i},o=x").parse().unwrap() };
        let mut t = DnTable::new();
        for i in 0..100u32 {
            assert_eq!(t.intern(&parse(i)), i);
        }
        for i in 0..100u32 {
            assert_eq!(t.intern(&parse(i)), i, "re-intern is stable");
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(&parse(100)), None);
        assert_eq!(t.dn_of(100), None);
        assert!(!t.release(100), "never-assigned slot");
        // Churning one DN in place keeps capacity flat forever.
        for i in 1_000..2_000 {
            let id = t.intern(&parse(i));
            assert_eq!(id, 100);
            assert!(t.release(id));
            assert!(!t.release(id), "double release is a no-op");
        }
        assert_eq!(t.capacity(), 101);
    }

    #[test]
    fn table_round_trips_and_rehydrates() {
        let mut t = DnTable::new();
        let a = t.intern(&"cn=A,o=X".parse().unwrap());
        let b = t.intern(&"cn=B,o=X".parse().unwrap());
        assert_ne!(a, b);
        assert_eq!(t.get(&"CN=a,O=X".parse().unwrap()), Some(a));

        let json = serde_json::to_string(&t).unwrap();
        let mut back: DnTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.dn_of(b).unwrap().to_string(), "cn=B,o=X");
        // Interner arrives empty; the first intern rehydrates it.
        assert_eq!(back.intern(&"cn=a,o=x".parse().unwrap()), a);
        assert_eq!(back.intern(&"cn=C,o=X".parse().unwrap()), 2);
        assert_eq!(back.get(&"cn=B,o=X".parse().unwrap()), Some(b));
    }

    #[test]
    fn table_recycles_and_round_trips_free_list() {
        let mut t = DnTable::new();
        let a = t.intern(&"cn=A,o=X".parse().unwrap());
        let b = t.intern(&"cn=B,o=X".parse().unwrap());
        assert!(t.release(a));
        assert_eq!(t.len(), 1);
        assert_eq!(t.capacity(), 2);
        assert_eq!(t.dn_of(a), None);
        assert_eq!(t.get(&"cn=a,o=x".parse().unwrap()), None);

        // The free list survives serialization.
        let json = serde_json::to_string(&t).unwrap();
        let mut back: DnTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        let c = back.intern(&"cn=C,o=X".parse().unwrap());
        assert_eq!(c, a, "released slot reused after a round trip");
        assert_eq!(back.get(&"cn=B,o=X".parse().unwrap()), Some(b));
        assert_eq!(back.capacity(), 2);
    }

    #[test]
    fn table_bytes_shrink_on_release() {
        let mut t = DnTable::new();
        let ids: Vec<u32> =
            (0..50).map(|i| t.intern(&format!("cn=e{i},o=x").parse().unwrap())).collect();
        let full = t.approx_bytes();
        for id in ids {
            t.release(id);
        }
        assert!(t.approx_bytes() < full);
    }
}
