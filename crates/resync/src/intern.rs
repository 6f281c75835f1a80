//! Dense `u32` interning of DNs, with counted holds.
//!
//! Content stores on both sides of the protocol are keyed by DN. The sync
//! layer interns each distinct DN once and hands *ids* to the stores: an
//! id is a dense `u32` usable as a direct vector index, and a set of ids
//! is a sorted posting list that intersects without hashing.
//!
//! Every id carries a hold count: how many of its owner's references name
//! it (the master's sessions, the replica's stored filters). A slot lives
//! exactly while its count is above zero, and the [release](DnTable::release)
//! that takes the count to zero frees it at once; a later
//! [`hold`](DnTable::hold) hands it out again. So an id is stable while
//! anything holds it — which is what lets immutable per-epoch structures
//! (posting lists, attribute indexes) be shared across epochs without
//! re-translation — and the id space, with every id-addressed vector built
//! on it, is bounded by what is held, not by lifetime churn.

use fbdr_ldap::{Dn, Entry};
use serde::Serialize;
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

/// A bidirectional DN ↔ dense `u32` id table whose slots are counted: the
/// master's session ledgers and the filter replica's content store both
/// address entries through one.
///
/// Pairs a DN → id map with id-indexed DN slots so the sync layer can
/// both intern a DN touched by an update *and* resolve ids back to DNs
/// when draining actions. [`DnTable::hold`] interns on first sight,
/// reusing a freed slot before growing; [`DnTable::release`] drops one
/// hold and frees the slot with the last. An id is a direct index into
/// id-addressed storage of length [`DnTable::capacity`] for as long as
/// it is held. Only the slots are serialized: the counts are the owner's
/// references, so the owner recounts them at load (a [`SyncMaster`]
/// from its session ledgers).
///
/// [`SyncMaster`]: crate::SyncMaster
///
/// ```
/// use fbdr_resync::DnTable;
///
/// let mut t = DnTable::new();
/// let a = t.hold(&"cn=A,o=X".parse().unwrap());
/// assert_eq!(t.hold(&"CN=a, O=X".parse().unwrap()), a); // normalized
/// assert_eq!((t.holds(a), t.dn_of(a).unwrap().to_string()), (2, "cn=A,o=X".into()));
/// assert!(!t.release(a)); // one holder left
/// assert!(t.release(a)); // the last: freed
/// let b = t.hold(&"cn=B,o=X".parse().unwrap());
/// assert_eq!(b, a); // recycled
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct DnTable {
    slots: Vec<Option<Dn>>,
    /// Free slots, reused last-freed first.
    #[serde(skip)]
    free: Vec<u32>,
    /// Holds per slot: above zero exactly for the live ones.
    #[serde(skip)]
    holds: Vec<u32>,
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

    /// Rebuilds a persisted table around its owner's references: `slots`
    /// as serialized, and `held` yielding one id per hold. A slot nothing
    /// holds is freed; the counts, the free list and the DN map are
    /// derived.
    ///
    /// # Errors
    ///
    /// An id that names no interned slot, or a DN interned in two slots.
    pub(crate) fn load(
        mut slots: Vec<Option<Dn>>,
        held: impl IntoIterator<Item = u32>,
    ) -> Result<DnTable, String> {
        let mut holds = vec![0u32; slots.len()];
        for id in held {
            match slots.get(id as usize) {
                Some(Some(_)) => holds[id as usize] += 1,
                _ => return Err(format!("id {id} names no interned DN")),
            }
        }
        let (mut free, mut ids) = (Vec::new(), HashMap::new());
        for (id, slot) in slots.iter_mut().enumerate().rev() {
            if holds[id] == 0 {
                *slot = None;
                free.push(id as u32);
            } else if let Some(dn) = slot {
                if ids.insert(dn.clone(), id as u32).is_some() {
                    return Err(format!("{dn} is interned twice"));
                }
            }
        }
        Ok(DnTable { slots, free, holds, ids })
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

    /// Takes one hold on `dn` and returns its id, interning it on first
    /// sight — in a freed slot if there is one, else in the next dense id.
    /// DNs equal under LDAP matching rules share an id; the spelling that
    /// interned it is the one [`DnTable::dn_of`] returns.
    pub fn hold(&mut self, dn: &Dn) -> u32 {
        if let Some(&id) = self.ids.get(dn) {
            self.holds[id as usize] += 1;
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(dn.clone());
                self.holds[id as usize] = 1;
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("id space exhausted");
                self.slots.push(Some(dn.clone()));
                self.holds.push(1);
                id
            }
        };
        self.ids.insert(dn.clone(), id);
        id
    }

    /// Takes one more hold on a live id (the caller already holds it, or
    /// knows who does) without looking its DN up.
    pub fn hold_id(&mut self, id: u32) {
        let count = &mut self.holds[id as usize];
        debug_assert!(*count > 0, "hold_id on free slot {id}");
        *count += 1;
    }

    /// Drops one hold on `id`; the last one frees the slot for reuse.
    /// Returns whether it did.
    pub fn release(&mut self, id: u32) -> bool {
        let count = &mut self.holds[id as usize];
        debug_assert!(*count > 0, "release of free slot {id}");
        *count -= 1;
        if *count > 0 {
            return false;
        }
        let dn = self.slots[id as usize].take().expect("a held slot is interned");
        self.ids.remove(&dn);
        self.free.push(id);
        true
    }

    /// How many holds `id` has (0 for a free or never-assigned slot).
    pub fn holds(&self, id: u32) -> u32 {
        self.holds.get(id as usize).copied().unwrap_or(0)
    }

    /// The id of `dn`, if currently interned.
    pub fn get(&self, dn: &Dn) -> Option<u32> {
        self.ids.get(dn).copied()
    }

    /// The DN an id is currently assigned to (drain-time reverse
    /// resolution); `None` for free or never-assigned slots.
    pub fn dn_of(&self, id: u32) -> Option<&Dn> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }

    /// Deterministic byte accounting: interned DN bytes (normalized
    /// forms plus fixed per-RDN overhead) plus per-slot overhead for the
    /// map entry, slot, count and free-list bookkeeping.
    pub fn approx_bytes(&self) -> usize {
        let dn_bytes: usize =
            self.slots.iter().flatten().map(|dn| 2 * dn_approx_bytes(dn) + 48).sum();
        dn_bytes + self.slots.len() * 32 + self.free.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(i: u32) -> Dn {
        format!("cn=e{i},o=x").parse().unwrap()
    }

    #[test]
    fn keys_are_normalized() {
        let d: Dn = "CN=John  Doe, O=XYZ".parse().unwrap();
        assert_eq!(dn_key(&d), "cn=john doe,o=xyz");
        let e = Entry::new("cn=A,o=X".parse().unwrap());
        assert_eq!(entry_key(&e), "cn=a,o=x");
    }

    #[test]
    fn ids_are_dense_stable_while_held_and_recycled_by_the_last_release() {
        let mut t = DnTable::new();
        for i in 0..100u32 {
            assert_eq!(t.hold(&parse(i)), i);
        }
        for i in 0..100u32 {
            assert_eq!(t.hold(&parse(i)), i, "a second holder gets the same id");
            assert_eq!(t.holds(i), 2);
        }
        assert_eq!(t.len(), 100);
        assert_eq!((t.get(&parse(100)), t.dn_of(100), t.holds(100)), (None, None, 0));
        assert!(!t.release(7), "one holder is left");
        assert_eq!(t.get(&parse(7)), Some(7));
        assert!(t.release(7), "the last holder frees it");
        assert_eq!((t.get(&parse(7)), t.dn_of(7), t.holds(7)), (None, None, 0));
        assert_eq!(t.hold(&parse(7_000)), 7, "the freed slot is handed out again");
        // Churning one DN in place keeps capacity flat forever.
        for i in 1_000..2_000 {
            let id = t.hold(&parse(i));
            assert_eq!(id, 100);
            t.hold_id(id);
            assert!(!t.release(id));
            assert!(t.release(id));
        }
        assert_eq!(t.capacity(), 101);
    }

    #[test]
    fn a_loaded_table_is_recounted_from_its_holders() {
        let mut t = DnTable::new();
        let [a, b, c] = [0, 1, 2].map(|i| t.hold(&parse(i)));
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json.matches("cn").count(), 3, "slots only: {json}");
        let slots = || t.slots.clone();

        // `a` twice, `c` once; `b` is held by nobody and freed.
        let mut back = DnTable::load(slots(), [a, c, a]).unwrap();
        assert_eq!((back.holds(a), back.holds(b), back.holds(c)), (2, 0, 1));
        assert_eq!((back.len(), back.capacity()), (2, 3));
        assert_eq!(back.get(&"CN=E0,O=X".parse().unwrap()), Some(a));
        assert_eq!(back.get(&parse(1)), None);
        assert_eq!(back.hold(&parse(9)), b, "the unheld slot is reused");
        assert!(!back.release(a) && back.release(a) && back.release(c));
        assert_eq!(back.len(), 1);

        assert!(DnTable::load(slots(), [a, 3]).unwrap_err().contains("id 3"));
        let mut twice = slots();
        twice[2] = twice[0].clone();
        assert!(DnTable::load(twice, [a, c]).unwrap_err().contains("interned twice"));
    }

    #[test]
    fn table_bytes_shrink_on_release() {
        let mut t = DnTable::new();
        let ids: Vec<u32> = (0..50).map(|i| t.hold(&parse(i))).collect();
        let full = t.approx_bytes();
        for id in ids {
            t.release(id);
        }
        assert!(t.approx_bytes() < full);
    }
}
