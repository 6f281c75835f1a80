//! Dense `u32` interning of DNs, with counted holds.
//!
//! The filter replica's content store is keyed by DN. It interns each
//! distinct DN once and addresses entries by *id*: a dense `u32` usable as
//! a direct vector index, and a set of ids is a sorted posting list that
//! intersects without hashing. (The master keeps no ids: a session is its
//! history of DNs.)
//!
//! Every id carries a hold count: how many of its owner's references name
//! it (the replica's stored filters). A slot lives
//! exactly while its count is above zero, and the [release](DnTable::release)
//! that takes the count to zero frees it at once; a later
//! [`hold`](DnTable::hold) hands it out again. So an id is stable while
//! anything holds it — which is what lets immutable per-epoch structures
//! (posting lists, attribute indexes) be shared across epochs without
//! re-translation — and the id space, with every id-addressed vector built
//! on it, is bounded by what is held, not by lifetime churn.

use fbdr_ldap::Dn;
use std::collections::HashMap;

/// A bidirectional DN ↔ dense `u32` id table whose slots are counted: the
/// filter replica's content store addresses entries through one.
///
/// A DN → id map beside id-indexed DN slots. [`DnTable::hold`] interns
/// on first sight, reusing a freed slot before growing;
/// [`DnTable::release`] drops one hold and frees the slot with the last.
/// While an id is held it indexes id-addressed storage as long as the
/// slot list.
#[derive(Debug, Clone, Default)]
pub(crate) struct DnTable {
    slots: Vec<Option<Dn>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Holds per slot: above zero exactly for the live ones.
    holds: Vec<u32>,
    /// `Dn`'s `Eq`/`Hash` are case-insensitive over precomputed forms, so
    /// keying by the DN itself matches LDAP matching-rule equality without
    /// building a string key per probe.
    ids: HashMap<Dn, u32>,
}

impl DnTable {
    /// Takes one hold on `dn` and returns its id, interning it on first
    /// sight — in a freed slot if there is one, else in the next dense id.
    /// DNs equal under LDAP matching rules share an id; the spelling that
    /// interned it is the one its slot keeps.
    pub(crate) fn hold(&mut self, dn: &Dn) -> u32 {
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

    /// Drops one hold on `id`; the last one frees the slot for reuse.
    /// Returns whether it did.
    pub(crate) fn release(&mut self, id: u32) -> bool {
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
    pub(crate) fn holds(&self, id: u32) -> u32 {
        self.holds.get(id as usize).copied().unwrap_or(0)
    }

    /// The id of `dn`, if currently interned.
    pub(crate) fn get(&self, dn: &Dn) -> Option<u32> {
        self.ids.get(dn).copied()
    }

}

#[cfg(test)]
impl DnTable {
    /// Upper bound of the id space: every id ever handed out is
    /// `< capacity()`.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The DN an id is currently assigned to; `None` for free or
    /// never-assigned slots.
    pub(crate) fn dn_of(&self, id: u32) -> Option<&Dn> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(i: u32) -> Dn {
        format!("cn=e{i},o=x").parse().unwrap()
    }

    #[test]
    fn equal_dns_share_an_id_and_the_last_release_frees_it() {
        let mut t = DnTable::default();
        let a = t.hold(&"cn=A,o=X".parse().unwrap());
        assert_eq!(t.hold(&"CN=a, O=X".parse().unwrap()), a); // normalized
        assert_eq!((t.holds(a), t.dn_of(a).unwrap().to_string()), (2, "cn=A,o=X".into()));
        assert!(!t.release(a)); // one holder left
        assert!(t.release(a)); // the last: freed
        let b = t.hold(&"cn=B,o=X".parse().unwrap());
        assert_eq!(b, a); // recycled
    }

    #[test]
    fn ids_are_dense_stable_while_held_and_recycled_by_the_last_release() {
        let mut t = DnTable::default();
        for i in 0..100u32 {
            assert_eq!(t.hold(&parse(i)), i);
        }
        for i in 0..100u32 {
            assert_eq!(t.hold(&parse(i)), i, "a second holder gets the same id");
            assert_eq!(t.holds(i), 2);
        }
        assert_eq!(t.ids.len(), 100);
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
            assert_eq!(t.hold(&parse(i)), id);
            assert!(!t.release(id));
            assert!(t.release(id));
        }
        assert_eq!(t.capacity(), 101);
    }
}
