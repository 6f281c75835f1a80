//! The DIT store: hierarchical entry storage, indexed search, updates.

use crate::changelog::{ChangeKind, ChangeRecord, Csn};
use crate::error::{DitError, ImportError};
use crate::index::{self, Indexes};
use crate::update::{Modification, UpdateOp};
use fbdr_ldap::{AttrName, Dn, Entry, Filter, Scope, SearchRequest, ValueSet};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// Hierarchical map key: orders DNs root-first over normalized RDN
/// components ([`Dn::cmp_hierarchical`]), so that the subtree of a DN is
/// a contiguous key range in a `BTreeMap`. Wrapping the `Dn` itself (a
/// cheap refcounted clone) keeps lookups allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TreeKey(Dn);

impl Ord for TreeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp_hierarchical(&other.0)
    }
}

impl PartialOrd for TreeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The entries, addressed by dense id: `slots[id]` holds the entry, two
/// maps give DN → id, and the attribute index lists ids. `ids` is
/// *identity* — which id a DN has, one hash of the DN's normalized text —
/// and answers every point lookup; `by_dn` is *order* — the hierarchical
/// sequence in which a subtree is one contiguous run — and answers only
/// what walks it (`subtree`, `children`, `has_children`, `iter`,
/// serialization). Both hold the same key set and ids (`Dn`'s `Hash` and
/// `Eq` agree with `TreeKey`'s: all compare normalized RDNs). An id is
/// stable while its entry lives — across modifies and renames — and is
/// recycled through `free` once the entry is deleted. Only the entries are
/// data: they serialize as a sequence in hierarchical order, and ids, free
/// list, both maps and index are rebuilt from it on load.
#[derive(Debug, Default, Clone)]
struct Entries {
    slots: Vec<Option<Entry>>,
    free: Vec<u32>,
    by_dn: BTreeMap<TreeKey, u32>,
    ids: HashMap<Dn, u32>,
    indexes: Indexes,
}

impl Entries {
    fn id_of(&self, dn: &Dn) -> Option<u32> {
        self.ids.get(dn).copied()
    }

    fn get(&self, id: u32) -> &Entry {
        self.slots[id as usize].as_ref().expect("listed ids are live")
    }

    /// Stores and indexes an entry whose DN is not taken.
    fn insert(&mut self, entry: Entry) {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("id space exhausted")
        });
        for (a, vs) in entry.attrs() {
            self.indexes.insert(a, index::keys_only_in(vs, None), id);
        }
        self.by_dn.insert(TreeKey(entry.dn().clone()), id);
        self.ids.insert(entry.dn().clone(), id);
        self.slots[id as usize] = Some(entry);
    }

    /// Removes the entry at `dn` from slots, both maps and index.
    fn remove(&mut self, dn: &Dn) {
        let Some(id) = self.ids.remove(dn) else { return };
        self.by_dn.remove(&TreeKey(dn.clone()));
        let entry = self.slots[id as usize].take().expect("listed ids are live");
        for (a, vs) in entry.attrs() {
            self.indexes.remove(a, index::keys_only_in(vs, None), id);
        }
        self.free.push(id);
    }

    /// Edits the entry in slot `id` and moves the id between the index
    /// keys of the `touched` attributes — the only ones `edit` may change —
    /// so an update costs its change, not the entry. The previous handle
    /// is the snapshot: the index diff reads the old values off it, and
    /// when `edit` fails it goes back in the slot and the index is left
    /// alone.
    fn edit(
        &mut self,
        id: u32,
        touched: &[AttrName],
        edit: impl FnOnce(&mut Entry) -> Result<(), DitError>,
    ) -> Result<&Entry, DitError> {
        let entry = self.slots[id as usize].as_mut().expect("listed ids are live");
        let before = entry.clone();
        if let Err(err) = edit(entry) {
            *entry = before;
            return Err(err);
        }
        for a in touched {
            let (old, new) = (before.value_set(a), entry.value_set(a));
            self.indexes.remove(a, index::keys_only_in(old.into_iter().flatten(), new), id);
            self.indexes.insert(a, index::keys_only_in(new.into_iter().flatten(), old), id);
        }
        Ok(entry)
    }

    /// Moves the id of the entry renamed from `old` to `new` under its new
    /// name in both maps.
    fn rekey(&mut self, old: &Dn, new: Dn) {
        let Some(id) = self.ids.remove(old) else { return };
        self.by_dn.remove(&TreeKey(old.clone()));
        self.by_dn.insert(TreeKey(new.clone()), id);
        self.ids.insert(new, id);
    }

    fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.by_dn.values().map(move |&id| self.get(id))
    }
}

/// The value sets of `attrs` as `entry` now holds them, shared with it; an
/// attribute the entry lacks lists no values.
fn changes_of<'a>(
    entry: &Entry,
    attrs: impl IntoIterator<Item = &'a AttrName>,
) -> Vec<(AttrName, ValueSet)> {
    attrs
        .into_iter()
        .map(|a| (a.clone(), entry.value_set(a).cloned().unwrap_or_default()))
        .collect()
}

impl Serialize for Entries {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

/// An in-memory Directory Information Tree with attribute indexes.
///
/// Entries may only be added under an existing parent or at a registered
/// suffix ([`DitStore::add_suffix`]), so every entry lies at or below a
/// registered suffix. Deletes and renames require leaf entries, matching
/// LDAP semantics.
///
/// Every applied update returns a [`ChangeRecord`] with a monotonically
/// increasing [`Csn`]. The store keeps the counter, not the records: a
/// consumer that needs a changelog or tombstones keeps what `apply`
/// returns.
#[derive(Debug, Default, Clone, Serialize)]
pub struct DitStore {
    entries: Entries,
    suffixes: Vec<Dn>,
    csn: Csn,
}

impl<'de> Deserialize<'de> for DitStore {
    /// Loads the entries, parents first, and rebuilds ids, both DN maps
    /// and the index from them.
    ///
    /// # Errors
    ///
    /// An entry [`DitStore::add`] would refuse at its place in the
    /// sequence: one named twice, or an orphan — neither a registered
    /// suffix nor the child of an entry loaded before it. A search skips
    /// the base check when its base covers every suffix, and would return
    /// an orphan from anywhere.
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        #[derive(Deserialize)]
        struct Wire {
            entries: Vec<Entry>,
            suffixes: Vec<Dn>,
            csn: Csn,
        }
        let Wire { entries, suffixes, csn } = Wire::deserialize(de)?;
        let mut store = DitStore { entries: Entries::default(), suffixes, csn };
        for e in entries {
            match store.check_place(e.dn()) {
                Ok(()) => store.entries.insert(e),
                Err(DitError::AlreadyExists(dn)) => {
                    return Err(D::Error::custom(format!("duplicate entry {dn}")));
                }
                Err(_) => {
                    return Err(D::Error::custom(format!(
                        "orphan entry {}: neither a suffix nor the child of an entry before it",
                        e.dn()
                    )));
                }
            }
        }
        Ok(store)
    }
}

impl DitStore {
    /// Creates an empty store with no suffixes.
    pub fn new() -> Self {
        DitStore::default()
    }

    /// Registers a suffix: a DN at which a naming context may start without
    /// its parent existing in this store.
    pub fn add_suffix(&mut self, dn: Dn) {
        if !self.suffixes.contains(&dn) {
            self.suffixes.push(dn);
        }
    }

    /// Registered suffixes.
    pub fn suffixes(&self) -> &[Dn] {
        &self.suffixes
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.by_dn.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.by_dn.is_empty()
    }

    /// Current (latest applied) change sequence number.
    pub fn csn(&self) -> Csn {
        self.csn
    }

    /// Looks up an entry by DN.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.id_of(dn).map(|id| self.entries.get(id))
    }

    /// True if an entry exists at `dn`.
    pub fn contains(&self, dn: &Dn) -> bool {
        self.entries.id_of(dn).is_some()
    }

    /// True if `dn` has at least one child entry.
    pub fn has_children(&self, dn: &Dn) -> bool {
        self.entries
            .by_dn
            .range((Bound::Excluded(TreeKey(dn.clone())), Bound::Unbounded))
            .next()
            .is_some_and(|(k, _)| dn.is_ancestor_or_self_of(&k.0))
    }

    /// Iterates all entries in DN (hierarchical) order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }

    /// Iterates entries in the subtree rooted at `base` (including `base`).
    pub fn subtree(&self, base: &Dn) -> impl Iterator<Item = &Entry> {
        let base = base.clone();
        self.entries
            .by_dn
            .range((Bound::Included(TreeKey(base.clone())), Bound::Unbounded))
            .take_while(move |(k, _)| base.is_ancestor_or_self_of(&k.0))
            .map(move |(_, &id)| self.entries.get(id))
    }

    /// Iterates immediate children of `base`.
    pub fn children(&self, base: &Dn) -> impl Iterator<Item = &Entry> {
        let depth = base.depth() + 1;
        self.subtree(base).filter(move |e| e.dn().depth() == depth)
    }

    // ---------------------------------------------------------------
    // LDIF import / export
    // ---------------------------------------------------------------

    /// Exports the whole store (or a subtree) as LDIF content records, in
    /// hierarchical order (parents before children, so the output
    /// re-imports cleanly).
    pub fn export_ldif(&self, base: Option<&Dn>) -> String {
        let entries: Vec<Entry> = match base {
            Some(b) => self.subtree(b).cloned().collect(),
            None => self.iter().cloned().collect(),
        };
        fbdr_ldap::ldif::to_ldif(&entries)
    }

    /// Imports LDIF content records, registering each record whose parent
    /// is absent as a suffix (so arbitrary dumps load). Returns the number
    /// of entries added.
    ///
    /// # Errors
    ///
    /// Returns the first [`DitError`] (e.g. a duplicate DN); entries added
    /// before the failure remain.
    pub fn import_ldif(&mut self, text: &str) -> Result<usize, ImportError> {
        let entries = fbdr_ldap::ldif::parse_ldif(text).map_err(ImportError::Ldif)?;
        let mut added = 0;
        for e in entries {
            match e.dn().parent() {
                Some(p) if self.contains(&p) => {}
                _ => self.add_suffix(e.dn().clone()),
            }
            self.add(e).map_err(ImportError::Dit)?;
            added += 1;
        }
        Ok(added)
    }

    // ---------------------------------------------------------------
    // Updates
    // ---------------------------------------------------------------

    /// Applies an update operation.
    ///
    /// # Errors
    ///
    /// Returns a [`DitError`] (and leaves the store unchanged) when the
    /// operation's preconditions fail; see the individual operations.
    pub fn apply(&mut self, op: UpdateOp) -> Result<ChangeRecord, DitError> {
        match op {
            UpdateOp::Add(e) => self.add(e),
            UpdateOp::Delete(dn) => self.delete(&dn),
            UpdateOp::Modify { dn, mods } => self.modify(&dn, mods),
            UpdateOp::ModifyDn { dn, new_rdn, new_superior } => {
                self.modify_dn(&dn, new_rdn, new_superior)
            }
        }
    }

    /// Adds an entry.
    ///
    /// # Errors
    ///
    /// * [`DitError::AlreadyExists`] if the DN is taken.
    /// * [`DitError::NoParent`] if the parent is absent and the DN is not a
    ///   registered suffix.
    pub fn add(&mut self, entry: Entry) -> Result<ChangeRecord, DitError> {
        self.check_place(entry.dn())?;
        let dn = entry.dn().clone();
        let changes = changes_of(&entry, entry.attr_names());
        self.entries.insert(entry);
        Ok(self.record(dn, ChangeKind::Add, changes, None))
    }

    /// Whether a new entry may be named `dn`: the name is free, and it is a
    /// registered suffix or the child of an entry.
    fn check_place(&self, dn: &Dn) -> Result<(), DitError> {
        if self.contains(dn) {
            return Err(DitError::AlreadyExists(dn.clone()));
        }
        if !self.suffixes.contains(dn) && !dn.parent().is_some_and(|p| self.contains(&p)) {
            return Err(DitError::NoParent(dn.clone()));
        }
        Ok(())
    }

    /// Deletes a leaf entry.
    ///
    /// # Errors
    ///
    /// * [`DitError::NoSuchEntry`] if absent.
    /// * [`DitError::NotLeaf`] if the entry has children.
    pub fn delete(&mut self, dn: &Dn) -> Result<ChangeRecord, DitError> {
        if !self.contains(dn) {
            return Err(DitError::NoSuchEntry(dn.clone()));
        }
        if self.has_children(dn) {
            return Err(DitError::NotLeaf(dn.clone()));
        }
        self.entries.remove(dn);
        Ok(self.record(dn.clone(), ChangeKind::Delete, Vec::new(), None))
    }

    /// Modifies an entry's attributes.
    ///
    /// # Errors
    ///
    /// * [`DitError::NoSuchEntry`] if absent.
    /// * [`DitError::NoSuchValue`] when deleting a value/attribute that is
    ///   not present (the store is left unchanged).
    pub fn modify(&mut self, dn: &Dn, mods: Vec<Modification>) -> Result<ChangeRecord, DitError> {
        let Some(id) = self.entries.id_of(dn) else {
            return Err(DitError::NoSuchEntry(dn.clone()));
        };
        let mut touched: Vec<AttrName> = Vec::new();
        for m in &mods {
            if !touched.contains(m.attr()) {
                touched.push(m.attr().clone());
            }
        }
        let entry = self.entries.edit(id, &touched, |entry| {
            for m in &mods {
                match m {
                    Modification::AddValues(a, vs) => {
                        for v in vs {
                            entry.add(a.clone(), v.clone());
                        }
                    }
                    Modification::DeleteValues(a, vs) => {
                        for v in vs {
                            if !entry.remove_value(a, v) {
                                return Err(DitError::NoSuchValue(dn.clone(), format!("{a}: {v}")));
                            }
                        }
                    }
                    Modification::DeleteAttr(a) => {
                        if !entry.remove_attr(a) {
                            return Err(DitError::NoSuchValue(dn.clone(), a.to_string()));
                        }
                    }
                    Modification::Replace(a, vs) => {
                        entry.replace(a.clone(), vs.iter().cloned());
                    }
                }
            }
            Ok(())
        })?;
        let changes = changes_of(entry, &touched);
        Ok(self.record(dn.clone(), ChangeKind::Modify, changes, None))
    }

    /// Renames and/or moves a leaf entry. Implements `deleteOldRDN=TRUE`
    /// semantics: the old RDN value is removed from the entry's attributes
    /// and the new one added. The entry keeps its id, so only the naming
    /// values are re-indexed.
    ///
    /// # Errors
    ///
    /// * [`DitError::NoSuchEntry`] if the source is absent.
    /// * [`DitError::NotLeaf`] if the source has children.
    /// * [`DitError::AlreadyExists`] if the destination DN is taken.
    /// * [`DitError::NoParent`] if the destination is not a registered
    ///   suffix and its parent does not exist: a renamed entry stays where
    ///   [`DitStore::add`] could have put it.
    /// * [`DitError::MoveUnderSelf`] if the new superior is under the source.
    pub fn modify_dn(
        &mut self,
        dn: &Dn,
        new_rdn: fbdr_ldap::Rdn,
        new_superior: Option<Dn>,
    ) -> Result<ChangeRecord, DitError> {
        let Some(id) = self.entries.id_of(dn) else {
            return Err(DitError::NoSuchEntry(dn.clone()));
        };
        if self.has_children(dn) {
            return Err(DitError::NotLeaf(dn.clone()));
        }
        let parent = match new_superior {
            Some(p) => {
                if dn.is_ancestor_or_self_of(&p) {
                    return Err(DitError::MoveUnderSelf(dn.clone()));
                }
                p
            }
            None => dn.parent().ok_or_else(|| DitError::NoSuchEntry(dn.clone()))?,
        };
        let new_dn = parent.child(new_rdn.clone());
        self.check_place(&new_dn)?;
        let mut naming = vec![new_rdn.attr().clone()];
        naming.extend(dn.rdn().map(|old| old.attr().clone()).filter(|a| a != new_rdn.attr()));
        let renamed = self.entries.edit(id, &naming, |entry| {
            // deleteOldRDN: drop the old naming value, add the new one.
            if let Some(old_rdn) = dn.rdn() {
                entry.remove_value(old_rdn.attr(), old_rdn.value());
            }
            entry.add(new_rdn.attr().clone(), new_rdn.value().clone());
            entry.set_dn(new_dn.clone());
            Ok(())
        });
        let changes = changes_of(renamed?, [new_rdn.attr()]);
        self.entries.rekey(dn, new_dn.clone());
        Ok(self.record(dn.clone(), ChangeKind::ModifyDn, changes, Some(new_dn)))
    }

    fn record(
        &mut self,
        dn: Dn,
        kind: ChangeKind,
        changes: Vec<(AttrName, ValueSet)>,
        new_dn: Option<Dn>,
    ) -> ChangeRecord {
        self.csn = self.csn.next();
        ChangeRecord { csn: self.csn, dn, kind, changes, new_dn }
    }

    // ---------------------------------------------------------------
    // Search
    // ---------------------------------------------------------------

    /// Evaluates a search request, returning matching entries projected on
    /// the requested attributes, in no particular order
    /// ([`search_sorted`](DitStore::search_sorted) gives one). The result
    /// holds handles on the stored bodies ([`Entry`] is shared
    /// copy-on-write): it costs its list, not a copy per entry, and later
    /// updates do not show through it.
    pub fn search(&self, req: &SearchRequest) -> Vec<Entry> {
        // References first, so the projected list is allocated at its length.
        let mut hits = Vec::new();
        self.for_each_match(req, |e| hits.push(e));
        hits.into_iter().map(|e| req.attrs().project(e)).collect()
    }

    /// Evaluates a search request and sorts the results server-side per
    /// an RFC 2891 sort control (the paper's §2.2 example of an LDAP
    /// control).
    pub fn search_sorted(&self, req: &SearchRequest, keys: &[fbdr_ldap::SortKey]) -> Vec<Entry> {
        let mut out = self.search(req);
        fbdr_ldap::sort_entries(&mut out, keys);
        out
    }

    /// Evaluates a search request, returning only the DNs of matches, in
    /// no particular order.
    pub fn search_dns(&self, req: &SearchRequest) -> Vec<Dn> {
        let mut dns = Vec::new();
        self.for_each_match(req, |e| dns.push(e.dn().clone()));
        dns
    }

    /// Streams every entry matching a search request to `f`, without
    /// materializing a result vector: the one candidate walk every search
    /// runs, plan → slot → scope → `matches`. Base and one-level scopes
    /// read the tree directly; a subtree search the index can bound
    /// ([`index::plan`]) visits the plan's candidates in id order, any
    /// other scans the subtree in tree order. An exact plan
    /// ([`index::Plan::exact`]) is the filter's answer, so its candidates
    /// get the base check alone — and not even that when the base covers
    /// every registered suffix, since every entry lies under one.
    ///
    /// This is the bulk-enumeration seam the sync layer's session
    /// installation uses: it interns ids straight off the borrowed
    /// entries, however many match. The entries are lent for the store's
    /// borrow, not just the call, so a caller merging several stores'
    /// matches can keep the references and project them once.
    pub fn for_each_match<'a>(&'a self, req: &SearchRequest, f: impl FnMut(&'a Entry)) {
        self.for_each_match_in(req.base(), req.scope(), req.filter(), f);
    }

    /// [`for_each_match`](DitStore::for_each_match) over a region and a
    /// filter given apart, for a caller that holds them apart — a sharded
    /// search clamps a shard's base and borrows the request's filter
    /// (`fbdr_net::ShardMap::split`), and builds no request to ask.
    pub fn for_each_match_in<'a>(
        &'a self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        f: impl FnMut(&'a Entry),
    ) {
        let matches = |e: &&'a Entry| filter.matches(e);
        match scope {
            Scope::Base => self.get(base).into_iter().filter(matches).for_each(f),
            Scope::OneLevel => self.children(base).filter(matches).for_each(f),
            Scope::Subtree => {
                let indexes = &self.entries.indexes;
                match index::plan(filter, &|p| indexes.lists_for_predicate(p)) {
                    None => self.subtree(base).filter(matches).for_each(f),
                    Some(plan) => {
                        let everywhere = self.suffixes.iter().all(|s| base.is_ancestor_or_self_of(s));
                        plan.ids
                            .iter()
                            .map(|&id| self.entries.get(id))
                            .filter(|e| everywhere || base.is_ancestor_or_self_of(e.dn()))
                            .filter(|e| plan.exact || matches(e))
                            .for_each(f)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::{Filter, Rdn};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn base_store() -> DitStore {
        let mut s = DitStore::new();
        s.add_suffix(dn("o=xyz"));
        s.add(Entry::new(dn("o=xyz")).with("objectclass", "organization")).unwrap();
        s.add(Entry::new(dn("c=us,o=xyz")).with("objectclass", "country")).unwrap();
        s.add(Entry::new(dn("c=in,o=xyz")).with("objectclass", "country")).unwrap();
        for (cn, sn, c, mail) in [
            ("John Doe", "045612", "us", "john@us.xyz.com"),
            ("Jane Roe", "045699", "us", "jane@us.xyz.com"),
            ("Ravi Rao", "120001", "in", "ravi@in.xyz.com"),
        ] {
            s.add(
                Entry::new(dn(&format!("cn={cn},c={c},o=xyz")))
                    .with("objectclass", "inetOrgPerson")
                    .with("cn", cn)
                    .with("serialNumber", sn)
                    .with("mail", mail),
            )
            .unwrap();
        }
        s
    }

    fn sub(base: &str, f: &str) -> SearchRequest {
        SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(f).unwrap())
    }

    #[test]
    fn add_requires_parent_or_suffix() {
        let mut s = DitStore::new();
        s.add_suffix(dn("o=xyz"));
        assert!(matches!(
            s.add(Entry::new(dn("cn=x,o=xyz"))),
            Err(DitError::NoParent(_))
        ));
        s.add(Entry::new(dn("o=xyz"))).unwrap();
        s.add(Entry::new(dn("cn=x,o=xyz"))).unwrap();
        assert!(matches!(
            s.add(Entry::new(dn("cn=x,o=xyz"))),
            Err(DitError::AlreadyExists(_))
        ));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn delete_leaf_only() {
        let mut s = base_store();
        assert!(matches!(s.delete(&dn("c=us,o=xyz")), Err(DitError::NotLeaf(_))));
        s.delete(&dn("cn=John Doe,c=us,o=xyz")).unwrap();
        assert!(!s.contains(&dn("cn=John Doe,c=us,o=xyz")));
        assert!(matches!(
            s.delete(&dn("cn=John Doe,c=us,o=xyz")),
            Err(DitError::NoSuchEntry(_))
        ));
    }

    #[test]
    fn search_by_equality_uses_index() {
        let s = base_store();
        let hits = s.search(&sub("o=xyz", "(serialNumber=045612)"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn(), &dn("cn=John Doe,c=us,o=xyz"));
    }

    #[test]
    fn search_by_prefix() {
        let s = base_store();
        assert_eq!(s.search(&sub("o=xyz", "(serialNumber=0456*)")).len(), 2);
        assert_eq!(s.search(&sub("c=in,o=xyz", "(serialNumber=0456*)")).len(), 0);
        assert_eq!(s.search(&sub("o=xyz", "(serialNumber=12*)")).len(), 1);
    }

    #[test]
    fn for_each_match_agrees_with_search_dns() {
        let s = base_store();
        let reqs = [
            sub("o=xyz", "(serialNumber=045612)"),
            sub("o=xyz", "(serialNumber=0456*)"),
            sub("o=xyz", "(!(mail=*))"),
            sub("c=us,o=xyz", "(objectclass=inetOrgPerson)"),
            SearchRequest::new(dn("o=xyz"), Scope::OneLevel, Filter::match_all()),
            SearchRequest::new(dn("c=us,o=xyz"), Scope::Base, Filter::match_all()),
        ];
        for req in &reqs {
            let mut streamed: Vec<Dn> = Vec::new();
            s.for_each_match(req, |e| streamed.push(e.dn().clone()));
            streamed.sort();
            let mut expect = s.search_dns(req);
            expect.sort();
            assert_eq!(streamed, expect, "request {req:?}");
        }
    }

    #[test]
    fn search_scope_variants() {
        let s = base_store();
        let all = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
        assert_eq!(s.search(&all).len(), 6);
        let one = SearchRequest::new(dn("o=xyz"), Scope::OneLevel, Filter::match_all());
        assert_eq!(s.search(&one).len(), 2); // c=us, c=in
        let base = SearchRequest::new(dn("c=us,o=xyz"), Scope::Base, Filter::match_all());
        assert_eq!(s.search(&base).len(), 1);
    }

    #[test]
    fn search_with_negation_scans() {
        let s = base_store();
        let hits = s.search(&sub("o=xyz", "(&(objectclass=inetOrgPerson)(!(mail=john@us.xyz.com)))"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_matches_brute_force() {
        let s = base_store();
        for f in [
            "(objectclass=*)",
            "(serialNumber>=45650)",
            "(serialNumber<=45650)",
            "(|(cn=John Doe)(cn=Ravi Rao))",
            "(&(objectclass=inetOrgPerson)(mail=*xyz.com))",
            "(cn=J*)",
        ] {
            let req = sub("o=xyz", f);
            let brute: Vec<Dn> = s
                .iter()
                .filter(|e| req.matches(e))
                .map(|e| e.dn().clone())
                .collect();
            let mut got = s.search_dns(&req);
            got.sort();
            let mut want = brute;
            want.sort();
            assert_eq!(got, want, "mismatch for {f}");
        }
    }

    #[test]
    fn modify_updates_index() {
        let mut s = base_store();
        let target = dn("cn=John Doe,c=us,o=xyz");
        s.modify(
            &target,
            vec![Modification::Replace("mail".into(), vec!["doe@us.xyz.com".into()])],
        )
        .unwrap();
        assert_eq!(s.search(&sub("o=xyz", "(mail=john@us.xyz.com)")).len(), 0);
        assert_eq!(s.search(&sub("o=xyz", "(mail=doe@us.xyz.com)")).len(), 1);
    }

    #[test]
    fn modify_lists_each_touched_attribute_once() {
        let mut s = base_store();
        let rec = s
            .modify(
                &dn("cn=John Doe,c=us,o=xyz"),
                vec![
                    Modification::Replace("mail".into(), vec!["a@x".into()]),
                    Modification::Replace("tel".into(), vec!["1".into()]),
                    Modification::AddValues("MAIL".into(), vec!["b@x".into()]),
                ],
            )
            .unwrap();
        let attrs: Vec<&str> = rec.changes.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(attrs, ["mail", "tel"]);
        assert_eq!(rec.changes[0].1, ValueSet::from_iter(["a@x".into(), "b@x".into()]));
        // The record shares the stored entry's sets; it copies no value.
        let stored = s.get(&dn("cn=John Doe,c=us,o=xyz")).unwrap();
        assert!(rec.changes[0].1.ptr_eq(stored.value_set(&"mail".into()).unwrap()));
    }

    /// The derived state says exactly what the entries hold. The index
    /// equals one rebuilt from the slots under the same ids, so no posting
    /// is missing and none is stale; the identity map and the order map
    /// name the same DNs under the same ids, each the id of the slot that
    /// holds the entry of that name.
    fn assert_index_exact(s: &DitStore) {
        let mut rebuilt = Indexes::default();
        for (id, e) in s.entries.slots.iter().enumerate() {
            for (a, vs) in e.iter().flat_map(Entry::attrs) {
                rebuilt.insert(a, index::keys_only_in(vs, None), id as u32);
            }
        }
        assert_eq!(s.entries.indexes, rebuilt);
        let live = s.entries.slots.iter().flatten().count();
        assert_eq!(s.entries.ids.len(), live);
        assert_eq!(s.entries.by_dn.len(), live);
        for (key, &id) in &s.entries.by_dn {
            assert_eq!(s.entries.ids.get(&key.0), Some(&id), "{}", key.0);
            assert_eq!(s.entries.get(id).dn(), &key.0);
        }
    }

    #[test]
    fn index_stays_exact_through_recycling_renames_and_spellings() {
        let mut s = base_store();
        let john = dn("cn=John Doe,c=us,o=xyz");
        let id = s.entries.id_of(&john).unwrap();
        s.delete(&john).unwrap();
        assert_index_exact(&s);
        // The freed id goes to the next add, with none of John's postings.
        let heir = dn("cn=Heir,c=in,o=xyz");
        s.add(Entry::new(heir.clone()).with("cn", "Heir").with("n", "0500").with("n", "500")).unwrap();
        assert_eq!(s.entries.id_of(&heir), Some(id));
        assert_index_exact(&s);
        // A rename keeps the id and moves only the naming value.
        s.modify_dn(&heir, Rdn::new("cn", "Heiress"), Some(dn("c=us,o=xyz"))).unwrap();
        assert_eq!(s.entries.id_of(&dn("cn=Heiress,c=us,o=xyz")), Some(id));
        assert_eq!(s.entries.id_of(&heir), None);
        assert_index_exact(&s);
        // Another spelling of the name is the same name: one key, one id.
        assert_eq!(s.entries.id_of(&dn("CN=heiress, C=US, O=XYZ")), Some(id));
        assert!(matches!(
            s.add(Entry::new(dn("CN=HEIRESS,c=us,o=xyz"))),
            Err(DitError::AlreadyExists(_))
        ));
        assert_index_exact(&s);
        // A reload derives the same maps from the entries alone.
        let reloaded: DitStore = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_index_exact(&reloaded);
        assert!(reloaded.contains(&dn("cn=HEIRESS,c=us,o=xyz")));
        // The numeric key 500 leaves with the last spelling of it.
        let heir = dn("cn=Heiress,c=us,o=xyz");
        let drop = |v: &str| vec![Modification::DeleteValues("n".into(), vec![v.into()])];
        s.modify(&heir, drop("500")).unwrap();
        assert_index_exact(&s);
        assert_eq!(s.search_dns(&sub("o=xyz", "(&(n>=500)(n<=500))")), vec![heir.clone()]);
        // A failed modify rolls the entry back and leaves the index alone.
        let mut both = drop("0500");
        both.extend(drop("absent"));
        assert!(s.modify(&heir, both).is_err());
        assert_index_exact(&s);
        s.modify(&heir, drop("0500")).unwrap();
        assert_index_exact(&s);
        assert_eq!(s.search_dns(&sub("o=xyz", "(n>=0)")), Vec::<Dn>::new());
        // Emptying the store empties the index.
        let leaves_first: Vec<Dn> = s.iter().map(|e| e.dn().clone()).collect();
        for d in leaves_first.iter().rev() {
            s.delete(d).unwrap();
        }
        assert_eq!(s.entries.indexes, Indexes::default());
        assert_eq!(s.entries.free.len(), s.entries.slots.len());
    }

    #[test]
    fn a_sole_carrier_respelling_its_integer_keeps_the_numeric_key() {
        // The old text key goes before the new one arrives, so the
        // attribute's text map is empty in between; `Num(500)` is in
        // neither pass and must sit the edit out.
        let carrier = dn("cn=John Doe,c=us,o=xyz");
        let respell: [fn(&str, &str) -> Vec<Modification>; 2] = [
            |_, to| vec![Modification::Replace("n".into(), vec![to.into()])],
            |from, to| {
                vec![
                    Modification::DeleteValues("n".into(), vec![from.into()]),
                    Modification::AddValues("n".into(), vec![to.into()]),
                ]
            },
        ];
        for mods in respell {
            let mut s = base_store();
            s.modify(&carrier, vec![Modification::AddValues("n".into(), vec!["500".into()])]).unwrap();
            for (from, to) in [("500", "0500"), ("0500", "+500")] {
                s.modify(&carrier, mods(from, to)).unwrap();
                assert_index_exact(&s);
                for f in ["(n>=1)", "(&(n>=500)(n<=500))", &format!("(n={to})")] {
                    assert_eq!(s.search_dns(&sub("o=xyz", f)), vec![carrier.clone()], "{f} after {from} -> {to}");
                }
                assert_eq!(s.search_dns(&sub("o=xyz", &format!("(n={from})"))), Vec::<Dn>::new());
            }
        }
    }

    #[test]
    fn modify_failure_leaves_store_unchanged() {
        let mut s = base_store();
        let target = dn("cn=John Doe,c=us,o=xyz");
        let before = s.get(&target).unwrap().clone();
        let err = s.modify(
            &target,
            vec![
                Modification::Replace("mail".into(), vec!["new@x".into()]),
                Modification::DeleteValues("fax".into(), vec!["123".into()]),
            ],
        );
        assert!(matches!(err, Err(DitError::NoSuchValue(_, _))));
        assert_eq!(s.get(&target).unwrap(), &before);
        assert_eq!(s.search(&sub("o=xyz", "(mail=john@us.xyz.com)")).len(), 1);
    }

    #[test]
    fn modify_dn_renames_and_reindexes() {
        let mut s = base_store();
        let old = dn("cn=John Doe,c=us,o=xyz");
        let rec = s
            .modify_dn(&old, Rdn::new("cn", "John M Doe"), None)
            .unwrap();
        assert_eq!(rec.kind, ChangeKind::ModifyDn);
        assert_eq!(rec.new_dn.as_ref().unwrap(), &dn("cn=John M Doe,c=us,o=xyz"));
        assert!(!s.contains(&old));
        let e = s.get(&dn("cn=John M Doe,c=us,o=xyz")).unwrap();
        // deleteOldRDN applied.
        assert!(!e.has_value(&"cn".into(), &"John Doe".into()));
        assert!(e.has_value(&"cn".into(), &"John M Doe".into()));
        // Index follows the rename.
        assert_eq!(s.search(&sub("o=xyz", "(cn=John M Doe)")).len(), 1);
        assert_eq!(s.search(&sub("o=xyz", "(cn=John Doe)")).len(), 0);
    }

    #[test]
    fn modify_dn_move_to_new_superior() {
        let mut s = base_store();
        let old = dn("cn=Ravi Rao,c=in,o=xyz");
        s.modify_dn(&old, Rdn::new("cn", "Ravi Rao"), Some(dn("c=us,o=xyz"))).unwrap();
        assert!(s.contains(&dn("cn=Ravi Rao,c=us,o=xyz")));
        // Subtree membership changed.
        assert_eq!(s.search(&sub("c=in,o=xyz", "(cn=Ravi Rao)")).len(), 0);
        assert_eq!(s.search(&sub("c=us,o=xyz", "(cn=Ravi Rao)")).len(), 1);
    }

    #[test]
    fn modify_dn_keeps_the_entry_under_a_suffix() {
        let mut s = DitStore::new();
        s.add_suffix(dn("o=xyz"));
        s.add_suffix(dn("o=abc"));
        s.add(Entry::new(dn("o=xyz")).with("mail", "m")).unwrap();
        s.add(Entry::new(dn("cn=a,o=xyz")).with("mail", "m")).unwrap();
        // An entry moved under the absent o=abc would have no parent, and
        // the suffix entry renamed in place would sit under no suffix:
        // `add` refuses both places, so does a rename.
        let moved = s.modify_dn(&dn("cn=a,o=xyz"), Rdn::new("cn", "a"), Some(dn("o=abc")));
        assert!(matches!(moved, Err(DitError::NoParent(_))), "{moved:?}");
        s.add(Entry::new(dn("o=abc"))).unwrap();
        s.modify_dn(&dn("cn=a,o=xyz"), Rdn::new("cn", "a"), Some(dn("o=abc"))).unwrap();
        let renamed = s.modify_dn(&dn("o=xyz"), Rdn::new("o", "elsewhere"), None);
        assert!(matches!(renamed, Err(DitError::NoParent(_))), "{renamed:?}");
        // A base that covers o=xyz alone does not reach the moved entry.
        assert_eq!(s.search_dns(&sub("o=xyz", "(mail=m)")), vec![dn("o=xyz")]);
    }

    #[test]
    fn a_history_fed_from_apply_accumulates_in_csn_order() {
        let mut s = base_store();
        let c0 = s.csn();
        let deleted = s.delete(&dn("cn=Ravi Rao,c=in,o=xyz")).unwrap();
        let mail = vec![Modification::Replace("mail".into(), vec!["j@x".into()])];
        let modified = s.modify(&dn("cn=Jane Roe,c=us,o=xyz"), mail).unwrap();
        // A refused update takes no CSN and leaves no record.
        assert!(s.delete(&dn("cn=Ravi Rao,c=in,o=xyz")).is_err());
        let since = [deleted, modified];
        assert_eq!((since[0].csn, since[1].csn), (c0.next(), s.csn()));
        assert_eq!(since[0].kind, ChangeKind::Delete);
        // Delete records carry no attributes — the changelog limitation.
        assert!(since[0].changes.is_empty());
    }

    #[test]
    fn for_each_match_counts() {
        let s = base_store();
        let count = |f: &str| {
            let mut n = 0;
            s.for_each_match(&sub("o=xyz", f), |_| n += 1);
            n
        };
        assert_eq!(count("(objectclass=inetOrgPerson)"), 3);
        assert_eq!(count("(serialNumber=0456*)"), 2);
        assert_eq!(count("(!(objectclass=*))"), 0);
    }

    #[test]
    fn sorted_search_control() {
        let s = base_store();
        let req = sub("o=xyz", "(objectclass=inetOrgPerson)");
        let sorted = s.search_sorted(&req, &[fbdr_ldap::SortKey::descending("serialNumber")]);
        let serials: Vec<String> = sorted
            .iter()
            .map(|e| e.first_value(&"serialNumber".into()).unwrap().raw().to_owned())
            .collect();
        assert_eq!(serials, ["120001", "045699", "045612"]);
    }

    #[test]
    fn store_serde_round_trip_preserves_behaviour() {
        let mut s = base_store();
        s.delete(&dn("cn=Ravi Rao,c=in,o=xyz")).unwrap();
        let json = serde_json::to_string(&s).expect("store serializes");
        let restored: DitStore = serde_json::from_str(&json).expect("store deserializes");
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.csn(), s.csn());
        // The store keeps no history, so its serialized form carries none.
        assert!(!json.contains("changelog") && !json.contains("tombstones"), "{json}");
        // Indexed searches behave identically after the round trip.
        for f in ["(serialNumber=0456*)", "(serialNumber>=45650)", "(mail=*xyz.com)"] {
            let q = sub("o=xyz", f);
            let dns = |store: &DitStore| {
                let mut dns = store.search_dns(&q);
                dns.sort();
                dns
            };
            assert_eq!(dns(&restored), dns(&s), "{f}");
        }
    }

    /// The snapshot format does not see how an entry shares its body: the
    /// bytes are the ones the owned `BTreeMap` of sets serialized to.
    #[test]
    fn an_entry_serializes_to_the_bytes_it_always_did() {
        let e = Entry::new(dn("cn=Doe\\, John,ou=research,c=us,o=xyz"))
            .with("objectClass", "inetOrgPerson")
            .with("cn", "John Doe")
            .with("cn", "John M Doe")
            .with("serialNumber", "0456")
            .with("mail", "john@us.xyz.com");
        let json = concat!(
            r#"{"dn":[{"attr":"cn","value":"Doe, John"},{"attr":"ou","value":"research"},"#,
            r#"{"attr":"c","value":"us"},{"attr":"o","value":"xyz"}],"#,
            r#""attrs":{"cn":["John Doe","John M Doe"],"mail":["john@us.xyz.com"],"#,
            r#""objectClass":["inetOrgPerson"],"serialNumber":["0456"]}}"#,
        );
        assert_eq!(serde_json::to_string(&e).expect("entry serializes"), json);
        // A shared and since-written handle reads and writes the same form.
        let mut twin = e.clone();
        twin.add("mail", "jd@us.xyz.com");
        twin.remove_value(&"mail".into(), &"jd@us.xyz.com".into());
        assert_eq!(serde_json::to_string(&twin).expect("entry serializes"), json);
        assert_eq!(serde_json::from_str::<Entry>(json).expect("entry deserializes"), e);
    }

    /// A store serialized before the log left it (literal bytes, taken
    /// from that code) still loads: the two history keys are dropped, and
    /// entries, suffixes and the CSN counter carry on as they were.
    #[test]
    fn a_snapshot_that_carries_a_changelog_loads_without_it() {
        let a = r#"{"dn":[{"attr":"cn","value":"a"},{"attr":"o","value":"xyz"}],"attrs":{"cn":["a"],"dept":["7"],"mail":["a@x"]}}"#;
        let old = concat!(
            r#"{"entries":[{"dn":[{"attr":"o","value":"xyz"}],"attrs":{"objectclass":["organization"]}},"#,
            r#"{"dn":[{"attr":"cn","value":"a"},{"attr":"o","value":"xyz"}],"attrs":{"cn":["a"],"dept":["7"],"mail":["a@x"]}}],"#,
            r#""suffixes":[[{"attr":"o","value":"xyz"}]],"csn":5,"#,
            r#""changelog":[{"csn":1,"dn":[{"attr":"o","value":"xyz"}],"kind":"Add","changes":[["objectclass",["organization"]]],"new_dn":null},"#,
            r#"{"csn":2,"dn":[{"attr":"cn","value":"a"},{"attr":"o","value":"xyz"}],"kind":"Add","changes":[["cn",["a"]],["dept",["7"]]],"new_dn":null},"#,
            r#"{"csn":3,"dn":[{"attr":"cn","value":"b"},{"attr":"o","value":"xyz"}],"kind":"Add","changes":[["cn",["b"]],["dept",["7"]]],"new_dn":null},"#,
            r#"{"csn":4,"dn":[{"attr":"cn","value":"b"},{"attr":"o","value":"xyz"}],"kind":"Delete","changes":[],"new_dn":null},"#,
            r#"{"csn":5,"dn":[{"attr":"cn","value":"a"},{"attr":"o","value":"xyz"}],"kind":"Modify","changes":[["mail",["a@x"]]],"new_dn":null}],"#,
            r#""tombstones":[{"dn":[{"attr":"cn","value":"b"},{"attr":"o","value":"xyz"}],"csn":4}]}"#,
        );
        let mut s: DitStore = serde_json::from_str(old).expect("an old snapshot loads");
        assert_index_exact(&s);
        assert_eq!((s.len(), s.csn(), s.suffixes()), (2, Csn(5), &[dn("o=xyz")][..]));
        assert_eq!(serde_json::to_string(s.get(&dn("cn=a,o=xyz")).unwrap()).unwrap(), a);
        assert_eq!(s.search_dns(&sub("o=xyz", "(dept=7)")), vec![dn("cn=a,o=xyz")]);
        // Written back, it is the old form less the two keys.
        let (kept, _) = old.split_once(r#","changelog""#).unwrap();
        assert_eq!(serde_json::to_string(&s).unwrap(), format!("{kept}}}"));
        let rec = s.add(Entry::new(dn("cn=b,o=xyz")).with("cn", "b")).unwrap();
        assert_eq!(rec.csn, Csn(6));
        // A record's changes read and write the form they had as lists.
        let rec5 = r#"{"csn":5,"dn":[{"attr":"cn","value":"a"},{"attr":"o","value":"xyz"}],"kind":"Modify","changes":[["mail",["a@x"]]],"new_dn":null}"#;
        let read: ChangeRecord = serde_json::from_str(rec5).unwrap();
        assert_eq!(read.changes, [("mail".into(), ValueSet::from_iter(["a@x".into()]))]);
        assert_eq!(serde_json::to_string(&read).unwrap(), rec5);
    }

    #[test]
    fn a_snapshot_naming_one_dn_twice_is_rejected() {
        let mut s = DitStore::new();
        s.add_suffix(dn("o=xyz"));
        s.add(Entry::new(dn("o=xyz")).with("objectclass", "organization")).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let (head, tail) = json.split_once("\"entries\":[").expect("entries are a sequence");
        let (one, tail) = tail.split_once("],\"suffixes\"").expect("suffixes follow");
        let with = |entries: &str| format!("{head}\"entries\":[{entries}],\"suffixes\"{tail}");
        assert_eq!(serde_json::from_str::<DitStore>(&with(one)).unwrap().len(), 1);
        let err = serde_json::from_str::<DitStore>(&with(&format!("{one},{one}"))).unwrap_err();
        assert!(err.to_string().contains("duplicate entry o=xyz"), "{err}");
    }

    #[test]
    fn a_snapshot_holding_an_orphan_is_refused() {
        let entry = |dn: &str| format!(r#"{{"dn":{dn},"attrs":{{"dept":["7"]}}}}"#);
        let xyz = entry(r#"[{"attr":"o","value":"xyz"}]"#);
        let a = entry(r#"[{"attr":"cn","value":"a"},{"attr":"o","value":"xyz"}]"#);
        let stray = entry(r#"[{"attr":"cn","value":"s"},{"attr":"o","value":"abc"}]"#);
        let snapshot = |entries: &[&String]| {
            let entries: Vec<&str> = entries.iter().map(|e| e.as_str()).collect();
            format!(
                r#"{{"entries":[{}],"suffixes":[[{{"attr":"o","value":"xyz"}}]],"csn":2}}"#,
                entries.join(",")
            )
        };
        let sound: DitStore = serde_json::from_str(&snapshot(&[&xyz, &a])).expect("parents first");
        let everywhere = SearchRequest::new(Dn::root(), Scope::Subtree, Filter::parse("(dept=7)").unwrap());
        assert_eq!(sound.search_dns(&everywhere).len(), 2);
        // A child before its parent, and an entry under no suffix: either
        // would answer a root search from a place `add` never lets it be.
        for (entries, orphan) in [([&a, &xyz], "cn=a,o=xyz"), ([&xyz, &stray], "cn=s,o=abc")] {
            let err = serde_json::from_str::<DitStore>(&snapshot(&entries)).unwrap_err();
            assert!(err.to_string().contains(&format!("orphan entry {orphan}")), "{err}");
        }
    }

    #[test]
    fn ldif_export_import_round_trip() {
        let s = base_store();
        let text = s.export_ldif(None);
        let mut restored = DitStore::new();
        let n = restored.import_ldif(&text).unwrap();
        assert_eq!(n, s.len());
        assert_eq!(restored.len(), s.len());
        for e in s.iter() {
            assert_eq!(restored.get(e.dn()), Some(e));
        }
        // Searches behave identically on the restored store.
        let q = sub("o=xyz", "(serialNumber=0456*)");
        assert_eq!(restored.search(&q).len(), s.search(&q).len());
    }

    #[test]
    fn ldif_subtree_export() {
        let s = base_store();
        let base = dn("c=us,o=xyz");
        let text = s.export_ldif(Some(&base));
        let mut restored = DitStore::new();
        assert_eq!(restored.import_ldif(&text).unwrap(), 3);
        assert!(restored.contains(&dn("cn=John Doe,c=us,o=xyz")));
        assert!(!restored.contains(&dn("c=in,o=xyz")));
    }

    #[test]
    fn ldif_import_duplicate_fails() {
        let s = base_store();
        let text = s.export_ldif(None);
        let mut target = base_store();
        assert!(matches!(
            target.import_ldif(&text),
            Err(ImportError::Dit(DitError::AlreadyExists(_)))
        ));
    }

    #[test]
    fn subtree_and_children_iteration() {
        let s = base_store();
        assert_eq!(s.subtree(&dn("c=us,o=xyz")).count(), 3);
        assert_eq!(s.children(&dn("o=xyz")).count(), 2);
        assert_eq!(s.subtree(&dn("o=none")).count(), 0);
    }
}
