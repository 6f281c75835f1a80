//! Per-epoch attribute indexes over a content snapshot.
//!
//! A [`SnapshotIndex`] maps attribute values to sorted posting lists of
//! interned entry ids. What it lists an entry under, which lists a
//! predicate reads and how a filter combines them are the rules of
//! [`fbdr_dit::index`], the same ones the master's store answers by; this
//! module is the storage an epoch-publishing store needs under them.
//!
//! Lifecycle: every map in the index is a persistent [`PMap`] — its text
//! keys the shared [`TextKey`], compared in the node — and every
//! posting list sits behind its own `Arc`, so cloning the index for the
//! next epoch is one pointer copy and the two epochs share every node the
//! writer does not touch. A cycle pays for what it changes: per changed
//! index key one root-to-leaf path in its value map (a few nodes of at
//! most 32 items) plus the posting list it edits;
//! [`SnapshotIndex::reindex`] diffs the old and new version of an entry so
//! a `Modify` touches only the values that differ. A node or list is
//! copied on its first touch in a cycle and edited in place on every later
//! one, so a bulk install stays a bulk load. The index is never rebuilt
//! from the entry store.

use crate::persistent::PMap;
use fbdr_dit::index::{self, Key, Plan, TextKey};
use fbdr_dit::posting;
use fbdr_ldap::{Entry, Filter, Predicate};
use std::borrow::Cow;
use std::sync::Arc;

/// A posting list shared between the epochs that do not edit it.
type Ids = Arc<Vec<u32>>;

/// Posting lists for one attribute.
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// Normalized value text → ids, in lexicographic order.
    text: PMap<TextKey, Ids>,
    /// Integer view of the values that have one → ids.
    num: PMap<i64, Ids>,
}

/// An edit of one posting list; returns whether the list still holds an
/// id afterwards (an emptied list is dropped with its key, unedited).
type Edit = fn(&mut Ids, u32) -> bool;

fn add_id(list: &mut Ids, id: u32) -> bool {
    posting::insert_sorted(Arc::make_mut(list), id);
    true
}

fn remove_id(list: &mut Ids, id: u32) -> bool {
    if **list == [id] {
        return false;
    }
    posting::remove_sorted(Arc::make_mut(list), id);
    !list.is_empty()
}

/// Immutable-per-epoch equality/prefix/range index over snapshot entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotIndex {
    /// Lowercased attribute name → the attribute's posting lists.
    by_attr: PMap<TextKey, AttrPostings>,
}

impl SnapshotIndex {
    /// Moves `id` from the attribute values of `old` to those of `new`
    /// (`None`: the slot was, or becomes, empty), touching only what
    /// differs. `old` must be the entry version last indexed under `id`.
    pub(crate) fn reindex(&mut self, id: u32, old: Option<&Entry>, new: Option<&Entry>) {
        if let Some(old) = old {
            self.edit_difference(id, old, new, remove_id);
        }
        if let Some(new) = new {
            self.edit_difference(id, new, old, add_id);
        }
    }

    /// Applies `edit` to the posting list of every index key `e` is
    /// listed under and `other` is not.
    fn edit_difference(&mut self, id: u32, e: &Entry, other: Option<&Entry>, edit: Edit) {
        for (attr, values) in e.attrs() {
            let mut keys =
                index::keys_only_in(values, other.and_then(|o| o.value_set(attr))).peekable();
            if keys.peek().is_none() {
                continue;
            }
            self.by_attr.update(attr.lower().as_bytes(), || TextKey::new(attr.lower()), |idx| {
                for key in keys {
                    match key {
                        Key::Text(k) => {
                            idx.text.update(k.as_bytes(), || TextKey::new(k), |list| edit(list, id))
                        }
                        Key::Num(n) => idx.num.update(&n, || n, |list| edit(list, id)),
                    }
                }
                // The attribute leaves with its last key. Both maps are
                // asked: an integer changing its spelling takes the only
                // text key out while its numeric key stays listed.
                !(idx.text.is_empty() && idx.num.is_empty())
            });
        }
    }

    /// Compiles a filter into a candidate posting list by the shared
    /// rules ([`index::plan`]): a sorted superset of the ids of the
    /// entries matching `filter`, and whether it is exactly that set;
    /// `None` when the caller must scan.
    pub(crate) fn plan<'a>(&'a self, filter: &Filter) -> Option<Plan<'a>> {
        index::plan(filter, &|p| self.lists_for_predicate(p))
    }

    /// The store's half of [`index::plan`].
    fn lists_for_predicate<'a>(&'a self, p: &Predicate) -> Option<Cow<'a, [u32]>> {
        let scan = index::predicate_scan(p)?;
        let Some(idx) = self.by_attr.get(p.attr().lower().as_bytes()) else {
            return Some(Cow::Owned(Vec::new()));
        };
        Some(index::scan_lists(
            &scan,
            |k| idx.text.get(k).map(|list| list.as_slice()),
            |lo, hi| idx.text.range::<[u8]>(lo, hi).map(|(k, list)| (k, list.as_slice())),
            |lo, hi| idx.num.range(lo, hi).map(|(_, list)| list.as_slice()),
        ))
    }
}

#[cfg(test)]
impl SnapshotIndex {
    /// Addresses of every map node and posting list, for
    /// structural-sharing assertions.
    pub(crate) fn node_addrs(&self) -> Vec<usize> {
        fn lists<K: Ord>(map: &PMap<K, Ids>, out: &mut Vec<usize>) {
            out.extend(map.node_addrs());
            out.extend(map.iter().map(|(_, l)| Arc::as_ptr(l) as usize));
        }
        let mut out = self.by_attr.node_addrs();
        for (_, idx) in self.by_attr.iter() {
            lists(&idx.text, &mut out);
            lists(&idx.num, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32) -> Entry {
        Entry::new(format!("cn=e{id},o=x").parse().unwrap())
            .with("objectclass", "person")
            .with("serialNumber", &format!("{:06}", 100_000 + id))
            .with("dept", &format!("{}", id % 3))
    }

    fn sample(n: u32) -> SnapshotIndex {
        let mut ix = SnapshotIndex::default();
        for id in 0..n {
            ix.reindex(id, None, Some(&entry(id)));
        }
        ix
    }

    fn plan_of(ix: &SnapshotIndex, f: &str) -> Option<Vec<u32>> {
        ix.plan(&Filter::parse(f).unwrap()).map(|p| p.ids.into_owned())
    }

    #[test]
    fn equality_plans_and_presence_does_not() {
        let ix = sample(10);
        assert_eq!(plan_of(&ix, "(serialNumber=100003)"), Some(vec![3]));
        assert_eq!(plan_of(&ix, "(serialNumber=999999)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(missing=1)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(objectclass=*)"), None);
        assert_eq!(plan_of(&ix, "(&(objectclass=*)(dept=1))"), Some(vec![1, 4, 7]));
    }

    #[test]
    fn prefix_and_range_plans() {
        let ix = sample(20);
        // 100000..100019 — prefix 10001 covers ids 10..19.
        assert_eq!(plan_of(&ix, "(serialNumber=10001*)"), Some((10..20).collect()));
        assert_eq!(plan_of(&ix, "(serialNumber>=100015)"), Some((15..20).collect()));
        assert_eq!(plan_of(&ix, "(serialNumber<=100002)"), Some((0..3).collect()));
        // No initial component: cannot plan.
        assert_eq!(plan_of(&ix, "(serialNumber=*5)"), None);
    }

    #[test]
    fn boolean_plans() {
        let ix = sample(12);
        // And intersects; the dept list has ~4 ids, serial range 6.
        assert_eq!(plan_of(&ix, "(&(dept=0)(serialNumber>=100006))"), Some(vec![6, 9]));
        // A non-plannable conjunct is simply dropped from the plan.
        assert_eq!(
            plan_of(&ix, "(&(dept=1)(serialNumber=*x*))"),
            Some(vec![1, 4, 7, 10])
        );
        // Or unions, but only if every branch plans.
        assert_eq!(
            plan_of(&ix, "(|(serialNumber=100001)(dept=2))"),
            Some(vec![1, 2, 5, 8, 11])
        );
        assert_eq!(plan_of(&ix, "(|(dept=0)(x=*y))"), None);
        assert_eq!(plan_of(&ix, "(!(dept=0))"), None);
        assert_eq!(plan_of(&ix, "(&(!(dept=0))(x=*y))"), None);
    }

    #[test]
    fn reindex_moves_only_the_values_that_differ() {
        let mut ix = sample(6);
        let untouched = ix.by_attr.get("serialnumber".as_bytes()).unwrap().text.node_addrs();
        let mut new = entry(2);
        new.replace("dept", ["7"]);
        new.add("mail", "two@x");
        ix.reindex(2, Some(&entry(2)), Some(&new));
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![5]));
        assert_eq!(plan_of(&ix, "(dept=7)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(dept>=3)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(mail=two@x)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(serialNumber=100002)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(objectclass=person)"), Some((0..6).collect()));
        assert_eq!(ix.by_attr.get("serialnumber".as_bytes()).unwrap().text.node_addrs(), untouched);
        // Back again: the added attribute leaves with its only carrier.
        ix.reindex(2, Some(&new), Some(&entry(2)));
        assert_eq!(plan_of(&ix, "(mail=two@x)"), Some(vec![]));
        assert!(ix.by_attr.get("mail".as_bytes()).is_none());
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![2, 5]));
    }

    #[test]
    fn remove_keeps_index_exact() {
        let mut ix = sample(6);
        ix.reindex(2, Some(&entry(2)), None);
        assert_eq!(plan_of(&ix, "(serialNumber=100002)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![5]));
        assert_eq!(plan_of(&ix, "(objectclass=person)"), Some(vec![0, 1, 3, 4, 5]));
        // Removing everything empties the maps entirely.
        for id in [0u32, 1, 3, 4, 5] {
            ix.reindex(id, Some(&entry(id)), None);
        }
        assert!(ix.by_attr.is_empty());
    }

    #[test]
    fn a_numeric_key_outlives_all_but_its_last_spelling() {
        let e = |values: &[&str]| {
            values.iter().fold(Entry::new("cn=e,o=x".parse().unwrap()), |e, v| e.with("n", v))
        };
        let mut ix = SnapshotIndex::default();
        ix.reindex(0, None, Some(&e(&["0500", "500", "5oo"])));
        assert_eq!(plan_of(&ix, "(n>=500)"), Some(vec![0]));
        ix.reindex(0, Some(&e(&["0500", "500", "5oo"])), Some(&e(&["0500", "5oo"])));
        assert_eq!(plan_of(&ix, "(n=500)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(&(n>=500)(n<=500))"), Some(vec![0]));
        ix.reindex(0, Some(&e(&["0500", "5oo"])), Some(&e(&["5oo"])));
        assert_eq!(plan_of(&ix, "(n>=-9)"), Some(vec![]));
        assert!(ix.by_attr.get("n".as_bytes()).unwrap().num.is_empty());
        assert_eq!(plan_of(&ix, "(n>=5a)"), Some(vec![0]));
    }

    #[test]
    fn a_sole_carrier_respelling_its_integer_keeps_the_numeric_key() {
        // The old text key goes before the new one arrives, so the
        // attribute's text map is empty in between; the numeric key is in
        // neither pass and must sit the edit out.
        let e = |v: &str| Entry::new("cn=e,o=x".parse().unwrap()).with("n", v);
        let mut ix = SnapshotIndex::default();
        ix.reindex(0, None, Some(&e("500")));
        for (from, to) in [("500", "0500"), ("0500", "+500")] {
            ix.reindex(0, Some(&e(from)), Some(&e(to)));
            assert_eq!(plan_of(&ix, "(n>=1)"), Some(vec![0]), "{from} -> {to}");
            assert_eq!(plan_of(&ix, "(&(n>=500)(n<=500))"), Some(vec![0]));
            assert_eq!(plan_of(&ix, &format!("(n={to})")), Some(vec![0]));
            assert_eq!(plan_of(&ix, &format!("(n={from})")), Some(vec![]));
        }
        ix.reindex(0, Some(&e("+500")), None);
        assert!(ix.by_attr.is_empty());
    }
}
