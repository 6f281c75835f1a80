//! Per-epoch attribute indexes over a content snapshot.
//!
//! A [`SnapshotIndex`] maps attribute values to sorted posting lists of
//! interned entry ids. What it lists an entry under, which lists a
//! predicate reads and how a filter combines them are the rules of
//! [`fbdr_dit::index`], the same ones the master's store answers by; this
//! module is the storage an epoch-publishing store needs under them.
//!
//! Lifecycle: every map in the index is a persistent [`PMap`] — its text
//! keys the shared [`TextKey`], its values [`Posting`]s, both kept in the
//! node when short — so cloning the index for the next epoch is one
//! pointer copy and the two epochs share every node the writer does not
//! touch. A key that one entry holds keeps its id in its node; a key of
//! two or more ids shares its list between the epochs behind an `Arc`. A cycle
//! pays for what it changes: per changed index key one root-to-leaf path
//! in its value map (a few nodes of at most 32 items) plus the shared list
//! it edits, if the key has one; [`SnapshotIndex::reindex`] diffs the old
//! and new version of an entry so a `Modify` touches only the values that
//! differ. A node or list is copied on its first touch in a cycle and
//! edited in place on every later one, so a bulk install stays a bulk
//! load. The index is never rebuilt from the entry store.
//!
//! A cached query's frozen result is never edited, and is read far less
//! often than it is built, so a large one gets [`KeyColumns`] instead: per
//! attribute an unsorted list of each value's position and text, planned
//! by the same rules.

use crate::persistent::PMap;
use fbdr_dit::index::{self, Key, Plan, TextKey};
use fbdr_dit::posting::Posting;
use fbdr_ldap::{AttrName, Entry, Filter, Predicate};
use std::borrow::Cow;

/// Postings for one attribute.
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// Normalized value text → ids, in lexicographic order.
    text: PMap<TextKey, Posting>,
    /// Integer view of the values that have one → ids.
    num: PMap<i64, Posting>,
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
            self.edit_difference(old, new, |ids| {
                ids.remove(id);
                !ids.is_empty()
            });
        }
        if let Some(new) = new {
            self.edit_difference(new, old, |ids| {
                ids.insert(id);
                true
            });
        }
    }

    /// Applies `edit` to the posting of every index key `e` is listed
    /// under and `other` is not; `edit` returns whether the key stays (a
    /// key goes with its last id).
    fn edit_difference(
        &mut self,
        e: &Entry,
        other: Option<&Entry>,
        edit: impl Fn(&mut Posting) -> bool,
    ) {
        for (attr, values) in e.attrs() {
            let mut keys =
                index::keys_only_in(values, other.and_then(|o| o.value_set(attr))).peekable();
            if keys.peek().is_none() {
                continue;
            }
            self.by_attr.update(attr.lower().as_bytes(), || TextKey::new(attr.lower()), |idx| {
                for key in keys {
                    match key {
                        Key::Text(k) => idx.text.update(k.as_bytes(), || TextKey::new(k), &edit),
                        Key::Num(n) => idx.num.update(&n, || n, &edit),
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
            |k| idx.text.get(k),
            |lo, hi| idx.text.range::<[u8]>(lo, hi),
            |lo, hi| idx.num.range(lo, hi),
        ))
    }
}

/// Key columns over a list of entries — a cached query's frozen result:
/// for each attribute a filter names, every value's normalized text with
/// the position of the entry holding it, in list order and unsorted.
///
/// Building them reads each value once and sorts nothing. A scan is
/// answered by testing every key of the attribute's column
/// ([`index::text_key_in`]): on a thousand keys, a pass over two short
/// contiguous lists instead of a verification of a thousand scattered
/// entries. The columns hold no integer keys.
#[derive(Debug, Default)]
pub(crate) struct KeyColumns(Vec<Column>);

/// One attribute's column. The texts lie end to end in one buffer, and
/// each value is its entry's position and where its text ends: a thousand
/// serial numbers are 14 kB, where a [`TextKey`] per value, 32 B with its
/// position, made 32 kB to write at the build and to read at every scan.
#[derive(Debug)]
struct Column {
    attr: AttrName,
    text: Vec<u8>,
    /// `(position, end of the value's text)`, in list order.
    values: Vec<(u32, u32)>,
}

impl KeyColumns {
    /// The columns of `attrs` over `entries`. An attribute no entry holds
    /// gets none, and so does one whose text outgrows a `u32` offset.
    pub(crate) fn build(attrs: &[&AttrName], entries: &[Entry]) -> Self {
        let column = |attr: &AttrName| -> Option<Column> {
            let mut column = Column { attr: attr.clone(), text: Vec::new(), values: Vec::new() };
            for (pos, e) in entries.iter().enumerate() {
                for v in e.values(attr) {
                    column.text.extend_from_slice(v.normalized().as_bytes());
                    let end = u32::try_from(column.text.len()).ok()?;
                    column.values.push((u32::try_from(pos).ok()?, end));
                }
            }
            (!column.values.is_empty()).then_some(column)
        };
        KeyColumns(attrs.iter().filter_map(|&attr| column(attr)).collect())
    }

    /// Compiles a filter into candidate positions by the shared rules
    /// ([`index::plan`]), as [`SnapshotIndex::plan`] compiles it into ids:
    /// a predicate on an attribute without a column, and a numeric bound,
    /// do not plan.
    pub(crate) fn plan(&self, filter: &Filter) -> Option<Plan<'static>> {
        index::plan(filter, &|p| self.lists_for_predicate(p))
    }

    /// The positions whose value the predicate's scan names, ascending and
    /// each once.
    fn lists_for_predicate(&self, p: &Predicate) -> Option<Cow<'static, [u32]>> {
        let scan = index::predicate_scan(p)?;
        let column = self.0.iter().find(|c| &c.attr == p.attr())?;
        let mut positions: Vec<u32> = Vec::new();
        let mut start = 0;
        for &(pos, end) in &column.values {
            let key = &column.text[start..end as usize];
            start = end as usize;
            if index::text_key_in(&scan, key)? && positions.last() != Some(&pos) {
                positions.push(pos);
            }
        }
        Some(Cow::Owned(positions))
    }
}

#[cfg(test)]
impl SnapshotIndex {
    /// Addresses of every map node and of every list still on the heap —
    /// a key's, when it holds two or more ids — for structural-sharing
    /// assertions.
    pub(crate) fn node_addrs(&self) -> Vec<usize> {
        fn lists<K: Ord>(map: &PMap<K, Posting>, out: &mut Vec<usize>) {
            out.extend(map.node_addrs());
            let heap = map.iter().filter(|(_, ids)| !ids.is_inline());
            out.extend(heap.map(|(_, ids)| ids.as_slice().as_ptr() as usize));
        }
        let mut out = self.by_attr.node_addrs();
        for (_, idx) in self.by_attr.iter() {
            lists(&idx.text, &mut out);
            lists(&idx.num, &mut out);
        }
        out
    }

    /// Every posting, text keys' then numeric keys', attribute by
    /// attribute.
    pub(crate) fn postings(&self) -> Vec<&Posting> {
        let mut out = Vec::new();
        for (_, idx) in self.by_attr.iter() {
            out.extend(idx.text.iter().map(|(_, ids)| ids));
            out.extend(idx.num.iter().map(|(_, ids)| ids));
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
