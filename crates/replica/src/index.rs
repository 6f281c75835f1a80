//! Per-epoch attribute indexes over a content snapshot.
//!
//! A [`SnapshotIndex`] maps attribute values to sorted posting lists of
//! interned entry ids. What it lists an entry under, which lists a
//! predicate reads and how a filter combines them are the rules of
//! [`fbdr_dit::index`], the same ones the master's store answers by; this
//! module is the storage an epoch-publishing store needs under them.
//!
//! What it keeps: the index knows every attribute a held entry carries,
//! but lists values only under the attributes a query has planned on
//! (*kept*). A replica answers a contained query by evaluating it over
//! what it holds (the paper's §7), so an attribute no query names —
//! `telephoneNumber`, `roomNumber` — is never read through the index, and
//! keeping it would make every write that touches it pay for nothing. The
//! first query that plans on a carried attribute the index does not keep
//! has it kept (`FilterReplica::try_answer`, by the rule
//! [`index::unkept_in`] states for both stores): its values are listed over
//! the held entries once, and every later write maintains them. Until
//! then the predicate does not plan, and its candidates are verified. A
//! name no held entry carries plans to the empty list, and is never kept,
//! so a query naming attributes nobody holds grows nothing.
//!
//! Lifecycle: every map in the index is a persistent [`PMap`] — its text
//! keys the shared [`TextKey`], its values [`Posting`]s, both kept in the
//! node when short — so cloning the index for the next epoch is one
//! pointer copy and the two epochs share every node the writer does not
//! touch. A key that one entry holds keeps its id in its node; a key of
//! two or more ids shares its list between the epochs behind an `Arc`. A cycle
//! pays for what it changes in the kept attributes: per changed index key one root-to-leaf path
//! in its value map (a few nodes of at most 32 items) plus the shared list
//! it edits, if the key has one; [`SnapshotIndex::reindex`] diffs the old
//! and new version of an entry so a `Modify` touches only the values that
//! differ, and skips an attribute the index does not keep before it
//! computes a key. A node or list is copied on its first touch in a cycle and
//! edited in place on every later one, so a bulk install stays a bulk
//! load. A kept attribute is never rebuilt from the entry store: it is
//! listed over the held entries once, when it is kept
//! ([`SnapshotIndex::keep`]), and edited from then on.
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
use std::cell::Cell;

/// Postings for one attribute.
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// Normalized value text → ids, in lexicographic order.
    text: PMap<TextKey, Posting>,
    /// Integer view of the values that have one → ids.
    num: PMap<i64, Posting>,
}

impl AttrPostings {
    /// Applies `edit` to the posting under `key`, as [`PMap::update`] does.
    fn update(&mut self, key: Key<'_>, edit: impl FnOnce(&mut Posting) -> bool) {
        match key {
            Key::Text(k) => self.text.update(k.as_bytes(), || TextKey::new(k), edit),
            Key::Num(n) => self.num.update(&n, || n, edit),
        }
    }
}

/// Immutable-per-epoch equality/prefix/range index over snapshot entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotIndex {
    /// The lowercased name of every attribute a held entry carries or
    /// once carried → the attribute's posting lists once it is kept,
    /// `None` before. A name is added on its first sight and stays, so
    /// the map is bounded by the names the held entries carry, never by
    /// the names queries ask for.
    by_attr: PMap<TextKey, Option<AttrPostings>>,
}

/// What [`SnapshotIndex::plan`] found.
#[derive(Debug)]
pub(crate) struct Planned<'a> {
    /// The plan by [`index::plan`]'s rules; `None` when the caller must
    /// scan.
    pub(crate) plan: Option<Plan<'a>>,
    /// Whether a predicate that would have planned named an attribute the
    /// index carries but does not keep, so that it did not.
    pub(crate) unkept: bool,
}

impl SnapshotIndex {
    /// Moves `id` from the attribute values of `old` to those of `new`
    /// (`None`: the slot was, or becomes, empty), touching only what
    /// differs in the kept attributes. `old` must be the entry version
    /// last indexed under `id`.
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

    /// Applies `edit` to the posting of every key of a kept attribute
    /// that `e` is listed under and `other` is not; `edit` returns whether
    /// the key stays (a key goes with its last id). An attribute seen for
    /// the first time is added, not kept.
    fn edit_difference(
        &mut self,
        e: &Entry,
        other: Option<&Entry>,
        edit: impl Fn(&mut Posting) -> bool,
    ) {
        for (attr, values) in e.attrs() {
            let name = attr.lower().as_bytes();
            match self.by_attr.get(name) {
                Some(Some(_)) => {}
                Some(None) => continue,
                None => {
                    self.by_attr.update(name, || TextKey::new(attr.lower()), |_| true);
                    continue;
                }
            }
            let mut keys =
                index::keys_only_in(values, other.and_then(|o| o.value_set(attr))).peekable();
            if keys.peek().is_none() {
                continue;
            }
            self.by_attr.update(name, || TextKey::new(attr.lower()), |kept| {
                let idx = kept.as_mut().expect("a kept attribute has postings");
                for key in keys {
                    idx.update(key, &edit);
                }
                true
            });
        }
    }

    /// Keeps `attr`: lists the values of every entry of `held` under it,
    /// from now on maintained by [`SnapshotIndex::reindex`]. Returns the
    /// number of entries that carry it.
    pub(crate) fn keep<'e>(
        &mut self,
        attr: &AttrName,
        held: impl Iterator<Item = (u32, &'e Entry)>,
    ) -> usize {
        let mut idx = AttrPostings::default();
        let mut carriers = 0;
        for (id, e) in held {
            let Some(values) = e.value_set(attr) else { continue };
            carriers += 1;
            for key in index::keys_only_in(values, None) {
                idx.update(key, |ids| {
                    ids.insert(id);
                    true
                });
            }
        }
        let name = attr.lower();
        self.by_attr.update(name.as_bytes(), || TextKey::new(name), |kept| {
            *kept = Some(idx);
            true
        });
        carriers
    }

    /// The number of attributes kept.
    pub(crate) fn kept_count(&self) -> usize {
        self.by_attr.iter().filter(|(_, kept)| kept.is_some()).count()
    }

    /// Whether a held entry carries or carried `attr` and the index does
    /// not keep it: what [`index::unkept_in`] asks of this store.
    pub(crate) fn carries_unkept(&self, attr: &AttrName) -> bool {
        matches!(self.by_attr.get(attr.lower().as_bytes()), Some(None))
    }

    /// Compiles a filter into a candidate posting list by the shared
    /// rules ([`index::plan`]): a sorted superset of the ids of the
    /// entries matching `filter`, and whether it is exactly that set. A
    /// predicate on an attribute the index carries but does not keep does
    /// not plan, and says so.
    pub(crate) fn plan<'a>(&'a self, filter: &Filter) -> Planned<'a> {
        let unkept = Cell::new(false);
        let plan = index::plan(filter, &|p| self.lists_for_predicate(p, &unkept));
        Planned { plan, unkept: unkept.get() }
    }

    /// The store's half of [`index::plan`]: `None`, and `unkept` set, for
    /// an attribute carried but not kept; the empty list for one no held
    /// entry carries.
    fn lists_for_predicate<'a>(&'a self, p: &Predicate, unkept: &Cell<bool>) -> Option<Cow<'a, [u32]>> {
        let scan = index::predicate_scan(p)?;
        let idx = match self.by_attr.get(p.attr().lower().as_bytes()) {
            None => return Some(Cow::Owned(Vec::new())),
            Some(None) => {
                unkept.set(true);
                return None;
            }
            Some(Some(idx)) => idx,
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
        for (_, idx) in self.by_attr.iter().filter_map(|(name, kept)| Some((name, kept.as_ref()?))) {
            lists(&idx.text, &mut out);
            lists(&idx.num, &mut out);
        }
        out
    }

    /// Every posting, text keys' then numeric keys', kept attribute by
    /// kept attribute.
    pub(crate) fn postings(&self) -> Vec<&Posting> {
        let mut out = Vec::new();
        for idx in self.by_attr.iter().filter_map(|(_, kept)| kept.as_ref()) {
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

    /// An index that keeps the attributes the fixtures plan on before any
    /// entry arrives, as a replica keeps one once a query plans on it.
    fn kept() -> SnapshotIndex {
        let mut ix = SnapshotIndex::default();
        for attr in ["objectclass", "serialNumber", "dept", "mail", "n"] {
            assert_eq!(ix.keep(&attr.into(), std::iter::empty()), 0);
        }
        ix
    }

    fn sample(n: u32) -> SnapshotIndex {
        let mut ix = kept();
        for id in 0..n {
            ix.reindex(id, None, Some(&entry(id)));
        }
        ix
    }

    fn plan_of(ix: &SnapshotIndex, f: &str) -> Option<Vec<u32>> {
        ix.plan(&Filter::parse(f).unwrap()).plan.map(|p| p.ids.into_owned())
    }

    /// The postings of a kept attribute.
    fn postings_of<'a>(ix: &'a SnapshotIndex, attr: &str) -> &'a AttrPostings {
        ix.by_attr.get(attr.as_bytes()).and_then(Option::as_ref).expect("a kept attribute")
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
    fn a_carried_attribute_plans_once_it_is_kept() {
        let held: Vec<Entry> = (0..6).map(entry).collect();
        let mut ix = SnapshotIndex::default();
        for (id, e) in (0..).zip(&held) {
            ix.reindex(id, None, Some(e));
        }
        assert!(ix.postings().is_empty(), "nothing is kept before a query plans");
        let planned = |ix: &SnapshotIndex, f: &str| {
            let planned = ix.plan(&Filter::parse(f).unwrap());
            (planned.plan.map(|p| p.ids.into_owned()), planned.unkept)
        };
        // Carried and not kept: no plan, and the caller hears why. A name
        // nobody carries is the empty list, as when everything was kept.
        assert_eq!(planned(&ix, "(serialNumber=100003)"), (None, true));
        assert_eq!(planned(&ix, "(ghost=1)"), (Some(vec![]), false));
        assert_eq!(planned(&ix, "(&(dept=1)(ghost=1))"), (Some(vec![]), true));
        assert_eq!(planned(&ix, "(serialNumber=*3)"), (None, false));

        // A write to an attribute nobody keeps copies no index node of the
        // epoch it was cloned from; a name seen first is carried, not kept.
        let epoch = ix.clone();
        let mut moved = held[2].clone();
        moved.replace("serialNumber", ["200002"]);
        ix.reindex(2, Some(&held[2]), Some(&moved));
        assert_eq!(ix.node_addrs(), epoch.node_addrs());
        let unmailed = moved.clone();
        moved.add("mail", "two@x");
        ix.reindex(2, Some(&unmailed), Some(&moved));
        assert_eq!(planned(&ix, "(mail=two@x)"), (None, true));

        // Kept: listed over what is held, then maintained by every write.
        let held: Vec<Entry> = (0..6).map(|id| if id == 2 { moved.clone() } else { entry(id) }).collect();
        assert_eq!(ix.keep(&"serialNumber".into(), (0..).zip(&held)), 6);
        assert_eq!(ix.kept_count(), 1);
        assert_eq!(planned(&ix, "(serialNumber=100003)"), (Some(vec![3]), false));
        assert_eq!(planned(&ix, "(serialNumber>=200000)"), (Some(vec![2]), false));
        ix.reindex(4, Some(&held[4]), None);
        assert_eq!(planned(&ix, "(serialNumber<=100009)"), (Some(vec![0, 1, 3, 5]), false));
        assert_eq!(planned(&ix, "(&(serialNumber=100003)(dept=0))"), (Some(vec![3]), true));
    }

    /// What the shared keep rule (`index::unkept_in`, tested with the
    /// rule in `fbdr_dit`) asks of this store: a name a held entry carries,
    /// in any case, until it is kept; never one nobody carries.
    #[test]
    fn carries_unkept_until_kept() {
        let mut ix = SnapshotIndex::default();
        ix.reindex(0, None, Some(&entry(0).with("mail", "m@x")));
        let unkept = |ix: &SnapshotIndex, a: &str| ix.carries_unkept(&a.into());
        assert!(unkept(&ix, "DEPT") && unkept(&ix, "mail") && !unkept(&ix, "ghost"));
        ix.keep(&"dept".into(), std::iter::once((0, &entry(0))));
        assert!(!unkept(&ix, "dept") && unkept(&ix, "serialNumber"));
    }

    #[test]
    fn reindex_moves_only_the_values_that_differ() {
        let mut ix = sample(6);
        let untouched = postings_of(&ix, "serialnumber").text.node_addrs();
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
        assert_eq!(postings_of(&ix, "serialnumber").text.node_addrs(), untouched);
        // Back again: the added attribute's keys leave with its only
        // carrier; the attribute stays kept.
        ix.reindex(2, Some(&new), Some(&entry(2)));
        assert_eq!(plan_of(&ix, "(mail=two@x)"), Some(vec![]));
        assert!(postings_of(&ix, "mail").text.is_empty());
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![2, 5]));
    }

    #[test]
    fn remove_keeps_index_exact() {
        let mut ix = sample(6);
        ix.reindex(2, Some(&entry(2)), None);
        assert_eq!(plan_of(&ix, "(serialNumber=100002)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![5]));
        assert_eq!(plan_of(&ix, "(objectclass=person)"), Some(vec![0, 1, 3, 4, 5]));
        // Removing everything empties every posting map.
        for id in [0u32, 1, 3, 4, 5] {
            ix.reindex(id, Some(&entry(id)), None);
        }
        assert!(ix.postings().is_empty());
    }

    #[test]
    fn a_numeric_key_outlives_all_but_its_last_spelling() {
        let e = |values: &[&str]| {
            values.iter().fold(Entry::new("cn=e,o=x".parse().unwrap()), |e, v| e.with("n", v))
        };
        let mut ix = kept();
        ix.reindex(0, None, Some(&e(&["0500", "500", "5oo"])));
        assert_eq!(plan_of(&ix, "(n>=500)"), Some(vec![0]));
        ix.reindex(0, Some(&e(&["0500", "500", "5oo"])), Some(&e(&["0500", "5oo"])));
        assert_eq!(plan_of(&ix, "(n=500)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(&(n>=500)(n<=500))"), Some(vec![0]));
        ix.reindex(0, Some(&e(&["0500", "5oo"])), Some(&e(&["5oo"])));
        assert_eq!(plan_of(&ix, "(n>=-9)"), Some(vec![]));
        assert!(postings_of(&ix, "n").num.is_empty());
        assert_eq!(plan_of(&ix, "(n>=5a)"), Some(vec![0]));
    }

    #[test]
    fn a_sole_carrier_respelling_its_integer_keeps_the_numeric_key() {
        // The old text key goes before the new one arrives, so the
        // attribute's text map is empty in between; the numeric key is in
        // neither pass and must sit the edit out.
        let e = |v: &str| Entry::new("cn=e,o=x".parse().unwrap()).with("n", v);
        let mut ix = kept();
        ix.reindex(0, None, Some(&e("500")));
        for (from, to) in [("500", "0500"), ("0500", "+500")] {
            ix.reindex(0, Some(&e(from)), Some(&e(to)));
            assert_eq!(plan_of(&ix, "(n>=1)"), Some(vec![0]), "{from} -> {to}");
            assert_eq!(plan_of(&ix, "(&(n>=500)(n<=500))"), Some(vec![0]));
            assert_eq!(plan_of(&ix, &format!("(n={to})")), Some(vec![0]));
            assert_eq!(plan_of(&ix, &format!("(n={from})")), Some(vec![]));
        }
        ix.reindex(0, Some(&e("+500")), None);
        assert!(ix.postings().is_empty());
    }
}
