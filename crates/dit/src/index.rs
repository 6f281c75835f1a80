//! The index rulebook, and the attribute index of both stores.
//!
//! Both stores — the master's [`DitStore`](crate::DitStore) and each
//! epoch of a replica's content — answer a filter from sorted [`posting`]
//! lists of dense entry ids, kept in one index type, [`Indexes`]. The
//! rules live here, once:
//!
//! * **what is indexed** ([`keys_only_in`]) — every value under its
//!   normalized text, a value with an integer view additionally under
//!   that `i64`, nothing else: no per-attribute presence list, no
//!   non-integer in the numeric map;
//! * **how a predicate is scanned** ([`predicate_scan`], [`bound_scan`],
//!   [`scan_lists`], [`text_key_in`]) — equality is one text key, an
//!   `initial` substring a text prefix, a range bound is typed by its
//!   assertion exactly as predicate evaluation is
//!   ([`AttrValue::range_cmp`]); presence and substrings without `initial`
//!   have no scan;
//! * **how a filter plans** ([`plan`]) — `And` intersects every plannable
//!   child, `Or` unions when every child plans, `Not` never plans;
//! * **when a plan is the answer** ([`Plan::exact`]) — a predicate whose
//!   scan names its whole match set (`scan_is_exact`), an `And` of
//!   exact children that all planned, an `Or` of exact children. A store
//!   visits an exact plan's ids without evaluating the filter on them;
//! * **what a plan keeps** ([`unkept_in`]) — the index lists no attribute
//!   until a plan names it: it knows every attribute name its entries
//!   carry, and keeps postings only for the ones a filter would plan on —
//!   a predicate with a scan outside a `Not`, inside an `Or` only when
//!   every branch could plan. An edit of any other attribute touches no
//!   posting. The first plan that names a carried, unkept attribute has it
//!   listed over the live entries once, in the index's keep cell for it
//!   ([`Indexes::plan`]), and edits maintain it from then on; a name no
//!   entry carries plans to the empty list and is never kept.
//!
//! The index's maps are persistent ([`PMap`]): its text keys are
//! [`TextKey`]s, which keep short text in the map node, and its values
//! [`Posting`]s, which keep a lone id there too; a posting is edited by
//! `Posting::insert` and `Posting::remove` alone. A key that one entry
//! holds — a serial number — is then all in the node, so a walk down the
//! tree over a prefix or a range compares the bytes and reads the ids it
//! finds in the nodes it descends, and follows a pointer only to long text
//! or to a list that several entries share. A store that never clones its
//! index — the master's — edits every node in place; a replica clones it
//! per epoch and shares every node the next epoch does not write.
//!
//! One more store keeps its keys in no order: the replica's key column over
//! a large cached result, one `(position, text key)` pair per value. It
//! asks [`text_key_in`] of every pair instead of walking a map, and has no
//! numeric keys, so a numeric scan does not plan on it.

use crate::persistent::PMap;
use crate::posting::{self, Posting};
use fbdr_ldap::{AttrName, AttrValue, Comparison, Entry, Filter, Predicate, ValueSet};
use std::borrow::{Borrow, Cow};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, RangeBounds};
use std::sync::{Arc, OnceLock};

/// Bytes of text a [`TextKey`] holds inline: what is left of 24 bytes
/// after the variant tag and the length. Serial numbers, department
/// numbers, surnames and attribute names fit; a mail address mostly does
/// not and goes behind the `Arc`. The size is the one the benchmark's
/// `resident_bytes_per_entry` bound (6 %) allows (DESIGN §9): 32 bytes
/// (text of up to 30) measured +6.2 … +10.5 %, 24 bytes −2.2 … +1.5 %.
const INLINE: usize = 22;

/// The key of a text map in the attribute index: a normalized value's
/// text, or a lowercased attribute name.
///
/// 24 bytes. Text of at most 22 bytes sits in the key — in the map node —
/// and longer text behind an `Arc<str>`, so a key is cheap to clone with
/// its node either way. Keys order, compare and hash as their bytes, which
/// is `str`'s own order, and borrow as `[u8]`: a map is searched with
/// `text.as_bytes()` and no key is built to look one up.
///
/// ```
/// use fbdr_dit::index::TextKey;
/// use std::collections::BTreeMap;
///
/// let mut map: BTreeMap<TextKey, u32> = BTreeMap::new();
/// map.insert(TextKey::new("045612"), 1);
/// map.insert(TextKey::new("a.rather.long.address@us.xyz.com"), 2);
/// assert_eq!(map.get("045612".as_bytes()), Some(&1));
/// assert_eq!(map.keys().next().map(TextKey::as_bytes), Some("045612".as_bytes()));
/// ```
#[derive(Clone)]
pub struct TextKey(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Arc<str>),
}

impl TextKey {
    /// The key of `text`.
    pub fn new(text: &str) -> Self {
        let mut bytes = [0; INLINE];
        match bytes.get_mut(..text.len()) {
            Some(head) => {
                head.copy_from_slice(text.as_bytes());
                TextKey(Repr::Inline { len: text.len() as u8, bytes })
            }
            None => TextKey(Repr::Heap(text.into())),
        }
    }

    /// The text's bytes (valid UTF-8: a key is only made from a `str`).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("a key is made from a str")
    }
}

impl Borrow<[u8]> for TextKey {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for TextKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for TextKey {}

impl PartialOrd for TextKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TextKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for TextKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for TextKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&String::from_utf8_lossy(self.as_bytes()), f)
    }
}

/// One key an entry's id is listed under, within one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key<'a> {
    /// A value's normalized text.
    Text(&'a str),
    /// A value's integer view; alternate spellings ("0500", "500", "+500")
    /// share the key.
    Num(i64),
}

/// The keys an entry holding `values` of an attribute is listed under and
/// one holding `other` is not — the whole "what is indexed" rule, as the
/// difference an edit has to apply. `other` is asked once or twice per
/// value, by binary search: a member added to a group of ten thousand
/// costs the group's length, not its square.
///
/// A numeric key belongs to every spelling of the integer at once, so it
/// leaves only with the last of them: going from `{"0500", "500"}` to
/// `{"500"}` drops the text key `0500` and keeps `Num(500)`.
pub fn keys_only_in<'a>(
    values: impl IntoIterator<Item = &'a AttrValue>,
    other: Option<&'a ValueSet>,
) -> impl Iterator<Item = Key<'a>> {
    values.into_iter().filter(move |v| !other.is_some_and(|o| o.contains(v))).flat_map(move |v| {
        let num = v.as_int().filter(|&n| !other.is_some_and(|o| o.contains_int(n)));
        std::iter::once(Key::Text(v.normalized())).chain(num.map(Key::Num))
    })
}

/// Which posting lists hold a predicate's candidates: their union is a
/// superset of the matching entries, exact for everything but a substring
/// pattern with more than an `initial` component (`scan_is_exact`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan<'a> {
    /// The list under one text key.
    Point(&'a str),
    /// The lists under every text key starting with the prefix.
    Prefix(&'a str),
    /// The lists under the text keys between the bounds.
    Text(Bound<&'a str>, Bound<&'a str>),
    /// The lists under the numeric keys between the bounds.
    Num(Bound<i64>, Bound<i64>),
}

/// The scan of a single `>=` (`is_lower`) or `<=` bound, typed as the
/// predicate is: an integer assertion matches integer values only,
/// numerically — an exact range of the numeric map, whatever the values'
/// spellings; a string assertion compares normalized text, which is the
/// text map's own order.
pub fn bound_scan(bound: &AttrValue, is_lower: bool) -> Scan<'_> {
    match (bound.as_int(), is_lower) {
        (Some(n), true) => Scan::Num(Bound::Included(n), Bound::Unbounded),
        (Some(n), false) => Scan::Num(Bound::Unbounded, Bound::Included(n)),
        (None, true) => Scan::Text(Bound::Included(bound.normalized()), Bound::Unbounded),
        (None, false) => Scan::Text(Bound::Unbounded, Bound::Included(bound.normalized())),
    }
}

/// The scan that bounds a predicate, `None` when the index cannot:
/// presence (its list would be population-sized for every attribute, and
/// edited on every add and delete) and substring patterns without an
/// `initial` component. The caller scans, or the other conjuncts bound
/// the result.
pub fn predicate_scan(p: &Predicate) -> Option<Scan<'_>> {
    match p.comparison() {
        Comparison::Eq(v) => Some(Scan::Point(v.normalized())),
        Comparison::Ge(v) => Some(bound_scan(v, true)),
        Comparison::Le(v) => Some(bound_scan(v, false)),
        Comparison::Present => None,
        Comparison::Substring(pat) => pat.initial().map(Scan::Prefix),
    }
}

/// Whether the lists [`predicate_scan`] names hold *exactly* the entries
/// matching `p`. They do when the scan reads the very key predicate
/// evaluation compares: equality the value's normalized text, a `>=` or
/// `<=` bound the integer view under an integer assertion and the
/// normalized text otherwise ([`AttrValue::range_cmp`]), a prefix-only
/// substring every normalized text starting with its `initial`. A pattern
/// with an `any` or `final` part is only bounded by its prefix — `p1*2`
/// scans `p13` too — and presence has no scan.
fn scan_is_exact(p: &Predicate) -> bool {
    match p.comparison() {
        Comparison::Eq(_) | Comparison::Ge(_) | Comparison::Le(_) => true,
        Comparison::Present => false,
        Comparison::Substring(pat) => pat.is_prefix_only(),
    }
}

/// Reads the postings a scan names off the two ordered maps a store keeps
/// per attribute, and unions them as the walk yields them
/// ([`posting::union_walk`]): `point` looks one text key up, `text` and
/// `num` walk a key range in order. Text keys go in and come out as bytes
/// ([`TextKey`]).
pub fn scan_lists<'a, 's, T, N>(
    scan: &'s Scan<'s>,
    point: impl FnOnce(&'s [u8]) -> Option<&'a Posting>,
    text: impl FnOnce(Bound<&'s [u8]>, Bound<&'s [u8]>) -> T,
    num: impl FnOnce(Bound<&'s i64>, Bound<&'s i64>) -> N,
) -> Cow<'a, [u32]>
where
    T: Iterator<Item = (&'a TextKey, &'a Posting)>,
    N: Iterator<Item = (&'a i64, &'a Posting)>,
{
    use crate::posting::union_walk as union;
    fn ids<K>((_, ids): (K, &Posting)) -> &[u32] {
        ids.as_slice()
    }
    match *scan {
        Scan::Point(k) => {
            point(k.as_bytes()).map_or(Cow::Owned(Vec::new()), |ids| Cow::Borrowed(ids.as_slice()))
        }
        Scan::Prefix(p) => union(
            text(Bound::Included(p.as_bytes()), Bound::Unbounded)
                .take_while(|(k, _)| k.as_bytes().starts_with(p.as_bytes()))
                .map(ids),
        ),
        Scan::Text(lo, hi) => union(text(lo.map(str::as_bytes), hi.map(str::as_bytes)).map(ids)),
        Scan::Num(ref lo, ref hi) => union(num(lo.as_ref(), hi.as_ref()).map(ids)),
    }
}

/// Whether `key`, a value's normalized text, is one of the text keys a scan
/// names — the test [`scan_lists`] makes by walking an ordered map, made of
/// one key, for a store that keeps its keys in no order. `None` for a
/// numeric scan: it names integer keys, and a text key is not one.
pub fn text_key_in(scan: &Scan<'_>, key: &[u8]) -> Option<bool> {
    Some(match *scan {
        Scan::Point(k) => key == k.as_bytes(),
        Scan::Prefix(p) => key.starts_with(p.as_bytes()),
        Scan::Text(lo, hi) => (lo.map(str::as_bytes), hi.map(str::as_bytes)).contains(key),
        Scan::Num(..) => return None,
    })
}

/// What [`plan`] compiles a filter into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan<'a> {
    /// A sorted id set holding every entry the filter matches.
    pub ids: Cow<'a, [u32]>,
    /// True when `ids` hold nothing else: they *are* the filter's answer,
    /// and a caller has no filter left to verify on them (only its own
    /// base and scope). Derived from the filter's shape alone: a predicate
    /// by `scan_is_exact`, an `And` when every child planned and is exact,
    /// an `Or` when every child is exact. `Not` never plans.
    pub exact: bool,
}

/// Compiles a filter into a candidate posting list: a sorted id set
/// guaranteed to be a **superset** of the entries matching `filter`, and
/// whether it is exactly that set ([`Plan::exact`]). Callers verify the
/// filter on the candidates of an inexact plan. `lists_for_predicate` is
/// the store: [`scan_lists`] of what [`predicate_scan`] names over the
/// predicate's attribute, `None` when it names nothing. Returns `None`
/// when the index cannot bound the result and the caller must scan.
///
/// Conjunctions intersect every plannable child, smallest first
/// (galloping); a child that does not plan is left out of the
/// intersection, which then bounds the answer without deciding it.
/// Disjunctions require every child to plan and union them.
pub fn plan<'a>(
    filter: &Filter,
    lists_for_predicate: &impl Fn(&Predicate) -> Option<Cow<'a, [u32]>>,
) -> Option<Plan<'a>> {
    match filter {
        Filter::Pred(p) => lists_for_predicate(p).map(|ids| Plan { ids, exact: scan_is_exact(p) }),
        Filter::Not(_) => None,
        Filter::And(fs) => {
            let mut exact = true;
            let mut lists: Vec<Cow<'a, [u32]>> = Vec::with_capacity(fs.len());
            for f in fs {
                match plan(f, lists_for_predicate) {
                    Some(p) => {
                        exact &= p.exact;
                        lists.push(p.ids);
                    }
                    None => exact = false,
                }
            }
            lists.sort_by_key(|l| l.len());
            let ids = lists.into_iter().reduce(|acc, l| Cow::Owned(posting::intersect(&acc, &l)))?;
            Some(Plan { ids, exact })
        }
        Filter::Or(fs) => {
            let parts: Option<Vec<Plan<'a>>> =
                fs.iter().map(|f| plan(f, lists_for_predicate)).collect();
            let parts = parts?;
            let exact = parts.iter().all(|p| p.exact);
            Some(Plan { ids: posting::union_cows(parts.into_iter().map(|p| p.ids)), exact })
        }
    }
}

/// The attributes `filter` would plan on that `unkept` names — carried by
/// the store and not kept — each once, in the filter's order: the whole
/// "what a plan keeps" rule, which both stores call before they keep. A
/// predicate counts when it has a scan ([`predicate_scan`]) and no `Not`
/// is above it, and inside an `Or` only when every branch could plan were
/// every attribute kept ([`plan`]'s own rule): an `Or` that fails to plan
/// keeps nothing. Allocates only when it finds one.
pub fn unkept_in(filter: &Filter, unkept: impl Fn(&AttrName) -> bool) -> Vec<&AttrName> {
    /// Pushes onto `out` what `unkept_in` names in `filter`; returns
    /// whether `filter` could plan were every attribute kept.
    fn gather<'f>(
        filter: &'f Filter,
        unkept: &impl Fn(&AttrName) -> bool,
        out: &mut Vec<&'f AttrName>,
    ) -> bool {
        match filter {
            Filter::Pred(p) => {
                if predicate_scan(p).is_none() {
                    return false;
                }
                if unkept(p.attr()) && !out.contains(&p.attr()) {
                    out.push(p.attr());
                }
                true
            }
            Filter::Not(_) => false,
            Filter::And(fs) => fs.iter().fold(false, |any, f| gather(f, unkept, out) | any),
            Filter::Or(fs) => {
                let mark = out.len();
                let all = fs.iter().all(|f| gather(f, unkept, out));
                if !all {
                    out.truncate(mark);
                }
                all
            }
        }
    }
    let mut out = Vec::new();
    gather(filter, &unkept, &mut out);
    out
}

/// The postings of one kept attribute: normalized value text → ids, in
/// lexicographic order, and the integer view of the values that have one
/// → ids.
#[derive(Debug, Default, Clone, PartialEq)]
struct AttrMaps {
    text: PMap<TextKey, Posting>,
    num: PMap<i64, Posting>,
}

impl AttrMaps {
    /// The postings of `attr` over `held`, each entry listed under its id,
    /// and the number of entries that carry it.
    fn listed<'e>(attr: &AttrName, held: impl Iterator<Item = (u32, &'e Entry)>) -> (Self, usize) {
        let mut maps = AttrMaps::default();
        let mut carriers = 0;
        for (id, values) in held.filter_map(|(id, e)| Some((id, e.value_set(attr)?))) {
            carriers += 1;
            maps.edit(keys_only_in(values, None), |ids| {
                ids.insert(id);
                true
            });
        }
        (maps, carriers)
    }

    /// Edits the posting under each of `keys` ([`PMap::update`]: `edit`
    /// sees an empty posting for an absent key, and returns whether the
    /// key stays). Both maps are asked: an integer changing its spelling
    /// takes the only text key out while its numeric key stays listed.
    fn edit<'a>(&mut self, keys: impl Iterator<Item = Key<'a>>, edit: impl Fn(&mut Posting) -> bool) {
        for key in keys {
            match key {
                Key::Text(k) => self.text.update(k.as_bytes(), || TextKey::new(k), &edit),
                Key::Num(n) => self.num.update(&n, || n, &edit),
            }
        }
    }
}

/// The attribute index of both stores — the master's
/// [`DitStore`](crate::DitStore), and each epoch of a replica's content:
/// the lowercased name of every attribute a stored entry carries or once
/// carried → a keep cell, set to the attribute's postings once a plan has
/// named it (*kept*). A name is added on its first sight and stays, so
/// the map is bounded by the names the entries carry, never by the names
/// searches ask for. An edit of an attribute that is not kept stops at the
/// hash probe that finds its name; the first plan on it lists it over the
/// live entries, once, under `&self` ([`OnceLock::get_or_init`]: a second
/// plan asking at the same time waits for that one listing), and edits
/// maintain it from then on. Once an attribute is kept, reading it takes
/// no lock.
///
/// The postings are persistent maps ([`PMap`]), so a clone — a replica's
/// next epoch — copies the name map and a pointer per kept map, and
/// shares every node with the original until one of them writes it. The
/// name map itself is copied, keep cells and all: no cell is shared
/// between two clones, so a plan that keeps an attribute on one leaves
/// the other as it was. That is what makes a keep on a published epoch
/// safe: a writer's copy cloned before it skipped that attribute's edits,
/// and must not be handed a listing it never maintained. Never
/// serialized: a store rebuilds the names from its entries, and keeps
/// nothing until a plan asks.
#[derive(Debug, Default, Clone)]
pub struct Indexes {
    by_attr: HashMap<TextKey, OnceLock<AttrMaps>>,
}

impl Indexes {
    /// Moves `id` from the values of `old` — the entry version last
    /// indexed under `id`, `None` for a slot that was empty — to those of
    /// `new`, `None` for one that becomes empty, touching only what
    /// differs in the kept attributes. An attribute whose value set both
    /// versions share — a write copies only the sets it changes (`Entry`'s
    /// *Sharing*) — differs in nothing and is not looked up.
    pub fn reindex(&mut self, id: u32, old: Option<&Entry>, new: Option<&Entry>) {
        for (attr, values) in old.into_iter().flat_map(Entry::attrs) {
            let now = new.and_then(|e| e.value_set(attr));
            if !now.is_some_and(|n| n.ptr_eq(values)) {
                self.reindex_attr(attr, Some(values), now, id);
            }
        }
        for (attr, values) in new.into_iter().flat_map(Entry::attrs) {
            if old.and_then(|e| e.value_set(attr)).is_none() {
                self.reindex_attr(attr, None, Some(values), id);
            }
        }
    }

    /// Moves `id` from the keys of `old` — the values of `attr` the entry
    /// held — to those of `new` — the values it holds now, `None` for an
    /// attribute it did not or does not carry — touching only the keys
    /// that differ, and only when the attribute is kept.
    pub(crate) fn reindex_attr(
        &mut self,
        attr: &AttrName,
        old: Option<&ValueSet>,
        new: Option<&ValueSet>,
        id: u32,
    ) {
        let Some(kept) = self.by_attr.get_mut(attr.lower().as_bytes()) else {
            if new.is_some() {
                self.by_attr.insert(TextKey::new(attr.lower()), OnceLock::new());
            }
            return;
        };
        let Some(maps) = kept.get_mut() else { return };
        maps.edit(keys_only_in(old.into_iter().flatten(), new), |ids| {
            ids.remove(id);
            !ids.is_empty()
        });
        maps.edit(keys_only_in(new.into_iter().flatten(), old), |ids| {
            ids.insert(id);
            true
        });
    }

    /// Plans `filter` ([`plan`]) over the kept attributes. A predicate
    /// that would plan on a carried attribute the index does not keep does
    /// not; when one is met, the attributes [`unkept_in`] names are kept —
    /// listed over the live entries `held` yields, each beside its id —
    /// and the filter is planned again. `kept` hears of each attribute
    /// this plan lists, with the number of entries that carry it; a plan
    /// that waited for another's listing of the same attribute lists
    /// nothing.
    pub fn plan<'a, 'e, I>(
        &'a self,
        filter: &Filter,
        held: impl Fn() -> I,
        mut kept: impl FnMut(&AttrName, usize),
    ) -> Option<Plan<'a>>
    where
        I: Iterator<Item = (u32, &'e Entry)>,
    {
        let met_unkept = Cell::new(false);
        let planned = plan(filter, &|p| self.lists_for_predicate(p, &met_unkept));
        if !met_unkept.get() {
            return planned;
        }
        let unkept = unkept_in(filter, |a| self.carries_unkept(a));
        if unkept.is_empty() {
            return planned;
        }
        for attr in unkept {
            if let Some(cell) = self.by_attr.get(attr.lower().as_bytes()) {
                cell.get_or_init(|| {
                    let (maps, carriers) = AttrMaps::listed(attr, held());
                    kept(attr, carriers);
                    maps
                });
            }
        }
        plan(filter, &|p| self.lists_for_predicate(p, &met_unkept))
    }

    /// Whether a stored entry carries or carried `attr` and the index does
    /// not keep it: what [`unkept_in`] asks of a store.
    #[doc(hidden)]
    pub fn carries_unkept(&self, attr: &AttrName) -> bool {
        self.by_attr.get(attr.lower().as_bytes()).is_some_and(|kept| kept.get().is_none())
    }

    /// The number of attributes kept.
    pub fn kept_count(&self) -> usize {
        self.by_attr.values().filter(|kept| kept.get().is_some()).count()
    }

    /// The store's half of [`plan`]: `None`, and `met_unkept` set, for an
    /// attribute carried but not kept; the empty list for one no entry
    /// carries.
    fn lists_for_predicate(&self, p: &Predicate, met_unkept: &Cell<bool>) -> Option<Cow<'_, [u32]>> {
        let scan = predicate_scan(p)?;
        let Some(kept) = self.by_attr.get(p.attr().lower().as_bytes()) else {
            return Some(Cow::Owned(Vec::new()));
        };
        let Some(maps) = kept.get() else {
            met_unkept.set(true);
            return None;
        };
        Some(scan_lists(
            &scan,
            |k| maps.text.get(k),
            |lo, hi| maps.text.range::<[u8]>(lo, hi),
            |lo, hi| maps.num.range(lo, hi),
        ))
    }

    /// Checks the index against the live entries `held` yields, each
    /// beside its id: every attribute one carries is named, and every kept
    /// attribute's postings are the ones listed afresh over them — none
    /// missing, none stale. The kept names, sorted, or what differs. For
    /// tests.
    #[doc(hidden)]
    pub fn check<'e, I>(&self, held: impl Fn() -> I) -> Result<Vec<&str>, String>
    where
        I: Iterator<Item = (u32, &'e Entry)>,
    {
        for (_, e) in held() {
            if let Some(a) = e.attr_names().find(|a| !self.by_attr.contains_key(a.lower().as_bytes())) {
                return Err(format!("{} carries {a}, which the index does not name", e.dn()));
            }
        }
        let mut kept = Vec::new();
        for (name, maps) in self.by_attr.iter().filter_map(|(name, kept)| Some((name.as_str(), kept.get()?))) {
            if *maps != AttrMaps::listed(&AttrName::new(name), held()).0 {
                return Err(format!("the postings of {name} are not its values' keys"));
            }
            kept.push(name);
        }
        kept.sort_unstable();
        Ok(kept)
    }

    /// Addresses of every map node of the kept attributes, in name order,
    /// and of every posting list still on the heap — a key's, when it
    /// holds two or more ids — for structural-sharing assertions.
    #[doc(hidden)]
    pub fn node_addrs(&self) -> Vec<usize> {
        fn lists<K: Ord>(map: &PMap<K, Posting>, out: &mut Vec<usize>) {
            out.extend(map.node_addrs());
            let heap = map.iter().filter(|(_, ids)| !ids.is_inline());
            out.extend(heap.map(|(_, ids)| ids.as_slice().as_ptr() as usize));
        }
        let mut out = Vec::new();
        for maps in self.kept() {
            lists(&maps.text, &mut out);
            lists(&maps.num, &mut out);
        }
        out
    }

    /// Every posting, text keys' then numeric keys', kept attribute by
    /// kept attribute in name order.
    #[doc(hidden)]
    pub fn postings(&self) -> Vec<&Posting> {
        let mut out = Vec::new();
        for maps in self.kept() {
            out.extend(maps.text.iter().map(|(_, ids)| ids));
            out.extend(maps.num.iter().map(|(_, ids)| ids));
        }
        out
    }

    /// The kept attributes' maps, in name order.
    fn kept(&self) -> impl Iterator<Item = &AttrMaps> {
        let mut kept: Vec<(&TextKey, &AttrMaps)> =
            self.by_attr.iter().filter_map(|(name, kept)| Some((name, kept.get()?))).collect();
        kept.sort_unstable_by(|a, b| a.0.cmp(b.0));
        kept.into_iter().map(|(_, maps)| maps)
    }
}

#[cfg(test)]
mod exactness;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_text_key_is_24_bytes_and_holds_22_inline() {
        assert_eq!(std::mem::size_of::<TextKey>(), 24);
        let inline = |s: &str| matches!(TextKey::new(s).0, Repr::Inline { .. });
        assert!(inline(""));
        assert!(inline(&"a".repeat(22)));
        assert!(!inline(&"a".repeat(23)));
        // "é" is two bytes: it ends on byte 22, or straddles it.
        assert!(inline(&format!("{}é", "a".repeat(20))));
        assert!(!inline(&format!("{}é", "a".repeat(21))));
        for s in ["", "045612", &"a".repeat(22), &"a".repeat(23), &format!("{}é", "a".repeat(21))] {
            assert_eq!(TextKey::new(s).as_bytes(), s.as_bytes());
            assert_eq!(format!("{:?}", TextKey::new(s)), format!("{s:?}"));
        }
        // Padding is not text: a key is its length's worth of bytes.
        assert!(TextKey::new("ab") < TextKey::new("ab\0"));
        assert_ne!(TextKey::new("ab"), TextKey::new("ab\0"));
        assert!(TextKey::new(&"a".repeat(22)) < TextKey::new(&"a".repeat(23)));
        assert!(TextKey::new(&"a".repeat(23)) < TextKey::new("b"));
    }

    /// Text around the inline width: up to 32 characters of one to three
    /// bytes each, NUL among them.
    fn text() -> impl Strategy<Value = String> {
        let letter = prop_oneof![Just('a'), Just('b'), Just('z'), Just('\0'), Just('é'), Just('語')];
        prop::collection::vec(letter, 0..32).prop_map(String::from_iter)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn text_keys_order_compare_and_hash_as_their_text(a in text(), b in text()) {
            use std::hash::BuildHasher;
            let (ka, kb) = (TextKey::new(&a), TextKey::new(&b));
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} against {:?}", a, b);
            prop_assert_eq!(ka == kb, a == b);
            prop_assert_eq!(ka.as_bytes(), a.as_bytes());
            let state = std::collections::hash_map::RandomState::new();
            prop_assert_eq!(state.hash_one(&ka), state.hash_one(a.as_bytes()));
        }

        /// A map keyed by text keys, inline and heap side by side, of
        /// postings, inline and heap side by side, is read — point,
        /// prefix, range — as the same map of strings to id lists, and
        /// empties key by key under the edit both stores make.
        #[test]
        fn a_text_key_map_scans_as_a_string_map(
            keys in prop::collection::vec(text(), 0..48),
            probes in prop::collection::vec(text(), 1..6),
        ) {
            let mut map: PMap<TextKey, Posting> = PMap::default();
            let mut model: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
            for (id, k) in keys.iter().enumerate() {
                map.update(k.as_bytes(), || TextKey::new(k), |ids| {
                    ids.insert(id as u32);
                    true
                });
                model.entry(k.as_str()).or_default().push(id as u32);
            }
            prop_assert!(map.iter().map(|(k, _)| k.as_bytes()).eq(model.keys().map(|k| k.as_bytes())));
            prop_assert!(map.iter().all(|(_, ids)| ids.is_inline() == (ids.as_slice().len() == 1)));
            let scan = |scan: Scan<'_>| {
                scan_lists(
                    &scan,
                    |k| map.get(k),
                    |lo, hi| map.range::<[u8]>(lo, hi),
                    |_, _| std::iter::empty(),
                )
                .into_owned()
            };
            let expect = |keep: &dyn Fn(&str) -> bool| {
                let mut ids: Vec<u32> =
                    model.iter().filter(|(k, _)| keep(k)).flat_map(|(_, l)| l.clone()).collect();
                ids.sort_unstable();
                ids
            };
            for p in probes.iter().chain(&keys) {
                let p = p.as_str();
                prop_assert_eq!(scan(Scan::Point(p)), expect(&|k| k == p), "point {:?}", p);
                prop_assert_eq!(scan(Scan::Prefix(p)), expect(&|k| k.starts_with(p)), "prefix {:?}", p);
                prop_assert_eq!(
                    scan(Scan::Text(Bound::Included(p), Bound::Unbounded)),
                    expect(&|k| k >= p),
                    ">= {:?}", p
                );
                prop_assert_eq!(
                    scan(Scan::Text(Bound::Unbounded, Bound::Included(p))),
                    expect(&|k| k <= p),
                    "<= {:?}", p
                );
            }
            for k in &keys {
                let ids = map.get(k.as_bytes()).cloned().unwrap_or_default();
                for &id in ids.as_slice() {
                    map.update(k.as_bytes(), || TextKey::new(k), |ids| {
                        ids.remove(id);
                        !ids.is_empty()
                    });
                }
            }
            prop_assert!(map.is_empty());
        }

        /// A column — one `(id, text key)` pair per value, ids ascending,
        /// an id with several values or with none — filtered by
        /// `text_key_in` names the ids `scan_lists` reads off a map of the
        /// same pairs, under every text scan. A numeric scan names no text
        /// key.
        #[test]
        fn a_column_filtered_by_text_key_in_is_the_map_scanned(
            values in prop::collection::vec(prop::collection::vec(text(), 0..3), 0..40),
            probes in prop::collection::vec(text(), 1..6),
        ) {
            let column: Vec<(u32, TextKey)> = values
                .iter()
                .enumerate()
                .flat_map(|(id, vs)| vs.iter().map(move |v| (id as u32, TextKey::new(v))))
                .collect();
            let mut map: PMap<TextKey, Posting> = PMap::default();
            for (id, key) in &column {
                map.update(key.as_bytes(), || key.clone(), |ids| {
                    ids.insert(*id);
                    true
                });
            }
            let filtered = |scan: &Scan<'_>| -> Option<Vec<u32>> {
                let mut ids: Vec<u32> = Vec::new();
                for (id, key) in &column {
                    if text_key_in(scan, key.as_bytes())? && ids.last() != Some(id) {
                        ids.push(*id);
                    }
                }
                Some(ids)
            };
            let walked = |scan: &Scan<'_>| {
                scan_lists(
                    scan,
                    |k| map.get(k),
                    |lo, hi| map.range::<[u8]>(lo, hi),
                    |_, _| std::iter::empty(),
                )
                .into_owned()
            };
            let probes: Vec<&str> =
                probes.iter().chain(values.iter().flatten()).map(String::as_str).collect();
            for (&p, &q) in probes.iter().zip(probes.iter().cycle().skip(1)) {
                let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
                for scan in [
                    Scan::Point(p),
                    Scan::Prefix(p),
                    Scan::Text(Bound::Included(p), Bound::Unbounded),
                    Scan::Text(Bound::Unbounded, Bound::Included(p)),
                    Scan::Text(Bound::Included(lo), Bound::Excluded(hi)),
                    Scan::Text(Bound::Excluded(lo), Bound::Included(hi)),
                ] {
                    prop_assert_eq!(filtered(&scan), Some(walked(&scan)), "{:?}", scan);
                }
                prop_assert_eq!(text_key_in(&Scan::Num(Bound::Unbounded, Bound::Unbounded), p.as_bytes()), None);
            }
        }
    }

    /// An index that keeps the attributes the fixtures plan on before any
    /// entry arrives, as a store keeps one once a plan names it.
    fn kept() -> Indexes {
        let mut ix = Indexes::default();
        for attr in ["objectclass", "serialnumber", "dept", "mail", "n"] {
            ix.by_attr.insert(TextKey::new(attr), OnceLock::from(AttrMaps::default()));
        }
        ix
    }

    /// Lists `id` under every key of `attr: value`, as adding an entry
    /// with that one value would.
    fn insert(ix: &mut Indexes, attr: &str, value: &str, id: u32) {
        ix.reindex_attr(&AttrName::new(attr), None, Some(&ValueSet::from_iter([value.into()])), id);
    }

    fn remove(ix: &mut Indexes, attr: &str, value: &str, id: u32) {
        ix.reindex_attr(&AttrName::new(attr), Some(&ValueSet::from_iter([value.into()])), None, id);
    }

    fn sample() -> Indexes {
        let mut ix = kept();
        insert(&mut ix, "serialNumber", "045612", 0);
        insert(&mut ix, "serialNumber", "045699", 1);
        insert(&mut ix, "serialNumber", "120000", 2);
        ix
    }

    /// The plan of `f` over an index whose planned attributes are all kept
    /// (no entry is there to list a new one over).
    fn plan_of(ix: &Indexes, f: &str) -> Option<Vec<u32>> {
        ix.plan(&Filter::parse(f).unwrap(), std::iter::empty, |_, _| ()).map(|p| p.ids.into_owned())
    }

    fn exact_of(ix: &Indexes, f: &str) -> Option<bool> {
        ix.plan(&Filter::parse(f).unwrap(), std::iter::empty, |_, _| ()).map(|p| p.exact)
    }

    /// The postings of a kept attribute.
    fn maps_of<'a>(ix: &'a Indexes, attr: &str) -> &'a AttrMaps {
        ix.by_attr.get(attr.as_bytes()).and_then(OnceLock::get).expect("a kept attribute")
    }

    #[test]
    fn eq_lookup() {
        let ix = sample();
        assert_eq!(plan_of(&ix, "(serialnumber=045612)"), Some(vec![0]));
        assert_eq!(plan_of(&ix, "(serialnumber=999)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(mail=x)"), Some(vec![]));
    }

    #[test]
    fn prefix_lookup() {
        let ix = sample();
        assert_eq!(plan_of(&ix, "(serialnumber=0456*)"), Some(vec![0, 1]));
        assert_eq!(plan_of(&ix, "(serialnumber=04561*)"), Some(vec![0]));
        assert_eq!(plan_of(&ix, "(serialnumber=9*)"), Some(vec![]));
        // No initial component: cannot plan.
        assert_eq!(plan_of(&ix, "(serialnumber=*5)"), None);
    }

    #[test]
    fn range_lookup_is_numeric_for_ints() {
        let ix = sample();
        // 45612 and 45699 and 120000 numerically.
        assert_eq!(plan_of(&ix, "(serialnumber>=45650)"), Some(vec![1, 2]));
        assert_eq!(plan_of(&ix, "(serialnumber<=45650)"), Some(vec![0]));
        // A string-typed bound compares text: "045…" < "10x" < "120000".
        assert_eq!(plan_of(&ix, "(serialnumber>=10x)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(serialnumber<=10x)"), Some(vec![0, 1]));
    }

    #[test]
    fn integer_bounds_are_exact_over_spellings_and_skip_non_integers() {
        let mut ix = kept();
        for (id, v) in ["0500", "500", "+500", "499", "501", "5oo", "abc"].iter().enumerate() {
            insert(&mut ix, "n", v, id as u32);
        }
        insert(&mut ix, "n", &i64::MIN.to_string(), 7);
        insert(&mut ix, "n", &i64::MAX.to_string(), 8);
        assert_eq!(plan_of(&ix, "(n>=500)"), Some(vec![0, 1, 2, 4, 8]));
        assert_eq!(plan_of(&ix, "(n<=500)"), Some(vec![0, 1, 2, 3, 7]));
        assert_eq!(plan_of(&ix, "(&(n>=500)(n<=0500))"), Some(vec![0, 1, 2]));
        assert_eq!(plan_of(&ix, &format!("(n>={})", i64::MIN)), Some(vec![0, 1, 2, 3, 4, 7, 8]));
        assert_eq!(plan_of(&ix, &format!("(n>={})", i64::MAX)), Some(vec![8]));
        assert_eq!(plan_of(&ix, &format!("(n<={})", i64::MIN)), Some(vec![7]));
        // Equality stays textual: one spelling, one entry.
        assert_eq!(plan_of(&ix, "(n=500)"), Some(vec![1]));
    }

    #[test]
    fn a_numeric_key_leaves_with_its_last_spelling() {
        let old = ValueSet::from_iter(["0500".into(), "500".into()]);
        let new = ValueSet::from_iter(["500".into()]);
        let gone: Vec<Key<'_>> = keys_only_in(&old, Some(&new)).collect();
        assert_eq!(gone, [Key::Text("0500")]);
        let gained: Vec<Key<'_>> = keys_only_in(&new, Some(&old)).collect();
        assert_eq!(gained, []);
        let all: Vec<Key<'_>> = keys_only_in(&old, None).collect();
        assert_eq!(all, [Key::Text("0500"), Key::Num(500), Key::Text("500"), Key::Num(500)]);
    }

    /// A modify of a large attribute yields the keys of what it changed
    /// and nothing else: text and number of a member that joins, the text
    /// alone of a spelling whose number another member keeps.
    #[test]
    fn a_modify_of_five_thousand_values_yields_the_keys_it_changed() {
        let member = |i: usize| AttrValue::new(if i.is_multiple_of(2) { format!("{i}") } else { format!("uid={i:04}") });
        let old: ValueSet = (0..5_000).map(member).chain(["04998".into()]).collect();
        let new: ValueSet = (0..5_000).map(member).chain(["5000".into(), "uid=5001".into()]).collect();
        assert_eq!((old.len(), new.len()), (5_001, 5_002));
        let gained: Vec<Key<'_>> = keys_only_in(&new, Some(&old)).collect();
        assert_eq!(gained, [Key::Text("5000"), Key::Num(5000), Key::Text("uid=5001")]);
        let gone: Vec<Key<'_>> = keys_only_in(&old, Some(&new)).collect();
        assert_eq!(gone, [Key::Text("04998")]);
    }

    #[test]
    fn removal_drops_emptied_lists() {
        let mut ix = sample();
        remove(&mut ix, "serialNumber", "045612", 0);
        assert_eq!(plan_of(&ix, "(serialnumber=045612)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(serialnumber<=45650)"), Some(vec![]));
        let maps = maps_of(&ix, "serialnumber");
        assert_eq!((maps.text.iter().count(), maps.num.iter().count()), (2, 2));
    }

    #[test]
    fn multiple_ids_per_value() {
        let mut ix = kept();
        insert(&mut ix, "dept", "2406", 3);
        insert(&mut ix, "dept", "2406", 1);
        assert_eq!(plan_of(&ix, "(dept=2406)"), Some(vec![1, 3]));
        remove(&mut ix, "dept", "2406", 3);
        assert_eq!(plan_of(&ix, "(dept=2406)"), Some(vec![1]));
    }

    #[test]
    fn boolean_plans() {
        let mut ix = kept();
        for id in 0..12u32 {
            insert(&mut ix, "serialNumber", &format!("{}", 100_000 + id), id);
            insert(&mut ix, "dept", &format!("{}", id % 3), id);
        }
        // And intersects every plannable conjunct.
        assert_eq!(plan_of(&ix, "(&(dept=0)(serialNumber>=100006))"), Some(vec![6, 9]));
        // A non-plannable conjunct is simply dropped from the plan.
        assert_eq!(plan_of(&ix, "(&(dept=1)(serialNumber=*x*))"), Some(vec![1, 4, 7, 10]));
        assert_eq!(plan_of(&ix, "(&(dept=1)(dept=*))"), Some(vec![1, 4, 7, 10]));
        // Or unions, but only if every branch plans.
        assert_eq!(plan_of(&ix, "(|(serialNumber=100001)(dept=2))"), Some(vec![1, 2, 5, 8, 11]));
        assert_eq!(plan_of(&ix, "(|(dept=0)(x=*y))"), None);
        assert_eq!(plan_of(&ix, "(|(dept=0)(dept=*))"), None);
        assert_eq!(plan_of(&ix, "(!(dept=0))"), None);
        assert_eq!(plan_of(&ix, "(&(!(dept=0))(x=*y))"), None);
        // Presence has no list.
        assert_eq!(plan_of(&ix, "(dept=*)"), None);
    }

    fn person(id: u32) -> Entry {
        Entry::new(format!("cn=e{id},o=x").parse().unwrap())
            .with("objectclass", "person")
            .with("serialNumber", &format!("{:06}", 100_000 + id))
            .with("dept", &format!("{}", id % 3))
    }

    /// The live slots, each beside its id.
    fn live(slots: &[Option<Entry>]) -> impl Iterator<Item = (u32, &Entry)> {
        (0..).zip(slots).filter_map(|(id, e)| Some((id, e.as_ref()?)))
    }

    /// Planned ids and exactness of `f`, keeping over `slots` what it asks.
    fn planned(ix: &Indexes, slots: &[Option<Entry>], f: &str) -> Option<(Vec<u32>, bool)> {
        ix.plan(&Filter::parse(f).unwrap(), || live(slots), |_, _| ()).map(|p| (p.ids.into_owned(), p.exact))
    }

    /// An index keeping the fixtures' attributes, holding people `0..n`.
    fn people(n: u32) -> Indexes {
        let mut ix = kept();
        for id in 0..n {
            ix.reindex(id, None, Some(&person(id)));
        }
        ix
    }

    #[test]
    fn a_carried_attribute_plans_once_a_plan_keeps_it() {
        // Six slots, the third empty: every name the people carry is
        // named, none is kept.
        let mut slots: Vec<Option<Entry>> = (0..6).map(|id| (id != 2).then(|| person(id))).collect();
        let mut ix = Indexes::default();
        for (id, e) in live(&slots) {
            ix.reindex(id, None, Some(e));
        }
        assert_eq!(ix.check(|| live(&slots)), Ok(vec![]));
        assert!(ix.postings().is_empty(), "nothing is kept before a plan");
        // What does not plan keeps nothing: presence, a `Not`, an `Or` with
        // a branch that cannot plan. A name nobody carries is the empty
        // list, exact, and is not named.
        assert_eq!(planned(&ix, &slots, "(dept=*)"), None);
        assert_eq!(planned(&ix, &slots, "(!(dept=1))"), None);
        assert_eq!(planned(&ix, &slots, "(|(dept=1)(serialNumber=*3))"), None);
        assert_eq!(planned(&ix, &slots, "(ghost=1)"), Some((vec![], true)));
        assert_eq!(ix.check(|| live(&slots)), Ok(vec![]));
        assert!(!ix.by_attr.contains_key("ghost".as_bytes()));
        // A write to an attribute nobody keeps edits no posting, and
        // copies no node of a clone taken before it.
        assert_eq!(planned(&ix, &slots, "(serialNumber=100003)"), Some((vec![3], true)));
        let clone = ix.clone();
        let mut moved = person(4);
        moved.replace("dept", ["2"]);
        ix.reindex(4, Some(&person(4)), Some(&moved));
        slots[4] = Some(moved.clone());
        assert_eq!(ix.node_addrs(), clone.node_addrs());
        assert_eq!(ix.check(|| live(&slots)), Ok(vec!["serialnumber"]));
        // The first plan keeps what it plans on, listed over the live
        // slots, says so, and plans on it.
        let f = "(&(dept=2)(serialNumber>=100003)(!(objectclass=x)))";
        let mut listed = Vec::new();
        let plan = ix.plan(&Filter::parse(f).unwrap(), || live(&slots), |a, n| listed.push((a.to_string(), n)));
        assert_eq!(plan.map(|p| (p.ids.into_owned(), p.exact)), Some((vec![4, 5], false)));
        assert_eq!(listed, [("dept".to_owned(), 5)]);
        assert_eq!(ix.check(|| live(&slots)), Ok(vec!["dept", "serialnumber"]));
        let either = "(|(dept=0)(objectclass=person))";
        assert_eq!(planned(&ix, &slots, either), Some((vec![0, 1, 3, 4, 5], true)));
        assert_eq!(ix.check(|| live(&slots)), Ok(vec!["dept", "objectclass", "serialnumber"]));
        assert_eq!(ix.kept_count(), 3);
        // The keep is the index's own: the clone taken before it keeps
        // only what it kept then.
        assert_eq!(clone.kept_count(), 1);
        assert!(clone.carries_unkept(&"dept".into()));
        // From then on, edits maintain it.
        ix.reindex(4, Some(&moved), Some(&person(4)));
        slots[4] = Some(person(4));
        ix.reindex(5, Some(&person(5)), None);
        slots[5] = None;
        assert_eq!(ix.check(|| live(&slots)), Ok(vec!["dept", "objectclass", "serialnumber"]));
        assert_eq!(planned(&ix, &slots, f), Some((vec![], false)));
        assert_eq!(planned(&ix, &slots, "(dept=1)"), Some((vec![1, 4], true)));
    }

    /// What the shared keep rule asks of the index: a name an entry
    /// carries, in any case, until it is kept; never one nobody carries.
    #[test]
    fn carries_unkept_until_kept() {
        let mut ix = Indexes::default();
        let slots = [Some(person(0).with("mail", "m@x"))];
        ix.reindex(0, None, slots[0].as_ref());
        let unkept = |ix: &Indexes, a: &str| ix.carries_unkept(&a.into());
        assert!(unkept(&ix, "DEPT") && unkept(&ix, "mail") && !unkept(&ix, "ghost"));
        assert_eq!(planned(&ix, &slots, "(dept=0)"), Some((vec![0], true)));
        assert!(!unkept(&ix, "dept") && unkept(&ix, "serialNumber"));
    }

    #[test]
    fn reindex_moves_only_the_values_that_differ() {
        let mut ix = people(6);
        let untouched = maps_of(&ix, "serialnumber").text.node_addrs();
        let mut new = person(2);
        new.replace("dept", ["7"]);
        new.add("mail", "two@x");
        ix.reindex(2, Some(&person(2)), Some(&new));
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![5]));
        assert_eq!(plan_of(&ix, "(dept=7)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(dept>=3)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(mail=two@x)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(serialNumber=100002)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(objectclass=person)"), Some((0..6).collect()));
        assert_eq!(maps_of(&ix, "serialnumber").text.node_addrs(), untouched);
        // Back again: the added attribute's keys leave with its only
        // carrier; the attribute stays kept.
        ix.reindex(2, Some(&new), Some(&person(2)));
        assert_eq!(plan_of(&ix, "(mail=two@x)"), Some(vec![]));
        assert!(maps_of(&ix, "mail").text.is_empty());
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![2, 5]));
    }

    /// A write shares the value sets it does not change with the version
    /// it writes over, and those are not looked up: the result is the
    /// index a version sharing nothing gives.
    #[test]
    fn a_shared_value_set_reindexes_as_an_equal_one() {
        let held: Vec<Entry> = (0..6).map(person).collect();
        let mut shared = kept();
        let mut copied = people(6);
        for (id, e) in (0..).zip(&held) {
            shared.reindex(id, None, Some(e));
        }
        let mut new = held[2].clone();
        new.replace("dept", ["7"]);
        new.add("mail", "two@x");
        let untouched = maps_of(&shared, "serialnumber").text.node_addrs();
        shared.reindex(2, Some(&held[2]), Some(&new));
        let mut fresh = person(2);
        fresh.replace("dept", ["7"]);
        fresh.add("mail", "two@x");
        copied.reindex(2, Some(&person(2)), Some(&fresh));
        for f in ["(dept=2)", "(dept=7)", "(mail=two@x)", "(serialNumber=100002)", "(objectclass=person)"] {
            assert_eq!(plan_of(&shared, f), plan_of(&copied, f), "{f}");
        }
        assert_eq!(plan_of(&shared, "(dept=7)"), Some(vec![2]));
        assert_eq!(maps_of(&shared, "serialnumber").text.node_addrs(), untouched);
        // The very body again changes nothing.
        let epoch = shared.clone();
        shared.reindex(2, Some(&new), Some(&new.clone()));
        assert_eq!(shared.node_addrs(), epoch.node_addrs());
    }

    #[test]
    fn remove_keeps_index_exact() {
        let mut ix = people(6);
        ix.reindex(2, Some(&person(2)), None);
        assert_eq!(plan_of(&ix, "(serialNumber=100002)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![5]));
        assert_eq!(plan_of(&ix, "(objectclass=person)"), Some(vec![0, 1, 3, 4, 5]));
        // Removing everything empties every posting map.
        for id in [0u32, 1, 3, 4, 5] {
            ix.reindex(id, Some(&person(id)), None);
        }
        assert!(ix.postings().is_empty());
        assert_eq!(ix.kept_count(), 5);
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
        assert!(maps_of(&ix, "n").num.is_empty());
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

    #[test]
    fn unkept_in_names_what_a_filter_would_plan_on() {
        let carried = ["serialnumber", "dept", "mail", "objectclass"];
        let unkept = |f: &str, kept: &[&str]| -> Vec<String> {
            let f = Filter::parse(f).unwrap();
            let unkept = |a: &AttrName| carried.contains(&a.lower()) && !kept.contains(&a.lower());
            unkept_in(&f, unkept).iter().map(|a| a.to_string()).collect()
        };
        // Presence and `Not` plan on nothing; an `Or` only when every
        // branch can; a name nobody carries is never kept; each name once,
        // as the filter first spells it.
        let f = "(&(serialNumber=1)(dept=*)(!(mail=x))(|(dept=1)(objectclass=*))\
                 (|(DEPT=2)(serialNumber>=3))(ghost=1))";
        assert_eq!(unkept(f, &[]), ["serialNumber", "DEPT"]);
        assert!(unkept("(|(mail=x)(objectclass=*))", &[]).is_empty());
        assert_eq!(unkept("(&(mail=x)(|(dept=1)(&(objectclass=*)(mail>=y))))", &[]), ["mail", "dept"]);
        assert_eq!(unkept(f, &["dept"]), ["serialNumber"]);
        assert!(unkept("(ghost=1)", &[]).is_empty());
    }

    #[test]
    fn exactness_follows_the_filter_shape() {
        let mut ix = kept();
        for id in 0..12u32 {
            insert(&mut ix, "serialNumber", &format!("{}", 100_000 + id), id);
            insert(&mut ix, "dept", &format!("{}", id % 3), id);
        }
        for f in [
            "(dept=1)",
            "(serialNumber>=100006)",
            "(serialNumber<=10000x)",
            "(serialNumber=10000*)",
            "(ghost=1)",
            "(&(dept=0)(serialNumber>=100006))",
            "(|(serialNumber=100001)(dept=2))",
            "(&(dept=1)(|(serialNumber=1000*)(dept=2)))",
        ] {
            assert_eq!(exact_of(&ix, f), Some(true), "{f}");
        }
        for f in [
            // More than an `initial`: the prefix bounds, the rest decides.
            "(serialNumber=1*1)",
            "(serialNumber=10*0*)",
            // A conjunct that does not plan leaves the plan a bound.
            "(&(dept=1)(serialNumber=*x*))",
            "(&(dept=1)(dept=*))",
            "(&(dept=1)(!(dept=2)))",
            "(|(dept=1)(serialNumber=1*1))",
        ] {
            assert_eq!(exact_of(&ix, f), Some(false), "{f}");
        }
        // Unplannable shapes have no plan to be exact.
        for f in ["(dept=*)", "(!(dept=1))", "(serialNumber=*1)", "(|(dept=1)(dept=*))"] {
            assert_eq!(exact_of(&ix, f), None, "{f}");
        }
    }
}
