//! LDAP templates — query prototypes (§3.4.2 of the paper).
//!
//! A *template* is a filter with every assertion value replaced by the `_`
//! character: `(&(sn=_)(givenName=_))`, `(sn=_*)`. Typical directory
//! applications generate queries from a small, finite set of templates, and
//! the containment algorithms exploit this:
//!
//! 1. comparisons against templates that cannot possibly answer a query are
//!    eliminated up front,
//! 2. containment conditions between two templates can be computed apriori
//!    (Proposition 2), and
//! 3. containment within one template reduces to comparing assertion values
//!    slot by slot (Proposition 3).
//!
//! [`Template::of`] finds a query's template and its assertion values in
//! slot order.
//!
//! # One table, one handle per template
//!
//! Because the set is small, a template is built once per process. A
//! [`Template`] is a shared handle on a body kept in one process-wide
//! table; [`Template::of`] hashes and compares a filter's *shape* —
//! operators, lowercased attribute names, comparison kinds, substring star
//! shapes — against the bodies already there **without building
//! anything**, so extracting a known shape costs one table read and the
//! values. Two handles of the table are the same template exactly when
//! they point at the same body: identity is a pointer compare
//! ([`Template::eq`]), or a small integer ([`Template::table_index`]) for
//! a consumer that keys a map by it; the id string is kept for display.
//! What depends only on the shape — the routing plans — is computed once
//! on the body and read by every holder.
//!
//! The table never holds more than [`TEMPLATE_TABLE_CAP`] bodies. A shape
//! that arrives after that is extracted the long way into a body of its
//! own, which no later call shares and which is freed with its last
//! handle; such a handle still equals any template with the same id. A
//! flood of distinct shapes therefore costs time per query, never memory,
//! and never changes what is decided ([`Template::table_stats`] counts
//! both sides).

use crate::{AttrName, AttrValue, Comparison, Filter, Predicate, SubstringPattern};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Identifier for a template: its canonical string form, e.g. `(sn=_*)`.
///
/// Comparing two `TemplateId`s answers "do these queries share a
/// prototype" by text; comparing the [`Template`]s themselves answers it
/// by identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TemplateId(String);

impl TemplateId {
    /// The canonical template string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Description of one value slot in a template.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Slot {
    attr: AttrName,
    kind: Cow<'static, str>,
}

impl Slot {
    /// The attribute this slot's predicate constrains.
    pub fn attr(&self) -> &AttrName {
        &self.attr
    }

    /// The comparison kind label (see [`Comparison::kind`]).
    pub fn kind(&self) -> &str {
        &self.kind
    }
}

/// The most templates the process-wide table holds. Table 1's workload is
/// four templates and a deployment's applications bring tens; 1 024 leaves
/// two orders of magnitude of room and bounds the table at 32 kB of slots
/// plus about a megabyte of bodies (0.6–1.2 kB each with its routing
/// plans; DESIGN §5, *Templates*).
pub const TEMPLATE_TABLE_CAP: usize = 1024;

/// What the process-wide template table holds and what it turned away
/// (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateTableStats {
    /// Templates interned so far; never above [`TEMPLATE_TABLE_CAP`].
    pub interned: usize,
    /// Extractions of a shape the full table could not take: each built an
    /// unshared body.
    pub uninterned: u64,
}

/// What a template is, behind the handle.
#[derive(Debug)]
struct Body {
    /// Position in the table, `None` for a body the table does not hold.
    index: Option<u32>,
    id: TemplateId,
    /// Structure with values dropped; used to re-instantiate queries.
    shape: Filter,
    slots: Vec<Slot>,
    /// [`Template::routing_plans`], derived on first use.
    plans: OnceLock<Option<Vec<Vec<SlotKey>>>>,
}

impl Body {
    /// Extracts a template the long way, by building it: a body no table
    /// holds yet.
    fn extract(filter: &Filter) -> Body {
        let mut slots = Vec::new();
        let shape = abstract_filter(filter, &mut slots);
        Body { index: None, id: TemplateId(shape.to_string()), shape, slots, plans: OnceLock::new() }
    }
}

/// A query template: filter structure with assertion values abstracted.
/// A cheap handle — cloning one copies a pointer — on a body shared by
/// every query of the template (see the module documentation).
///
/// ```
/// use fbdr_ldap::{Filter, Template};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Filter::parse("(&(sn=Doe)(givenName=John))")?;
/// let (t, values) = Template::of(&q);
/// assert_eq!(t.id().as_str(), "(&(sn=_)(givenname=_))");
/// assert_eq!(values.len(), 2);
/// assert_eq!(values[0].raw(), "Doe");
/// // Another query of the prototype, however it spells its attributes,
/// // gets the same template.
/// let (again, _) = Template::of(&Filter::parse("(&(SN=Smith)(givenname=Ann))")?);
/// assert_eq!(t, again);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Template(Arc<Body>);

impl PartialEq for Template {
    /// Identity: two handles of the table are equal exactly when they
    /// share a body. A handle the table does not hold compares by id.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || ((self.0.index.is_none() || other.0.index.is_none()) && self.0.id == other.0.id)
    }
}

impl Eq for Template {}

/// The process-wide table: open addressing over a fixed slot array twice
/// the cap, so a probe sequence always ends at an empty slot. Nothing is
/// ever removed.
struct Table {
    /// Keyed per process, so shapes cannot be crafted to collide.
    hasher: RandomState,
    slots: RwLock<TableSlots>,
    uninterned: AtomicU64,
}

struct TableSlots {
    /// A shape's hash beside its template.
    entries: Box<[Option<(u64, Template)>]>,
    len: usize,
}

impl TableSlots {
    fn probe(&self, hash: u64) -> impl Iterator<Item = usize> {
        let mask = self.entries.len() - 1;
        (0..self.entries.len()).map(move |step| (hash as usize).wrapping_add(step) & mask)
    }

    /// The interned template of `filter`'s shape.
    fn find(&self, hash: u64, filter: &Filter) -> Option<&Template> {
        for i in self.probe(hash) {
            match &self.entries[i] {
                Some((h, t)) if *h == hash && same_shape(filter, &t.0.shape) => return Some(t),
                Some(_) => {}
                None => return None,
            }
        }
        None
    }
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table {
        hasher: RandomState::new(),
        slots: RwLock::new(TableSlots {
            entries: vec![None; 2 * TEMPLATE_TABLE_CAP].into_boxed_slice(),
            len: 0,
        }),
        uninterned: AtomicU64::new(0),
    })
}

/// The template of `filter`: the table's when the shape is known or the
/// table has room, an unshared one otherwise.
fn intern(filter: &Filter) -> Template {
    let table = table();
    let mut hasher = table.hasher.build_hasher();
    hash_shape(filter, &mut hasher);
    let hash = hasher.finish();
    // A panic cannot leave the slots half-written (an entry is stored
    // before it is counted, and nothing between the two can fail), so a
    // poisoned lock still guards a valid table.
    let full = {
        let slots = table.slots.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(known) = slots.find(hash, filter) {
            return known.clone();
        }
        slots.len == TEMPLATE_TABLE_CAP
    };
    let mut body = Body::extract(filter);
    if !full {
        let mut slots = table.slots.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(raced) = slots.find(hash, filter) {
            return raced.clone();
        }
        if slots.len < TEMPLATE_TABLE_CAP {
            body.index = Some(slots.len as u32);
            let template = Template(Arc::new(body));
            let free = slots
                .probe(hash)
                .find(|&i| slots.entries[i].is_none())
                .expect("the table is at most half full");
            slots.entries[free] = Some((hash, template.clone()));
            slots.len += 1;
            return template;
        }
    }
    table.uninterned.fetch_add(1, Ordering::Relaxed);
    Template(Arc::new(body))
}

/// Feeds what makes two filters the same template — and nothing else —
/// to `h`: operators and arities, lowercased attribute names, comparison
/// kinds, substring star shapes.
fn hash_shape(f: &Filter, h: &mut impl Hasher) {
    match f {
        Filter::And(fs) | Filter::Or(fs) => {
            h.write_u8(if matches!(f, Filter::And(_)) { b'&' } else { b'|' });
            h.write_usize(fs.len());
            for sub in fs {
                hash_shape(sub, h);
            }
        }
        Filter::Not(sub) => {
            h.write_u8(b'!');
            hash_shape(sub, h);
        }
        Filter::Pred(p) => {
            h.write(p.attr().lower().as_bytes());
            // Not a byte of UTF-8 text: ends the name.
            h.write_u8(0xff);
            let (kind, stars) = match p.comparison() {
                Comparison::Eq(_) => (b'=', 0),
                Comparison::Ge(_) => (b'>', 0),
                Comparison::Le(_) => (b'<', 0),
                Comparison::Present => (b'?', 0),
                Comparison::Substring(pat) => (
                    b'*',
                    usize::from(pat.initial().is_some())
                        | usize::from(pat.final_part().is_some()) << 1
                        | pat.any().len() << 2,
                ),
            };
            h.write_u8(kind);
            h.write_usize(stars);
        }
    }
}

/// Whether `filter` abstracts to `shape` (a template body's), decided on
/// the two trees as they stand.
fn same_shape(filter: &Filter, shape: &Filter) -> bool {
    match (filter, shape) {
        (Filter::And(a), Filter::And(b)) | (Filter::Or(a), Filter::Or(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_shape(x, y))
        }
        (Filter::Not(a), Filter::Not(b)) => same_shape(a, b),
        (Filter::Pred(p), Filter::Pred(q)) => {
            p.attr() == q.attr()
                && match (p.comparison(), q.comparison()) {
                    (Comparison::Eq(_), Comparison::Eq(_))
                    | (Comparison::Ge(_), Comparison::Ge(_))
                    | (Comparison::Le(_), Comparison::Le(_))
                    | (Comparison::Present, Comparison::Present) => true,
                    (Comparison::Substring(x), Comparison::Substring(y)) => {
                        x.initial().is_some() == y.initial().is_some()
                            && x.any().len() == y.any().len()
                            && x.final_part().is_some() == y.final_part().is_some()
                    }
                    _ => false,
                }
        }
        _ => false,
    }
}

/// Appends the assertion values of `filter` in slot order: equality and
/// range assertions as they stand in the filter, one value made per
/// substring component.
fn collect_values<'a>(filter: &'a Filter, out: &mut Vec<Cow<'a, AttrValue>>) {
    filter.for_each_predicate(&mut |p| match p.comparison() {
        Comparison::Eq(v) | Comparison::Ge(v) | Comparison::Le(v) => out.push(Cow::Borrowed(v)),
        Comparison::Present => {}
        Comparison::Substring(pat) => {
            out.extend(pat.components().map(|c| Cow::Owned(AttrValue::new(c))));
        }
    });
}

impl Template {
    /// The template of a filter and the filter's assertion values, in
    /// slot (left-to-right) order. Presence predicates contribute no slot.
    /// Substring predicates contribute one slot per text component, and the
    /// star shape is part of the template (so `(sn=_*)` and `(sn=*_)` are
    /// different templates).
    pub fn of(filter: &Filter) -> (Template, Vec<AttrValue>) {
        let (template, values) = Template::of_borrowed(filter);
        (template, values.into_iter().map(Cow::into_owned).collect())
    }

    /// [`Template::of`] without copying the values: equality and range
    /// assertions are references into `filter`, substring components —
    /// values the filter does not hold as such — the only owned ones.
    pub fn of_borrowed(filter: &Filter) -> (Template, Vec<Cow<'_, AttrValue>>) {
        let template = intern(filter);
        let mut values = Vec::with_capacity(template.slot_count());
        collect_values(filter, &mut values);
        (template, values)
    }

    /// Size and refusals of the process-wide table.
    pub fn table_stats() -> TemplateTableStats {
        let table = table();
        TemplateTableStats {
            interned: table.slots.read().unwrap_or_else(PoisonError::into_inner).len,
            uninterned: table.uninterned.load(Ordering::Relaxed),
        }
    }

    /// The template's position in the process-wide table — a dense small
    /// integer two templates share exactly when they are equal — or `None`
    /// for a template extracted after the table filled up, which has no
    /// identity beyond its id.
    pub fn table_index(&self) -> Option<u32> {
        self.0.index
    }

    /// The canonical identifier.
    pub fn id(&self) -> &TemplateId {
        &self.0.id
    }

    /// The value slots, left to right.
    pub fn slots(&self) -> &[Slot] {
        &self.0.slots
    }

    /// Number of value slots.
    pub fn slot_count(&self) -> usize {
        self.0.slots.len()
    }

    /// The abstracted filter structure (assertion values are the literal
    /// string `_`).
    pub fn shape(&self) -> &Filter {
        &self.0.shape
    }

    /// Re-instantiates a concrete filter from assertion values.
    ///
    /// # Errors
    ///
    /// Returns `None` when `values.len() != self.slot_count()`.
    pub fn instantiate(&self, values: &[AttrValue]) -> Option<Filter> {
        if values.len() != self.0.slots.len() {
            return None;
        }
        let mut idx = 0;
        Some(substitute(&self.0.shape, values, &mut idx))
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.id.as_str())
    }
}

/// One routing key of a template, referring to value slots by index
/// (see [`Template::routing_plans`]).
///
/// A key *matches* an entry when the entry has a value for `attr` that is
/// equal to / starts with / merely exists for the instantiated slot value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SlotKey {
    /// An equality assertion: the slot's value must appear verbatim
    /// (normalized) among the entry's values of `attr`.
    Eq {
        /// The constrained attribute.
        attr: AttrName,
        /// Index into the template's value slots.
        slot: usize,
    },
    /// An initial-substring assertion: some value of `attr` must start
    /// with the slot's (normalized) text.
    Prefix {
        /// The constrained attribute.
        attr: AttrName,
        /// Index of the `initial` component's slot.
        slot: usize,
    },
    /// A presence assertion: the entry must have `attr` at all. Carries no
    /// slot — presence predicates have no assertion value.
    Present {
        /// The constrained attribute.
        attr: AttrName,
    },
}

impl SlotKey {
    fn rank(&self) -> u8 {
        // Selectivity order used when a conjunction offers a choice.
        match self {
            SlotKey::Eq { .. } => 0,
            SlotKey::Prefix { .. } => 1,
            SlotKey::Present { .. } => 2,
        }
    }
}

impl Template {
    /// Every **sound routing plan** of the template shape: each returned
    /// key set is independently sufficient — *any* entry matched by *any*
    /// query of this template satisfies at least one of its keys
    /// (instantiated with that query's slot values). Returns `None` when
    /// the shape has no sound keys at all (negations, range assertions,
    /// substring patterns without an initial component) and the query
    /// must go on a residual scan list.
    ///
    /// The plans depend only on the template, so they are derived once,
    /// on the body every handle of the template shares, and every
    /// interest index over same-template queries instantiates them per
    /// query — the paper's template argument (§4) applied to update
    /// fan-out instead of containment.
    ///
    /// Soundness per node:
    /// * a predicate keys on itself (`=` → [`SlotKey::Eq`], `initial*` →
    ///   [`SlotKey::Prefix`], `=*` → [`SlotKey::Present`]); ranges,
    ///   negations and star-leading substrings are not indexable;
    /// * a conjunction is covered by *any one* child's keys (every match
    ///   satisfies all children), so it offers one alternative per
    ///   indexable child — a consumer that knows the live key population
    ///   (an interest index) picks the one with the least-loaded posting
    ///   lists, which matters when a template mixes a high-selectivity
    ///   slot with a near-constant one (`(&(objectclass=_)(dept=_))`:
    ///   keying every query on its `objectclass` value degenerates to a
    ///   broadcast);
    /// * a disjunction needs *all* children indexable (a match may satisfy
    ///   any one branch); its one alternative is the union of each child's
    ///   most selective keys (equality over prefix over presence, then
    ///   fewer keys).
    ///
    /// ```
    /// use fbdr_ldap::{Filter, SlotKey, Template};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let q = Filter::parse("(&(objectclass=person)(dept=7))")?;
    /// let (t, values) = Template::of(&q);
    /// let plans = t.routing_plans().expect("conjunction of equalities");
    /// // One key suffices for an AND: each child is an alternative.
    /// assert_eq!(plans.len(), 2);
    /// let SlotKey::Eq { slot, .. } = &plans[0][0] else { panic!("eq key") };
    /// assert_eq!(values[*slot].raw(), "person");
    /// assert!(Template::of(&Filter::parse("(!(dept=7))")?).0.routing_plans().is_none());
    /// # Ok(())
    /// # }
    /// ```
    pub fn routing_plans(&self) -> Option<&[Vec<SlotKey>]> {
        self.0.plans.get_or_init(|| plan_node(&self.0.shape, &mut 0)).as_deref()
    }
}

/// Recursive plan extraction, returning all alternative key sets. Always
/// advances `slot` across the whole subtree (so sibling plans see correct
/// slot indices) even when the subtree itself is not indexable.
fn plan_node(f: &Filter, slot: &mut usize) -> Option<Vec<Vec<SlotKey>>> {
    match f {
        Filter::Pred(p) => {
            let attr = AttrName::new(p.attr().lower());
            match p.comparison() {
                Comparison::Eq(_) => {
                    let key = SlotKey::Eq { attr, slot: *slot };
                    *slot += 1;
                    Some(vec![vec![key]])
                }
                Comparison::Ge(_) | Comparison::Le(_) => {
                    *slot += 1;
                    None
                }
                Comparison::Present => Some(vec![vec![SlotKey::Present { attr }]]),
                Comparison::Substring(pat) => {
                    let components = pat.components().count();
                    let plan = pat
                        .initial()
                        .map(|_| vec![vec![SlotKey::Prefix { attr, slot: *slot }]]);
                    *slot += components;
                    plan
                }
            }
        }
        Filter::And(fs) => {
            // Every indexable child is a sound alternative on its own
            // (a match satisfies all children), so offer them all.
            let mut alts: Vec<Vec<SlotKey>> = Vec::new();
            for child in fs {
                if let Some(child_alts) = plan_node(child, slot) {
                    alts.extend(child_alts);
                }
            }
            (!alts.is_empty()).then_some(alts)
        }
        Filter::Or(fs) => {
            // A match may satisfy any one branch: all children must be
            // indexable, and the union forms a single alternative (each
            // child collapsed to its statically best key set — a cross
            // product of alternatives would explode).
            let mut keys = Vec::new();
            let mut indexable = true;
            for child in fs {
                match plan_node(child, slot) {
                    Some(child_alts) => keys.extend(
                        child_alts
                            .into_iter()
                            .min_by_key(|a| plan_score(a))
                            .expect("alternatives are non-empty"),
                    ),
                    None => indexable = false, // keep walking: slots must advance
                }
            }
            indexable.then_some(vec![keys])
        }
        Filter::Not(inner) => {
            plan_node(inner, slot);
            None
        }
    }
}

/// Lower is better: prefer plans whose weakest key is strongest, then
/// fewer keys (fewer posting lists to maintain and probe).
fn plan_score(plan: &[SlotKey]) -> (u8, usize) {
    (plan.iter().map(SlotKey::rank).max().unwrap_or(u8::MAX), plan.len())
}

const PLACEHOLDER: &str = "_";

fn abstract_filter(f: &Filter, slots: &mut Vec<Slot>) -> Filter {
    match f {
        Filter::And(fs) => Filter::And(fs.iter().map(|s| abstract_filter(s, slots)).collect()),
        Filter::Or(fs) => Filter::Or(fs.iter().map(|s| abstract_filter(s, slots)).collect()),
        Filter::Not(s) => Filter::Not(Box::new(abstract_filter(s, slots))),
        Filter::Pred(p) => Filter::Pred(abstract_pred(p, slots)),
    }
}

fn abstract_pred(p: &Predicate, slots: &mut Vec<Slot>) -> Predicate {
    // Lowercase the attribute in the shape so template identity is
    // independent of how the application spelled the attribute name.
    let attr = AttrName::new(p.attr().lower());
    let (values, abstracted) = match p.comparison() {
        Comparison::Eq(_) => (1, Predicate::eq(attr.clone(), PLACEHOLDER)),
        Comparison::Ge(_) => (1, Predicate::ge(attr.clone(), PLACEHOLDER)),
        Comparison::Le(_) => (1, Predicate::le(attr.clone(), PLACEHOLDER)),
        Comparison::Present => (0, Predicate::present(attr.clone())),
        Comparison::Substring(pat) => {
            let abs = SubstringPattern::new(
                pat.initial().map(|_| PLACEHOLDER.to_owned()),
                pat.any().iter().map(|_| PLACEHOLDER.to_owned()).collect(),
                pat.final_part().map(|_| PLACEHOLDER.to_owned()),
            );
            (pat.components().count(), Predicate::substring(attr.clone(), abs))
        }
    };
    slots.extend(std::iter::repeat_n(Slot { attr, kind: p.comparison().kind() }, values));
    abstracted
}

fn substitute(f: &Filter, values: &[crate::AttrValue], idx: &mut usize) -> Filter {
    match f {
        Filter::And(fs) => Filter::And(fs.iter().map(|s| substitute(s, values, idx)).collect()),
        Filter::Or(fs) => Filter::Or(fs.iter().map(|s| substitute(s, values, idx)).collect()),
        Filter::Not(s) => Filter::Not(Box::new(substitute(s, values, idx))),
        Filter::Pred(p) => {
            let mut next = || {
                let v = values[*idx].clone();
                *idx += 1;
                v
            };
            let pred = match p.comparison() {
                Comparison::Eq(_) => Predicate::eq(p.attr().clone(), next()),
                Comparison::Ge(_) => Predicate::ge(p.attr().clone(), next()),
                Comparison::Le(_) => Predicate::le(p.attr().clone(), next()),
                Comparison::Present => Predicate::present(p.attr().clone()),
                Comparison::Substring(pat) => {
                    let initial = pat.initial().map(|_| next().raw().to_owned());
                    let any = pat.any().iter().map(|_| next().raw().to_owned()).collect();
                    let fin = pat.final_part().map(|_| next().raw().to_owned());
                    Predicate::substring(p.attr().clone(), SubstringPattern::new(initial, any, fin))
                }
            };
            Filter::Pred(pred)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrValue;

    fn f(s: &str) -> Filter {
        Filter::parse(s).unwrap()
    }

    #[test]
    fn equality_template() {
        let (t, vals) = Template::of(&f("(uid=jdoe)"));
        assert_eq!(t.id().as_str(), "(uid=_)");
        assert_eq!(vals, vec![AttrValue::new("jdoe")]);
        assert_eq!(t.slots()[0].attr().as_str(), "uid");
        assert_eq!(t.slots()[0].kind(), "=");
    }

    #[test]
    fn conjunction_template_matches_paper_examples() {
        let (t, _) = Template::of(&f("(&(cn=Fred)(ou=research))"));
        assert_eq!(t.id().as_str(), "(&(cn=_)(ou=_))");
        let (t2, _) = Template::of(&f("(&(sn=Doe)(givenName=John))"));
        assert_eq!(t2.id().as_str(), "(&(sn=_)(givenname=_))");
    }

    #[test]
    fn substring_template_keeps_star_shape() {
        let (t, vals) = Template::of(&f("(sn=smi*)"));
        assert_eq!(t.id().as_str(), "(sn=_*)");
        assert_eq!(vals, vec![AttrValue::new("smi")]);
        let (t2, _) = Template::of(&f("(sn=*ith)"));
        assert_eq!(t2.id().as_str(), "(sn=*_)");
        assert_ne!(t.id(), t2.id());
        let (t3, vals3) = Template::of(&f("(serialNumber=04*56)"));
        assert_eq!(t3.id().as_str(), "(serialnumber=_*_)");
        assert_eq!(vals3.len(), 2);
    }

    #[test]
    fn presence_contributes_no_slot() {
        let (t, vals) = Template::of(&f("(&(objectclass=*)(dept=2406))"));
        assert_eq!(t.id().as_str(), "(&(objectclass=*)(dept=_))");
        assert_eq!(vals.len(), 1);
    }

    #[test]
    fn same_template_different_values() {
        let (t1, v1) = Template::of(&f("(dept=2406)"));
        let (t2, v2) = Template::of(&f("(dept=2407)"));
        assert_eq!(t1.id(), t2.id());
        assert_ne!(v1, v2);
    }

    #[test]
    fn instantiate_round_trip() {
        for s in [
            "(&(sn=Doe)(givenName=John))",
            "(sn=smi*th)",
            "(&(objectclass=*)(age>=30))",
            "(|(a=1)(!(b<=2)))",
        ] {
            let q = f(s);
            let (t, vals) = Template::of(&q);
            let back = t.instantiate(&vals).expect("arity matches");
            assert_eq!(back, q, "instantiate(of({s})) differs");
        }
    }

    #[test]
    fn instantiate_wrong_arity_is_none() {
        let (t, _) = Template::of(&f("(&(a=1)(b=2))"));
        assert!(t.instantiate(&[AttrValue::new("x")]).is_none());
    }

    #[test]
    fn routing_plans_simple_predicates() {
        let (t, _) = Template::of(&f("(uid=jdoe)"));
        let uid = SlotKey::Eq { attr: "uid".into(), slot: 0 };
        assert_eq!(t.routing_plans(), Some(&[vec![uid]][..]));
        let (t, _) = Template::of(&f("(sn=smi*)"));
        assert_eq!(
            t.routing_plans(),
            Some(&[vec![SlotKey::Prefix { attr: "sn".into(), slot: 0 }]][..])
        );
        let (t, _) = Template::of(&f("(mail=*)"));
        assert_eq!(t.routing_plans(), Some(&[vec![SlotKey::Present { attr: "mail".into() }]][..]));
    }

    #[test]
    fn routing_plans_residual_shapes() {
        for s in ["(age>=30)", "(age<=30)", "(sn=*ith)", "(!(uid=x))", "(|(uid=x)(age>=3))"] {
            let (t, _) = Template::of(&f(s));
            assert_eq!(t.routing_plans(), None, "{s} should be residual");
        }
    }

    #[test]
    fn routing_plans_and_offers_each_indexable_child_with_correct_slot() {
        // The range slot (0) is unindexable; the equality must key slot 1.
        let (t, vals) = Template::of(&f("(&(age>=30)(uid=jdoe))"));
        let uid = SlotKey::Eq { attr: "uid".into(), slot: 1 };
        assert_eq!(t.routing_plans(), Some(&[vec![uid]][..]));
        assert_eq!(vals[1].raw(), "jdoe");
        let (t, _) = Template::of(&f("(&(mail=*)(sn=smi*)(uid=jdoe))"));
        assert_eq!(
            t.routing_plans(),
            Some(
                &[
                    vec![SlotKey::Present { attr: "mail".into() }],
                    vec![SlotKey::Prefix { attr: "sn".into(), slot: 0 }],
                    vec![SlotKey::Eq { attr: "uid".into(), slot: 1 }],
                ][..]
            )
        );
    }

    #[test]
    fn routing_plans_or_unions_all_branches() {
        let (t, vals) = Template::of(&f("(|(dept=7)(sn=smi*th))"));
        // The OR needs both branches; the substring contributes its
        // initial slot (slot 1; slot 2 is the final component).
        assert_eq!(
            t.routing_plans(),
            Some(
                &[vec![
                    SlotKey::Eq { attr: "dept".into(), slot: 0 },
                    SlotKey::Prefix { attr: "sn".into(), slot: 1 },
                ]][..]
            )
        );
        assert_eq!(vals.len(), 3);
        // A conjunctive branch gives its most selective child: equality
        // beats prefix beats presence.
        let (t, _) = Template::of(&f("(|(&(mail=*)(sn=smi*)(uid=jdoe))(dept=7))"));
        assert_eq!(
            t.routing_plans(),
            Some(
                &[vec![
                    SlotKey::Eq { attr: "uid".into(), slot: 1 },
                    SlotKey::Eq { attr: "dept".into(), slot: 2 },
                ]][..]
            )
        );
    }

    #[test]
    fn routing_plans_slot_indices_survive_nesting() {
        // Slots: 0 = a's value, 1..=2 = substring components, 3 = c, 4 = d.
        let (t, vals) = Template::of(&f("(&(|(a=1)(b=*x*y))(|(c=3)(d=4)))"));
        // First OR is residual (no initial component); the second is the
        // one alternative.
        assert_eq!(
            t.routing_plans(),
            Some(
                &[vec![
                    SlotKey::Eq { attr: "c".into(), slot: 3 },
                    SlotKey::Eq { attr: "d".into(), slot: 4 },
                ]][..]
            )
        );
        assert_eq!(vals[3].raw(), "3");
        assert_eq!(vals[4].raw(), "4");
    }

    #[test]
    fn a_known_shape_gets_the_table_s_handle() {
        let (t1, v1) = Template::of(&f("(&(zq=a)(zr>=1)(zs=x*y))"));
        let (t2, v2) = Template::of(&f("(&(ZQ=b)(zR>=7)(zs=p*q))"));
        assert!(Arc::ptr_eq(&t1.0, &t2.0));
        assert!(t1.table_index().is_some());
        assert_eq!(t1.table_index(), t2.table_index());
        assert_eq!((v1.len(), v2.len()), (4, 4));
        // One star more or less, or another operator, is another template.
        for other in ["(&(zq=a)(zr>=1)(zs=x*y*))", "(&(zq=a)(zr<=1)(zs=x*y))", "(|(zq=a)(zr>=1)(zs=x*y))"] {
            let (t3, _) = Template::of(&f(other));
            assert_ne!(t3, t1, "{other}");
            assert_ne!(t3.table_index(), t1.table_index(), "{other}");
        }
        // The plans are the body's: every handle reads the same ones.
        let plans = t1.routing_plans().expect("equality and prefix keys");
        assert!(std::ptr::eq(plans, t2.routing_plans().expect("same body")));
        assert!(Template::table_stats().interned >= 4);
    }

    #[test]
    fn a_handle_outside_the_table_compares_by_id() {
        let (interned, _) = Template::of(&f("(zt=1)"));
        let outside = |s: &str| Template(Arc::new(Body::extract(&f(s))));
        assert_eq!(outside("(ZT=2)"), interned);
        assert_eq!(interned, outside("(zt=3)"));
        assert_eq!(outside("(zt=4)"), outside("(zt=5)"));
        assert_ne!(outside("(zt>=4)"), interned);
        assert_eq!(outside("(zt=4)").table_index(), None);
        let (conjunction, _) = Template::of(&f("(&(a=1)(zt=4*))"));
        assert_eq!(outside("(&(a=1)(zt=4*))").routing_plans(), conjunction.routing_plans());
    }

    #[test]
    fn attr_names_case_insensitive_in_id() {
        let (t1, _) = Template::of(&f("(SN=Doe)"));
        let (t2, _) = Template::of(&f("(sn=Doe)"));
        assert_eq!(t1.id(), t2.id());
        assert_eq!(t1.slots()[0].attr(), t2.slots()[0].attr());
    }
}
