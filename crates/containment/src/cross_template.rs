//! Cross-template containment — Proposition 2.
//!
//! For positive conjunctive templates over equality, range and
//! prefix-substring predicates, the condition for `F1 ⊆ F2` is a CNF whose
//! clauses correspond to the predicates of `F2`: each conjunct of
//! `F1 ∧ ¬F2` contains all of `F1`'s predicates plus one negated `F2`
//! predicate `¬q`, and it is inconsistent iff *some* `F1` predicate on the
//! same attribute clashes with `¬q`. The clash conditions depend only on
//! which value slots are compared how — so the CNF is compiled **once per
//! template pair** and then evaluated per query pair in O(#clauses ×
//! #literals) assertion-value comparisons.

use crate::same_template::{range_implies_ge, range_implies_le};
use fbdr_ldap::{AttrValue, Comparison, Filter, Predicate, Template};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// An atomic comparison between an `F1` value slot and an `F2` value slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Atom {
    /// `v1[i] == v2[j]` (normalized equality).
    EqEq(usize, usize),
    /// `v1[i]` satisfies `>= v2[j]` under typed range semantics.
    EqSatGe(usize, usize),
    /// `v1[i]` satisfies `<= v2[j]`.
    EqSatLe(usize, usize),
    /// Range-range: `(a >= v1[i])` implies `(a >= v2[j])`.
    GeGe(usize, usize),
    /// Range-range: `(a <= v1[i])` implies `(a <= v2[j])`.
    LeLe(usize, usize),
    /// `v1[i]` (an equality assertion) starts with prefix `v2[j]`.
    EqStartsWith(usize, usize),
    /// Prefix `v1[i]` extends prefix `v2[j]`.
    PrefixStartsWith(usize, usize),
}

/// Slot `i` of an assertion-value vector, owned or borrowed.
fn slot(values: &[impl Borrow<AttrValue>], i: usize) -> &AttrValue {
    values[i].borrow()
}

impl Atom {
    fn eval(self, v1: &[impl Borrow<AttrValue>], v2: &[impl Borrow<AttrValue>]) -> bool {
        match self {
            Atom::EqEq(i, j) => slot(v1, i) == slot(v2, j),
            Atom::EqSatGe(i, j) => {
                slot(v1, i).range_cmp(slot(v2, j)).is_some_and(|o| o != Ordering::Less)
            }
            Atom::EqSatLe(i, j) => {
                slot(v1, i).range_cmp(slot(v2, j)).is_some_and(|o| o != Ordering::Greater)
            }
            Atom::GeGe(i, j) => range_implies_ge(slot(v1, i), slot(v2, j)),
            Atom::LeLe(i, j) => range_implies_le(slot(v1, i), slot(v2, j)),
            Atom::EqStartsWith(i, j) | Atom::PrefixStartsWith(i, j) => {
                slot(v1, i).normalized().starts_with(slot(v2, j).normalized())
            }
        }
    }
}

/// A containment condition compiled for an ordered template pair.
#[derive(Debug, Clone)]
pub struct CompiledCondition {
    /// CNF: all clauses must have a true atom. A clause compiled empty
    /// makes the whole condition constant-false, represented eagerly.
    clauses: Vec<Vec<Atom>>,
    never: bool,
}

impl CompiledCondition {
    /// Evaluates the condition for a concrete pair of assertion-value
    /// vectors (in template slot order), owned or borrowed.
    pub fn eval(&self, v1: &[impl Borrow<AttrValue>], v2: &[impl Borrow<AttrValue>]) -> bool {
        !self.never && self.clauses.iter().all(|cl| cl.iter().any(|a| a.eval(v1, v2)))
    }

    /// True when the template pair can never contain (compiled to an empty
    /// clause), letting replicas skip these comparisons entirely — the
    /// "eliminating containment checks against templates which can not
    /// potentially answer the query" optimization of §3.4.2.
    pub fn is_never(&self) -> bool {
        self.never
    }
}

/// One predicate of a flattened conjunctive template, with the slot range
/// its assertion values occupy.
#[derive(Debug, Clone)]
struct FlatPred {
    attr_lower: String,
    kind: FlatKind,
    slot: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlatKind {
    Eq,
    Ge,
    Le,
    Present,
    /// Prefix-only substring (`x*`); slot points at the initial component.
    Prefix,
}

/// Flattens a template's shape if it is a supported conjunctive template:
/// a single predicate or an `And` of predicates, each of kind equality,
/// range, presence or prefix-substring.
fn flatten(shape: &Filter) -> Option<Vec<FlatPred>> {
    let preds: Vec<&Predicate> = match shape {
        Filter::Pred(p) => vec![p],
        Filter::And(fs) => {
            let mut ps = Vec::with_capacity(fs.len());
            for f in fs {
                match f {
                    Filter::Pred(p) => ps.push(p),
                    _ => return None,
                }
            }
            ps
        }
        _ => return None,
    };
    let mut out = Vec::with_capacity(preds.len());
    let mut slot = 0;
    for p in preds {
        let kind = match p.comparison() {
            Comparison::Eq(_) => FlatKind::Eq,
            Comparison::Ge(_) => FlatKind::Ge,
            Comparison::Le(_) => FlatKind::Le,
            Comparison::Present => FlatKind::Present,
            Comparison::Substring(pat) if pat.is_prefix_only() => FlatKind::Prefix,
            Comparison::Substring(_) => return None,
        };
        out.push(FlatPred { attr_lower: p.attr().lower().to_owned(), kind, slot });
        if kind != FlatKind::Present {
            slot += 1;
        }
    }
    Some(out)
}

/// The clash condition for `p ∧ ¬q` on the same attribute, as an atom over
/// value slots; `None` when the pair can never clash.
fn clash_atom(p: &FlatPred, q: &FlatPred) -> Option<Atom> {
    use FlatKind::*;
    match (p.kind, q.kind) {
        // ¬q forbids the attribute entirely only for q=Present — handled
        // by the caller (any positive p clashes).
        (_, Present) => unreachable!("present clauses handled by caller"),
        (Eq, Eq) => Some(Atom::EqEq(p.slot, q.slot)),
        (Eq, Ge) => Some(Atom::EqSatGe(p.slot, q.slot)),
        (Eq, Le) => Some(Atom::EqSatLe(p.slot, q.slot)),
        (Eq, Prefix) => Some(Atom::EqStartsWith(p.slot, q.slot)),
        (Ge, Ge) => Some(Atom::GeGe(p.slot, q.slot)),
        (Le, Le) => Some(Atom::LeLe(p.slot, q.slot)),
        (Prefix, Prefix) => Some(Atom::PrefixStartsWith(p.slot, q.slot)),
        // A range or presence predicate admits values no equality or
        // prefix can pin down, and mixed range directions are unbounded.
        _ => None,
    }
}

/// Compiles the Proposition 2 condition for an ordered template pair.
///
/// Returns `None` when either template is outside the supported class
/// (callers fall back to the general procedure).
pub(crate) fn compile(t1: &Template, t2: &Template) -> Option<CompiledCondition> {
    let f1 = flatten(t1.shape())?;
    let f2 = flatten(t2.shape())?;
    let mut clauses = Vec::with_capacity(f2.len());
    for q in &f2 {
        let on_attr: Vec<&FlatPred> = f1.iter().filter(|p| p.attr_lower == q.attr_lower).collect();
        if q.kind == FlatKind::Present {
            // ¬(a=*) forces absence; any positive predicate of F1 on the
            // attribute clashes unconditionally.
            if on_attr.is_empty() {
                return Some(CompiledCondition { clauses: Vec::new(), never: true });
            }
            continue; // Clause constant-true.
        }
        let clause: Vec<Atom> = on_attr.iter().filter_map(|p| clash_atom(p, q)).collect();
        if clause.is_empty() {
            return Some(CompiledCondition { clauses: Vec::new(), never: true });
        }
        clauses.push(clause);
    }
    Some(CompiledCondition { clauses, never: false })
}

/// Cache of compiled cross-template conditions, keyed by ordered template
/// pair — by the templates' identity, the two small integers the template
/// table gave them ([`Template::table_index`]), so a lookup hashes eight
/// bytes and copies nothing.
///
/// A template extracted after the table filled up has no identity to key
/// by: a pair with one is compiled when asked for and not kept, so a flood
/// of shapes does not grow the cache either.
///
/// ```
/// use fbdr_containment::CrossTemplateMatrix;
/// use fbdr_ldap::{Filter, Template};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (t_q, v_q) = Template::of(&Filter::parse("(serialNumber=045612)")?);
/// let (t_s, v_s) = Template::of(&Filter::parse("(serialNumber=0456*)")?);
///
/// let mut matrix = CrossTemplateMatrix::new();
/// let cond = matrix.condition(&t_q, &t_s).expect("supported templates");
/// assert!(cond.eval(&v_q, &v_s));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct CrossTemplateMatrix {
    compiled: HashMap<(u32, u32), Option<Arc<CompiledCondition>>>,
}

impl CrossTemplateMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        CrossTemplateMatrix::default()
    }

    fn key(t1: &Template, t2: &Template) -> Option<(u32, u32)> {
        Some((t1.table_index()?, t2.table_index()?))
    }

    /// The compiled condition for `t1 ⊆ t2`, compiling (and caching) it on
    /// first use. `None` means the pair is outside the compilable class.
    pub fn condition(&mut self, t1: &Template, t2: &Template) -> Option<Arc<CompiledCondition>> {
        self.lookup(t1, t2).unwrap_or_else(|| {
            let compiled = Self::compile_pair(t1, t2);
            self.insert(t1, t2, compiled.clone());
            compiled
        })
    }

    /// Looks up the cached compile result for `t1 ⊆ t2` without compiling.
    ///
    /// Outer `None` means the pair is not cached (never compiled, or one
    /// of the templates is not in the template table); `Some(None)`
    /// means it was compiled and found outside the compilable class. The
    /// condition is shared (`Arc`), so callers can evaluate it after
    /// releasing any lock guarding the matrix.
    pub fn lookup(&self, t1: &Template, t2: &Template) -> Option<Option<Arc<CompiledCondition>>> {
        self.compiled.get(&Self::key(t1, t2)?).cloned()
    }

    /// Records a compile result for `t1 ⊆ t2` (see
    /// [`CrossTemplateMatrix::compile_pair`]); a no-op for a pair with a
    /// template outside the template table. Compilation is a pure
    /// function of the templates, so concurrent duplicate inserts are
    /// benign: last writer wins with an identical value.
    pub fn insert(&mut self, t1: &Template, t2: &Template, cond: Option<Arc<CompiledCondition>>) {
        if let Some(key) = Self::key(t1, t2) {
            self.compiled.insert(key, cond);
        }
    }

    /// Compiles the Proposition 2 condition for a template pair without
    /// touching any cache — the building block for callers that keep the
    /// matrix behind a lock and want to compile outside it.
    pub fn compile_pair(t1: &Template, t2: &Template) -> Option<Arc<CompiledCondition>> {
        compile(t1, t2).map(Arc::new)
    }

    /// Number of cached template pairs.
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{filter_contained, Containment};

    fn check(q: &str, s: &str) -> Option<bool> {
        let fq = Filter::parse(q).unwrap();
        let fs = Filter::parse(s).unwrap();
        let (tq, vq) = Template::of(&fq);
        let (ts, vs) = Template::of(&fs);
        compile(&tq, &ts).map(|cond| cond.eval(&vq, &vs))
    }

    #[test]
    fn equality_vs_prefix() {
        assert_eq!(check("(serialNumber=045612)", "(serialNumber=0456*)"), Some(true));
        assert_eq!(check("(serialNumber=995612)", "(serialNumber=0456*)"), Some(false));
    }

    #[test]
    fn equality_vs_range() {
        assert_eq!(check("(age=40)", "(age>=30)"), Some(true));
        assert_eq!(check("(age=20)", "(age>=30)"), Some(false));
        assert_eq!(check("(age=20)", "(age<=30)"), Some(true));
    }

    #[test]
    fn conjunctive_cross() {
        assert_eq!(
            check(
                "(&(objectclass=inetOrgPerson)(departmentNumber=2406))",
                "(&(objectclass=inetOrgPerson)(departmentNumber=240*))"
            ),
            Some(true)
        );
        assert_eq!(
            check(
                "(&(objectclass=inetOrgPerson)(departmentNumber=2506))",
                "(&(objectclass=inetOrgPerson)(departmentNumber=240*))"
            ),
            Some(false)
        );
    }

    #[test]
    fn stored_narrower_than_query() {
        // Stored (sn=_) cannot answer (sn=_*) queries.
        assert_eq!(check("(sn=do*)", "(sn=doe)"), Some(false));
    }

    #[test]
    fn missing_attribute_compiles_to_never() {
        let fq = Filter::parse("(sn=doe)").unwrap();
        let fs = Filter::parse("(&(sn=doe)(ou=research))").unwrap();
        let (tq, _) = Template::of(&fq);
        let (ts, _) = Template::of(&fs);
        let cond = compile(&tq, &ts).unwrap();
        assert!(cond.is_never());
        assert!(!cond.eval(&[] as &[AttrValue], &[] as &[AttrValue]));
    }

    #[test]
    fn presence_in_stored_query() {
        // Stored (&(objectclass=*)(dept=_)) answers queries that constrain
        // objectclass somehow — presence clauses become constant-true.
        assert_eq!(
            check("(&(objectclass=person)(dept=2406))", "(&(objectclass=*)(dept=2406))"),
            Some(true)
        );
        assert_eq!(
            check("(&(objectclass=person)(dept=2406))", "(&(objectclass=*)(dept=9999))"),
            Some(false)
        );
        // A query not constraining objectclass at all is (formally) not
        // contained: an entry without objectclass could match it.
        assert_eq!(check("(dept=2406)", "(&(objectclass=*)(dept=2406))"), Some(false));
    }

    #[test]
    fn unsupported_templates_return_none() {
        assert_eq!(check("(|(a=1)(b=2))", "(a=1)"), None);
        assert_eq!(check("(a=1)", "(!(b=2))"), None);
        assert_eq!(check("(a=*1*)", "(a=*1*)"), None); // non-prefix substring
    }

    #[test]
    fn matrix_caches_by_pair() {
        let f1 = Filter::parse("(sn=doe)").unwrap();
        let f2 = Filter::parse("(sn=do*)").unwrap();
        let (t1, _) = Template::of(&f1);
        let (t2, _) = Template::of(&f2);
        let mut m = CrossTemplateMatrix::new();
        assert!(m.is_empty());
        assert!(m.condition(&t1, &t2).is_some());
        assert_eq!(m.len(), 1);
        assert!(m.condition(&t1, &t2).is_some());
        assert_eq!(m.len(), 1);
        assert!(m.condition(&t2, &t1).is_some());
        assert_eq!(m.len(), 2);
    }

    /// The compiled condition must agree with the general procedure
    /// wherever the general procedure is decisive.
    #[test]
    fn agrees_with_general_procedure() {
        let cases = [
            ("(a=5)", "(a>=3)"),
            ("(a=2)", "(a>=3)"),
            ("(a>=5)", "(a>=3)"),
            ("(a>=2)", "(a>=3)"),
            ("(a<=5)", "(a<=9)"),
            ("(a<=5)", "(a<=3)"),
            ("(sn=smith)", "(sn=smi*)"),
            ("(sn=smith)", "(sn=smx*)"),
            ("(sn=smit*)", "(sn=smi*)"),
            ("(sn=smi*)", "(sn=smit*)"),
            ("(&(a=1)(b=2))", "(a=1)"),
            ("(&(a=1)(b=2))", "(b=2)"),
            ("(a=1)", "(&(a=1)(b=2))"),
            ("(&(a=5)(b=xyzzy))", "(&(a>=1)(b=xyz*))"),
        ];
        for (q, s) in cases {
            let Some(fast) = check(q, s) else { continue };
            let general = filter_contained(&Filter::parse(q).unwrap(), &Filter::parse(s).unwrap());
            match general {
                Containment::Yes => assert!(fast, "compiled says no, general says yes: {q} ⊆ {s}"),
                Containment::No => assert!(!fast, "compiled says yes, general says no: {q} ⊆ {s}"),
                Containment::Unknown => {
                    assert!(!fast, "compiled must stay sound on unknowns: {q} ⊆ {s}")
                }
            }
        }
    }
}
