//! The rulebook's exactness property: whenever a plan says it is exact,
//! its ids are the brute-force match set — the entries `Filter::matches`
//! accepts, evaluated on every entry. Run on the master's [`Indexes`],
//! indexing the drawn entries under their positions as ids. The replica's
//! storage answers exact plans through the same [`plan`], and its oracle
//! proptest compares those answers with a scan that verifies every entry.

use super::{keys_only_in, plan, Indexes};
use fbdr_ldap::{Entry, Filter, Predicate, SubstringPattern};
use proptest::prelude::*;

/// Held values: three spellings of one integer, its neighbours, a
/// negative, non-integers that sort among them as text, text that the
/// substring patterns below half-match, and non-ASCII text.
const VALUES: &[&str] = &[
    "0500", "500", "+500", "499", "501", "-3", "5oo", "abc", "p1", "p12", "p13", "p102", "P1 2",
    "é", "éa", "語", "z語2",
];

/// Assertion values of `=`, `>=` and `<=`: every held value (integer and
/// text assertions) and a few that no entry holds.
const ASSERTIONS: &[&str] = &[
    "0500", "500", "+500", "499", "-3", "5oo", "abc", "p1", "p12", "é", "語", "5", "p", "z",
    "éb",
];

/// `initial` components, and `any`/`final` components.
const INITIALS: &[&str] = &["5", "50", "+5", "p", "p1", "a", "é", "語", "z"];
const PARTS: &[&str] = &["2", "1", "0", "a", "é", "語"];

/// Attributes a predicate names: the two the entries hold (one in another
/// case than the entries spell it) and one nobody holds.
const PREDICATE_ATTRS: &[&str] = &["n", "N", "tag", "ghost"];

fn pick(list: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..list.len()).prop_map(move |i| list[i])
}

/// Up to twelve entries, each holding zero to three values of `n` and of
/// `Tag` — an attribute is often multi-valued, and often absent.
fn entries() -> impl Strategy<Value = Vec<Entry>> {
    let values = || prop::collection::vec(pick(VALUES), 0..4);
    prop::collection::vec((values(), values()), 0..12).prop_map(|held| {
        held.iter()
            .enumerate()
            .map(|(i, (n, tag))| {
                let mut e = Entry::new(format!("uid=e{i},o=x").parse().expect("valid dn"));
                for v in n {
                    e.add("n", *v);
                }
                for v in tag {
                    e.add("Tag", *v);
                }
                e
            })
            .collect()
    })
}

/// One predicate: `=`, `>=`, `<=`, presence, and the substring shapes
/// prefix-only, `initial*final`, `initial*any*` and `*any*`.
fn leaf() -> impl Strategy<Value = Filter> {
    (pick(PREDICATE_ATTRS), 0u8..8, pick(ASSERTIONS), pick(INITIALS), pick(PARTS)).prop_map(
        |(a, kind, value, initial, part)| {
            let pattern = |initial: Option<&str>, any: Option<&str>, fin: Option<&str>| {
                let owned = |s: Option<&str>| s.map(str::to_owned);
                let any = owned(any).into_iter().collect();
                Predicate::substring(a, SubstringPattern::new(owned(initial), any, owned(fin)))
            };
            Filter::Pred(match kind {
                0 => Predicate::eq(a, value),
                1 => Predicate::ge(a, value),
                2 => Predicate::le(a, value),
                3 => Predicate::present(a),
                4 => pattern(Some(initial), None, None),
                5 => pattern(Some(initial), None, Some(part)),
                6 => pattern(Some(initial), Some(part), None),
                _ => pattern(None, Some(part), None),
            })
        },
    )
}

/// Predicates under `And`/`Or`/`Not` nested up to two deep; a connective
/// may have no children.
fn filter() -> impl Strategy<Value = Filter> {
    leaf().prop_recursive(2, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::Or),
            inner.prop_map(Filter::not),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The guard of [`Plan::exact`](super::Plan::exact): a plan holds
    /// every match, and an exact plan nothing else.
    #[test]
    fn an_exact_plan_is_the_brute_force_match_set(
        entries in entries(),
        filters in prop::collection::vec(filter(), 1..8),
    ) {
        let mut ix = Indexes::default();
        for (id, e) in (0..).zip(&entries) {
            for (a, vs) in e.attrs() {
                ix.insert(a, keys_only_in(vs, None), id);
            }
        }
        for f in &filters {
            let matching: Vec<u32> =
                (0..).zip(&entries).filter(|(_, e)| f.matches(e)).map(|(id, _)| id).collect();
            let Some(p) = plan(f, &|p| ix.lists_for_predicate(p)) else { continue };
            prop_assert!(
                matching.iter().all(|id| p.ids.binary_search(id).is_ok()),
                "the plan of {} misses a match: {:?} against {:?}",
                f,
                p.ids,
                matching
            );
            if p.exact {
                prop_assert_eq!(&p.ids[..], &matching[..], "the exact plan of {} is not its match set", f);
            }
        }
    }
}
