//! The filter-set index never loses a containing filter: whenever the
//! containment engine says `Q ⊆ S`, the query-side lookup of
//! `fbdr_resync::RoutingIndex` either names `S` a candidate or reports
//! the query unindexable (every filter is then a candidate). That is the
//! whole correctness argument for `FilterReplica` checking only the
//! candidates instead of every stored filter.

use fbdr_containment::{ContainmentEngine, PreparedQuery};
use fbdr_ldap::{Dn, Filter, Predicate, Scope, SearchRequest, SubstringPattern};
use fbdr_resync::RoutingIndex;
use proptest::prelude::*;

/// Attribute names from a small pool so filters collide often.
fn attr() -> impl Strategy<Value = String> {
    prop_oneof![Just("a".to_owned()), Just("b".to_owned()), Just("sn".to_owned())]
}

/// Small integers, integer-looking spellings, and short strings with
/// case and whitespace variation, so equalities, ranges and prefixes
/// interact and normalization matters.
fn value() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..12).prop_map(|n| n.to_string()),
        (0i64..12).prop_map(|n| format!("0{n}")),
        "[a-c]{1,3}",
        "[A-C]{1,3}",
        "[a-b]{1,2}",
        ("[a-b]", "[a-b]").prop_map(|(x, y)| format!(" {x}  {y} ")),
    ]
}

fn predicate() -> impl Strategy<Value = Predicate> {
    (attr(), value(), value(), 0u8..9).prop_map(|(a, v, w, kind)| {
        let a = a.as_str();
        match kind {
            0 | 1 => Predicate::eq(a, v),
            2 => Predicate::ge(a, v),
            3 => Predicate::le(a, v),
            4 => Predicate::present(a),
            5 => Predicate::substring(a, SubstringPattern::prefix(v)),
            6 => Predicate::substring(a, SubstringPattern::new(None, vec![v], None)),
            7 => Predicate::substring(a, SubstringPattern::new(None, vec![], Some(v))),
            _ => Predicate::substring(a, SubstringPattern::new(Some(v), vec![], Some(w))),
        }
    })
}

/// Positive conjunctive queries: one predicate, or `And`s of them.
fn conjunctive() -> impl Strategy<Value = Filter> {
    prop_oneof![
        predicate().prop_map(Filter::pred),
        prop::collection::vec(predicate().prop_map(Filter::pred), 1..4).prop_map(Filter::And),
        (predicate(), prop::collection::vec(predicate().prop_map(Filter::pred), 1..3))
            .prop_map(|(p, rest)| Filter::And(vec![Filter::pred(p), Filter::And(rest)])),
    ]
}

/// Any filter shape up to depth 2, `Or` and `Not` included.
fn any_filter() -> impl Strategy<Value = Filter> {
    predicate().prop_map(Filter::pred).prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
            inner.prop_map(Filter::not),
        ]
    })
}

/// A filter built to contain (or nearly contain) `q`: one of `q`'s
/// predicates, widened. Random pairs almost never contain each other.
fn widened(q: &Filter, pick: usize, how: u8, other: Filter) -> Filter {
    let preds = q.predicates();
    let p = preds[pick % preds.len()];
    let text = p.comparison().witness().map(|w| w.into_owned());
    let same = Filter::pred(p.clone());
    match (how % 7, text) {
        (0, _) | (_, None) => same,
        (1, Some(t)) => {
            let cut = t.chars().count() / 2;
            let head: String = t.chars().take(cut.max(1)).collect();
            Filter::pred(Predicate::substring(p.attr().clone(), SubstringPattern::prefix(head)))
        }
        (2, _) => Filter::pred(Predicate::present(p.attr().clone())),
        (3, Some(t)) => Filter::pred(Predicate::ge(p.attr().clone(), t)),
        (4, Some(t)) => Filter::pred(Predicate::le(p.attr().clone(), t)),
        (5, _) => Filter::Or(vec![other, same]),
        (_, _) => Filter::And(vec![same, Filter::pred(Predicate::present(p.attr().clone()))]),
    }
}

fn base(i: u8) -> Dn {
    ["", "o=xyz", "c=us,o=xyz", "o=abc"][i as usize % 4].parse().expect("static DN")
}

fn request(base_pick: u8, filter: Filter) -> SearchRequest {
    SearchRequest::new(base(base_pick), Scope::Subtree, filter)
}

/// Registers `stored` by position and checks the superset property for
/// `query` against every one of them. Returns how many contained it.
fn check_superset(query: &SearchRequest, stored: &[SearchRequest]) -> Result<usize, TestCaseError> {
    let engine = ContainmentEngine::new();
    let mut index = RoutingIndex::new();
    let prepared: Vec<PreparedQuery> = stored.iter().cloned().map(PreparedQuery::new).collect();
    for (pos, s) in prepared.iter().enumerate() {
        index.register_prepared(pos as u32, s.template(), s.values(), s.request().base());
    }
    index.debug_validate();
    let mut candidates = Vec::new();
    let indexed = index.candidates_for_query(query.filter(), &mut candidates);
    index.residual_for_dn(query.base(), &mut candidates);
    let q = PreparedQuery::new(query.clone());
    let mut contained = 0;
    for (pos, s) in prepared.iter().enumerate() {
        if engine.query_contained(&q, s) {
            contained += 1;
            prop_assert!(
                !indexed || candidates.contains(&(pos as u32)),
                "{} ⊆ {} (position {pos}) but the lookup returned only {candidates:?}",
                query,
                s.request(),
            );
        }
    }
    Ok(contained)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Conjunctive queries against filters widened from them plus random
    /// ones: every containing filter is a candidate.
    #[test]
    fn every_containing_filter_is_a_candidate(
        q in conjunctive(),
        q_base in 0u8..4,
        wide in prop::collection::vec((0usize..8, 0u8..7, any_filter(), 0u8..4), 1..5),
        random in prop::collection::vec((any_filter(), 0u8..4), 0..4),
    ) {
        let mut stored: Vec<SearchRequest> = wide
            .into_iter()
            .map(|(pick, how, other, b)| request(b, widened(&q, pick, how, other)))
            .collect();
        stored.extend(random.into_iter().map(|(f, b)| request(b, f)));
        check_superset(&request(q_base, q), &stored)?;
    }

    /// Arbitrary query shapes: `Or`/`Not` queries must report fallback,
    /// conjunctive ones must keep the property against arbitrary filters.
    #[test]
    fn arbitrary_shapes_fall_back_or_keep_the_property(
        q in any_filter(),
        stored in prop::collection::vec(any_filter(), 1..6),
    ) {
        let stored: Vec<SearchRequest> = stored.into_iter().map(|f| request(1, f)).collect();
        let mut out = Vec::new();
        let indexed = RoutingIndex::new().candidates_for_query(&q, &mut out);
        let conjunctive = q.for_each_conjunct(&mut |_| ());
        prop_assert_eq!(indexed, conjunctive);
        // A filter is contained in itself whatever its shape.
        let mut with_self = stored;
        with_self.push(request(1, q.clone()));
        check_superset(&request(1, q), &with_self)?;
    }
}

/// One hand-made pair per engine dispatch path, so the property above is
/// known to have been exercised on all three (the engine's own counters
/// say which path decided).
#[test]
fn all_three_dispatch_paths_are_covered() {
    let cases = [
        // (query, stored filter, deciding path, contained)
        ("(sn=smith*)", "(sn=smi*)", "same_template", true),
        ("(&(a=5)(b= X  y ))", "(&(a=5)(b=x Y))", "same_template", true),
        ("(sn=ab*cd)", "(sn=a*d)", "same_template", true),
        ("(sn=Smith)", "(sn=smi*)", "compiled", true),
        ("(&(a=07)(sn=abc))", "(&(a>=3)(sn=*))", "compiled", true),
        ("(a=5)", "(|(a=5)(a=6))", "general", true),
        ("(sn=ab*cd)", "(sn=a*)", "general", true),
        ("(&(a>=3)(a<=5))", "(!(b=1))", "general", false),
    ];
    for (q, s, path, expected) in cases {
        let engine = ContainmentEngine::new();
        let query = request(2, Filter::parse(q).expect("static filter"));
        let stored = request(1, Filter::parse(s).expect("static filter"));
        let contained = engine
            .query_contained(&PreparedQuery::new(query.clone()), &PreparedQuery::new(stored.clone()));
        let stats = engine.stats();
        let took = match (stats.same_template, stats.compiled, stats.general) {
            (1, 0, 0) => "same_template",
            (0, 1, 0) => "compiled",
            (0, 0, 1) => "general",
            other => panic!("{q} vs {s}: unexpected dispatch {other:?}"),
        };
        assert_eq!(took, path, "{q} vs {s}");
        assert_eq!(contained, expected, "{q} ⊆ {s}");
        assert_eq!(
            check_superset(&query, &[stored]).expect("superset property"),
            usize::from(contained)
        );
    }
}
