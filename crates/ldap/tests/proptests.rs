//! Property tests for the LDAP data model: parser round trips and
//! matching-semantics invariants.

use fbdr_ldap::{
    AttrName, AttrValue, Comparison, Dn, Entry, Filter, Predicate, Scope, SubstringPattern, Template,
    ValueSet,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

fn attr() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9-]{0,8}"
}

/// Values including whitespace, unicode-ish text, numbers and characters
/// that need escaping in filters.
fn value() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ -~]{1,12}",
        "-?[0-9]{1,9}",
        Just("a*b(c)d\\e".to_owned()),
        "[α-ω]{1,4}",
    ]
}

fn filter_str() -> impl Strategy<Value = String> {
    let leaf = (attr(), value(), 0u8..4).prop_map(|(a, v, k)| {
        let esc: String = v
            .chars()
            .map(|c| match c {
                '(' => "\\28".to_owned(),
                ')' => "\\29".to_owned(),
                '*' => "\\2a".to_owned(),
                '\\' => "\\5c".to_owned(),
                other => other.to_string(),
            })
            .collect();
        // Avoid values that normalize to empty (whitespace-only).
        let esc = if esc.trim().is_empty() { "x".to_owned() } else { esc };
        match k {
            0 => format!("({a}={esc})"),
            1 => format!("({a}>={esc})"),
            2 => format!("({a}<={esc})"),
            _ => format!("({a}={esc}*)"),
        }
    });
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4)
                .prop_map(|fs| format!("(&{})", fs.join(""))),
            prop::collection::vec(inner.clone(), 1..4)
                .prop_map(|fs| format!("(|{})", fs.join(""))),
            inner.prop_map(|f| format!("(!{f})")),
        ]
    })
}

/// A predicate of any kind, every substring star shape included.
fn any_predicate() -> impl Strategy<Value = Filter> {
    ("[a-c]", value(), value(), 0u8..8).prop_map(|(a, v, w, kind)| {
        let a = a.as_str();
        Filter::pred(match kind {
            0 => Predicate::eq(a, v),
            1 => Predicate::ge(a, v),
            2 => Predicate::le(a, v),
            3 => Predicate::present(a),
            4 => Predicate::substring(a, SubstringPattern::prefix(v)),
            5 => Predicate::substring(a, SubstringPattern::new(None, vec![v], None)),
            6 => Predicate::substring(a, SubstringPattern::new(None, vec![], Some(v))),
            _ => Predicate::substring(a, SubstringPattern::new(Some(v), vec![w.clone()], Some(w))),
        })
    })
}

/// Positive conjunctive filters — a predicate of any kind or nested
/// `And`s of them.
fn conjunctive_filter() -> impl Strategy<Value = Filter> {
    any_predicate().prop_recursive(2, 8, 3, |inner| {
        prop::collection::vec(inner, 1..4).prop_map(Filter::And)
    })
}

/// Filters of any structure over predicates of any kind.
fn any_filter() -> impl Strategy<Value = Filter> {
    any_predicate().prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::Or),
            inner.prop_map(Filter::not),
        ]
    })
}

/// `f` rebuilt predicate by predicate: attribute names through `attr`,
/// every value and substring component through `text`.
fn rebuilt(f: &Filter, attr: &impl Fn(&str) -> String, text: &impl Fn(&str) -> String) -> Filter {
    let all = |fs: &[Filter]| fs.iter().map(|sub| rebuilt(sub, attr, text)).collect();
    match f {
        Filter::And(fs) => Filter::And(all(fs)),
        Filter::Or(fs) => Filter::Or(all(fs)),
        Filter::Not(sub) => Filter::not(rebuilt(sub, attr, text)),
        Filter::Pred(p) => {
            let a = attr(p.attr().as_str());
            Filter::pred(match p.comparison() {
                Comparison::Eq(v) => Predicate::eq(a, text(v.raw())),
                Comparison::Ge(v) => Predicate::ge(a, text(v.raw())),
                Comparison::Le(v) => Predicate::le(a, text(v.raw())),
                Comparison::Present => Predicate::present(a),
                Comparison::Substring(pat) => Predicate::substring(
                    a,
                    SubstringPattern::new(
                        pat.initial().map(text),
                        pat.any().iter().map(|c| text(c)).collect(),
                        pat.final_part().map(text),
                    ),
                ),
            })
        }
    }
}

/// A template extracted from scratch, the long way: the id printed off
/// the filter with its names lowercased and its values blanked, one
/// `(attribute, kind)` slot and one value per assertion value.
fn extracted(f: &Filter) -> (String, Vec<(String, String)>, Vec<AttrValue>) {
    let id = rebuilt(f, &str::to_lowercase, &|_| "_".to_owned()).to_string();
    let (mut slots, mut values) = (Vec::new(), Vec::new());
    for p in f.predicates() {
        let held: Vec<AttrValue> = match p.comparison() {
            Comparison::Substring(pat) => pat.components().map(AttrValue::new).collect(),
            other => other.assertion().cloned().into_iter().collect(),
        };
        for v in held {
            slots.push((p.attr().lower().to_owned(), p.comparison().kind().into_owned()));
            values.push(v);
        }
    }
    (id, slots, values)
}

/// What a handle must read as, kept deep and apart from every other
/// handle's: the DN and, per lowercased attribute, its values' spellings.
type Model = (String, BTreeMap<String, BTreeSet<String>>);

/// Names and values with a second spelling of one of them: the entry
/// compares both case-insensitively and keeps the spelling it met first.
const ATTRS: [&str; 4] = ["a", "A", "b", "mail"];
const VALUES: [&str; 5] = ["v0", "V0", "v1", "7", "x y"];

fn read(e: &Entry) -> Model {
    let values = |vs: &ValueSet| vs.iter().map(|v| v.raw().to_owned()).collect();
    (e.dn().to_string(), e.attrs().map(|(a, vs)| (a.lower().to_owned(), values(vs))).collect())
}

/// What `e` says, built again from nothing, text by text: an entry that
/// shares no name's, value's or set's memory with any handle.
fn deep_copy(e: &Entry) -> Entry {
    let mut deep = Entry::new(e.dn().to_string().parse().expect("printed dn"));
    for (a, vs) in e.attrs() {
        for v in vs {
            deep.add(a.as_str().to_owned(), v.raw().to_owned());
        }
    }
    deep
}

/// A value as the parent commit held it — the normalized form always
/// stored beside the spelling, this function its definition, character by
/// character — and the integer view parsed off it.
fn reference(raw: &str) -> (String, Option<i64>) {
    let mut norm = String::new();
    let mut last_space = true;
    for c in raw.chars() {
        if !c.is_whitespace() {
            norm.extend(c.to_lowercase());
        } else if !last_space {
            norm.push(' ');
        }
        last_space = c.is_whitespace();
    }
    let norm = norm.trim_end_matches(' ').to_owned();
    let int = norm.parse().ok();
    (norm, int)
}

/// The parent's `Ord`: integers first, by number and then by text.
fn reference_cmp(a: &(String, Option<i64>), b: &(String, Option<i64>)) -> Ordering {
    match (a.1, b.1) {
        (Some(x), Some(y)) => x.cmp(&y).then_with(|| a.0.cmp(&b.0)),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => a.0.cmp(&b.0),
    }
}

/// Letters whose lowercase is longer (`İ`), another letter of the same
/// case (`ǅ`) or sensitive to context in a string but not here (`Σ`);
/// every kind of whitespace, and a zero-width space that is none; signs
/// and digits.
const PIECES: [&str; 23] = [
    "İ", "ı", "ẞ", "ß", "Σ", "ς", "Ǆ", "ǅ", "É", "é", "文", " ", "  ", "\t", "\n", "\u{a0}", "\u{2003}",
    "\u{3000}", "\u{85}", "\u{200b}", "+", "-", "0",
];

/// One integer spelt several ways, and the edges of `i64`.
const NUMBERS: [&str; 8] =
    ["0456", "456", "+456", " 456 ", "-0", "9223372036854775807", "9223372036854775808", "-9223372036854775808"];

/// Text that exercises normalization.
fn unicode_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[a-zA-Z]{1,3}",
        "[0-9]{1,4}",
        (0..PIECES.len()).prop_map(|i| PIECES[i].to_owned()),
    ];
    prop_oneof![
        prop::collection::vec(piece, 0..6).prop_map(|ps| ps.concat()),
        (0..NUMBERS.len()).prop_map(|i| NUMBERS[i].to_owned()),
    ]
}

/// [`unicode_text`], and text of up to 64 bytes, so that lengths cross
/// both of a value's inline limits (21 bytes of text beside an integer,
/// 29 without): words, multi-byte letters and whitespace runs; or an
/// integer spelt with a sign, leading zeros and outer spaces, up to the
/// `i64` bounds and past them.
fn text_across_the_inline_limits() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[a-zA-Z0-9@.-]{1,8}",
        "[ \t]{1,4}",
        (0..PIECES.len()).prop_map(|i| PIECES[i].to_owned()),
    ];
    let text = prop::collection::vec(piece, 0..24).prop_map(|pieces| {
        let mut text = String::new();
        for c in pieces.concat().chars() {
            if text.len() + c.len_utf8() > 64 {
                break;
            }
            text.push(c);
        }
        text
    });
    let number = prop_oneof![
        any::<i64>().prop_map(|n| n.unsigned_abs().to_string()),
        (0..NUMBERS.len()).prop_map(|i| NUMBERS[i].trim().trim_start_matches(['+', '-']).to_owned()),
        "[0-9]{1,3}",
    ];
    let integer = (0..3usize, 0..26usize, number, 0..3usize).prop_map(|(sign, zeros, digits, pad)| {
        let pad = " ".repeat(pad);
        format!("{pad}{}{}{digits}{pad}", ["", "+", "-"][sign], "0".repeat(zeros))
    });
    prop_oneof![unicode_text(), text, integer]
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The spelling of `value` the model's attribute holds, if any.
fn held(model: &Model, attr: &str, value: &str) -> Option<String> {
    let set = model.1.get(&attr.to_lowercase())?;
    set.iter().find(|held| held.to_lowercase() == value.to_lowercase()).cloned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A clone is a value. A family of handles cloned and projected from
    /// one another, written through one at a time: after every step each
    /// handle still reads as its own model — a write never shows through
    /// a sibling, whether it changes something or nothing, and whether
    /// the body it lands on is shared or (the last sibling dropped) not.
    #[test]
    fn a_write_through_one_handle_never_shows_through_another(
        steps in prop::collection::vec((0u8..11, any::<u8>(), 0usize..4, 0usize..5, 0usize..5), 1..60),
    ) {
        let first = Entry::new("cn=n0,o=x".parse().expect("dn"));
        let mut family: Vec<(Entry, Model)> = vec![(first.clone(), read(&first))];
        for (kind, pick, a, v, w) in steps {
            let i = pick as usize % family.len();
            let (attr, value) = (ATTRS[a], VALUES[v]);
            let (name, key) = (AttrName::new(attr), attr.to_lowercase());
            let room = family.len() < 8;
            match kind {
                0 if room => {
                    let twin = family[i].clone();
                    family.push(twin);
                }
                1 if family.len() > 1 => {
                    family.swap_remove(i);
                }
                8 if room => {
                    let (entry, model) = &family[i];
                    let keep = [name, AttrName::new(ATTRS[w % 4])];
                    let kept = |k: &String| keep.iter().any(|a| a.lower() == k);
                    let attrs = model.1.iter().filter(|(k, _)| kept(k)).map(|(k, vs)| (k.clone(), vs.clone()));
                    let projection = (entry.project(&keep), (model.0.clone(), attrs.collect()));
                    family.push(projection);
                }
                _ => {
                    let (entry, model) = &mut family[i];
                    match kind {
                        2 => {
                            let fresh = held(model, attr, value).is_none();
                            prop_assert_eq!(entry.add(attr, value), fresh);
                            if fresh {
                                model.1.entry(key).or_default().insert(value.to_owned());
                            }
                        }
                        3 => {
                            let spelling = held(model, attr, value);
                            prop_assert_eq!(entry.remove_value(&name, &value.into()), spelling.is_some());
                            if let Some(spelling) = spelling {
                                let set = model.1.get_mut(&key).expect("holds the value");
                                set.remove(&spelling);
                                if set.is_empty() {
                                    model.1.remove(&key);
                                }
                            }
                        }
                        4 => prop_assert_eq!(entry.remove_attr(&name), model.1.remove(&key).is_some()),
                        5 | 6 => {
                            // One value, two, or none; never two
                            // spellings of one.
                            let values = match (kind, VALUES[w]) {
                                (5, _) => vec![value],
                                (_, other) if other.to_lowercase() == value.to_lowercase() => vec![],
                                (_, other) => vec![value, other],
                            };
                            entry.replace(attr, values.iter().copied());
                            model.1.remove(&key);
                            if !values.is_empty() {
                                model.1.insert(key, values.iter().map(|v| (*v).to_owned()).collect());
                            }
                        }
                        7 => {
                            model.0 = format!("cn=n{v},o=x");
                            entry.set_dn(model.0.parse().expect("dn"));
                        }
                        9 => {
                            // Many at once: `value` and every other
                            // value there is, one spelling of each.
                            let others = VALUES.iter().filter(|o| o.to_lowercase() != value.to_lowercase());
                            let values: BTreeSet<&str> = others.filter(|o| **o != "V0").copied().chain([value]).collect();
                            entry.replace(attr, values.iter().copied());
                            prop_assert_eq!(entry.value_set(&name).map(ValueSet::len), Some(values.len()));
                            model.1.insert(key, values.iter().map(|v| (*v).to_owned()).collect());
                        }
                        10 => {
                            // Over the boundary and back: a lone value
                            // gains a second, then loses the first.
                            let second = VALUES[(v + 2) % 5];
                            entry.replace(attr, [value]);
                            prop_assert!(entry.add(attr, second));
                            prop_assert_eq!(entry.value_set(&name).map(ValueSet::len), Some(2));
                            prop_assert!(entry.remove_value(&name, &value.into()));
                            prop_assert_eq!(entry.value_set(&name).map(ValueSet::len), Some(1));
                            model.1.insert(key, BTreeSet::from([second.to_owned()]));
                        }
                        _ => {}
                    }
                }
            }
            for (n, (entry, model)) in family.iter().enumerate() {
                prop_assert_eq!(&read(entry), model, "handle {} after step kind {}", n, kind);
                // However its sets came to be one value or many, shared
                // or not, a handle serializes as a deep copy of it does.
                let json = serde_json::to_string(entry).expect("entry serializes");
                prop_assert_eq!(&json, &serde_json::to_string(&deep_copy(entry)).expect("entry serializes"));
                prop_assert_eq!(&serde_json::from_str::<Entry>(&json).expect("entry deserializes"), entry);
            }
        }
    }

    /// `Dn::display_len` is the printed length, escapes and multi-byte
    /// characters included.
    #[test]
    fn dn_display_len_is_the_printed_length(
        parts in prop::collection::vec(("[a-zA-Z]{1,5}[,=\\\\]?", prop_oneof!["[ -~]{1,10}", "[α-ω,=\\\\]{1,6}"]), 0..5)
    ) {
        let dn = Dn::from_rdns(
            parts.iter().map(|(a, v)| fbdr_ldap::Rdn::new(a.as_str(), v.as_str())).collect(),
        );
        prop_assert_eq!(dn.display_len(), dn.to_string().len(), "{}", dn);
    }

    /// The witness of a positive conjunctive filter — per predicate, the
    /// value `Comparison::witness` names (any value for presence) under
    /// the predicate's attribute — matches the filter.
    #[test]
    fn witness_matches_its_conjunction(q in conjunctive_filter()) {
        let mut witness = Entry::new("cn=w,o=y".parse().expect("dn"));
        let conjunctive = q.for_each_conjunct(&mut |p| {
            let value = p.comparison().witness().map_or("any".to_owned(), |v| v.into_owned());
            witness.add(p.attr().clone(), value);
        });
        prop_assert!(conjunctive);
        prop_assert!(q.matches(&witness), "{} does not match its witness {:?}", q, witness);
        prop_assert!(!Filter::not(q.clone()).for_each_conjunct(&mut |_| ()));
        prop_assert!(!Filter::Or(vec![q]).for_each_conjunct(&mut |_| ()));
    }

    /// The template the table hands out is the template extracted from
    /// scratch — id, slots, values, and a filter back from `instantiate`
    /// — whether the table had the shape, took it or was full; templates
    /// are equal exactly when their ids are, handles of the table exactly
    /// when they are the same entry of it; and neither the spelling of an
    /// attribute name nor a value makes a different template.
    #[test]
    fn the_interned_template_is_the_extracted_one(f in any_filter(), other in any_filter()) {
        let (t, values) = Template::of(&f);
        let (id, slots, expected_values) = extracted(&f);
        prop_assert_eq!(t.id().as_str(), id.as_str());
        let got: Vec<(String, String)> =
            t.slots().iter().map(|s| (s.attr().as_str().to_owned(), s.kind().to_owned())).collect();
        prop_assert_eq!(got, slots);
        prop_assert_eq!(&values, &expected_values);
        let raw = |vs: &[AttrValue]| vs.iter().map(|v| v.raw().to_owned()).collect::<Vec<_>>();
        prop_assert_eq!(raw(&values), raw(&expected_values));
        prop_assert_eq!(t.instantiate(&values), Some(f.clone()));
        prop_assert_eq!(t.instantiate(&values[..values.len().saturating_sub(1)]).is_some(), values.is_empty());
        let (borrowing, borrowed) = Template::of_borrowed(&f);
        prop_assert_eq!(&borrowing, &t);
        prop_assert!(borrowed.iter().map(|v| &**v).eq(values.iter()));

        let respelt = rebuilt(&f, &str::to_uppercase, &|v| format!("{v}x"));
        for g in [&respelt, &other] {
            let (u, _) = Template::of(g);
            let same_id = u.id() == t.id();
            prop_assert_eq!(u == t, same_id, "{} and {}", f, g);
            if let (Some(i), Some(j)) = (t.table_index(), u.table_index()) {
                prop_assert_eq!(i == j, same_id, "{} and {}", f, g);
            }
        }
        prop_assert_eq!(Template::of(&respelt).0, t);
    }

    /// Filter print → parse is the identity.
    #[test]
    fn filter_print_parse_round_trip(s in filter_str()) {
        let f = Filter::parse(&s).expect("generated filter parses");
        let printed = f.to_string();
        let reparsed = Filter::parse(&printed)
            .unwrap_or_else(|e| panic!("printed form {printed:?} fails to parse: {e}"));
        prop_assert_eq!(f, reparsed);
    }

    /// DN display → parse is the identity (values may contain commas,
    /// equals signs and backslashes; types may end in a backslash).
    #[test]
    fn dn_display_parse_round_trip(
        parts in prop::collection::vec(("[a-z]{1,5}\\\\?", "[ -~&&[^\\\\]]{1,10}"), 1..5)
    ) {
        let dn = Dn::from_rdns(
            parts
                .iter()
                .filter(|(_, v)| !v.trim().is_empty())
                .map(|(a, v)| fbdr_ldap::Rdn::new(a.as_str(), v.as_str()))
                .collect(),
        );
        let printed = dn.to_string();
        let reparsed: Dn = printed.parse()
            .unwrap_or_else(|e| panic!("printed DN {printed:?} fails to parse: {e}"));
        prop_assert_eq!(dn, reparsed);
    }

    /// Ancestor/parent relations are consistent.
    #[test]
    fn dn_relations_consistent(
        parts in prop::collection::vec("[a-z]{1,4}", 1..6)
    ) {
        let mut dn = Dn::root();
        for (i, p) in parts.iter().enumerate() {
            let child = dn.child(fbdr_ldap::Rdn::new("cn", format!("{p}{i}")));
            prop_assert!(dn.is_parent_of(&child));
            prop_assert!(dn.is_ancestor_or_self_of(&child));
            prop_assert!(!child.is_ancestor_or_self_of(&dn) || child == dn);
            prop_assert_eq!(child.parent().expect("child has parent"), dn);
            dn = child;
        }
        prop_assert!(Dn::root().is_ancestor_or_self_of(&dn));
    }

    /// A value means what it did when it stored its normalized form
    /// beside every spelling, whether its text sits in the value or is
    /// shared: the same text to match by, the same equality, order, hash,
    /// integer view, range and prefix answers, and the same serialized
    /// form. Two values the same in memory are equal.
    #[test]
    fn a_value_means_what_its_always_stored_normal_form_did(
        a in text_across_the_inline_limits(),
        b in text_across_the_inline_limits(),
    ) {
        let (x, y) = (AttrValue::new(a.as_str()), AttrValue::from(b.clone()));
        let (p, q) = (reference(&a), reference(&b));
        prop_assert_eq!((x.raw(), x.normalized(), x.as_int()), (a.as_str(), p.0.as_str(), p.1));
        prop_assert_eq!((y.raw(), y.normalized(), y.as_int()), (b.as_str(), q.0.as_str(), q.1));
        prop_assert_eq!(x == y, p.0 == q.0);
        prop_assert_eq!(x.cmp(&y), reference_cmp(&p, &q));
        prop_assert_eq!(hash_of(&x), hash_of(&p.0));
        let range = match q.1 {
            Some(bound) => p.1.map(|n| n.cmp(&bound)),
            None => Some(p.0.cmp(&q.0)),
        };
        prop_assert_eq!(x.range_cmp(&y), range);
        prop_assert_eq!(x.starts_with(&y), p.0.starts_with(&q.0));
        // A clone, and the spelling read back, are the same value.
        let (twin, respelt) = (x.clone(), AttrValue::new(x.raw()));
        prop_assert_eq!((twin.raw(), twin.normalized(), twin.as_int()), (x.raw(), x.normalized(), x.as_int()));
        prop_assert_eq!((respelt.raw(), respelt.normalized()), (x.raw(), x.normalized()));
        prop_assert_eq!(x.to_string(), a.as_str());
        prop_assert_eq!(hash_of(&y), hash_of(&q.0));
        prop_assert_eq!(y.starts_with(&x), q.0.starts_with(&p.0));
        let json = serde_json::to_string(&x).expect("a value serializes");
        prop_assert_eq!(&json, &serde_json::to_string(&a).expect("a string serializes"));
        let read: AttrValue = serde_json::from_str(&json).expect("a value deserializes");
        prop_assert_eq!((read.raw(), read.normalized(), read.as_int()), (x.raw(), x.normalized(), x.as_int()));
        let one = |v: &AttrValue| ValueSet::from(v.clone());
        prop_assert!(one(&x).ptr_eq(&one(&twin)));
        for v in [&y, &respelt, &read] {
            if one(&x).ptr_eq(&one(v)) {
                prop_assert_eq!((x.raw(), x.normalized()), (v.raw(), v.normalized()));
            }
        }
    }

    /// AttrValue ordering is a lawful total order consistent with Eq.
    #[test]
    fn attr_value_order_lawful(a in value(), b in value(), c in value()) {
        let (x, y, z) = (AttrValue::new(a), AttrValue::new(b), AttrValue::new(c));
        // Antisymmetry / consistency with Eq.
        if x == y {
            prop_assert_eq!(x.cmp(&y), std::cmp::Ordering::Equal);
        }
        if x.cmp(&y) == std::cmp::Ordering::Equal {
            prop_assert_eq!(&x, &y);
        }
        // Transitivity.
        if x <= y && y <= z {
            prop_assert!(x <= z);
        }
    }

    /// Scope region membership matches its definition.
    #[test]
    fn scope_membership(depth_base in 0usize..3, extra in 0usize..3) {
        let mut base = Dn::root();
        for i in 0..depth_base {
            base = base.child(fbdr_ldap::Rdn::new("ou", format!("b{i}")));
        }
        let mut dn = base.clone();
        for i in 0..extra {
            dn = dn.child(fbdr_ldap::Rdn::new("cn", format!("c{i}")));
        }
        prop_assert_eq!(Scope::Base.contains(&base, &dn), extra == 0);
        prop_assert_eq!(Scope::OneLevel.contains(&base, &dn), extra == 1);
        prop_assert!(Scope::Subtree.contains(&base, &dn));
    }

    /// Simplification never changes what a filter matches.
    #[test]
    fn simplify_preserves_semantics(
        fs in filter_str(),
        attrs in prop::collection::vec(("[a-c]", "[0-9a-c]{1,3}"), 0..6),
    ) {
        let f = Filter::parse(&fs).expect("generated filter parses");
        let simp = f.simplify();
        let mut e = Entry::new("cn=x,o=y".parse().expect("dn"));
        for (a, v) in &attrs {
            e.add(a.as_str(), v.as_str());
        }
        prop_assert_eq!(f.matches(&e), simp.matches(&e), "simplify changed semantics of {}", fs);
        // And it is idempotent.
        prop_assert_eq!(simp.simplify(), simp);
    }

    /// The filter parser never panics and errors carry sane positions. The
    /// three parsers' alphabets add two-, three- and four-byte characters
    /// and a combining mark (U+0301) to ASCII, so a byte offset can land
    /// inside a character (PR 15's `SubstringPattern` panic was one).
    #[test]
    fn parser_total_on_arbitrary_input(s in "[\\x00-\\x7féß中😀\u{301}]{0,40}") {
        match Filter::parse(&s) {
            Ok(f) => {
                // Whatever parsed must round-trip.
                let printed = f.to_string();
                prop_assert_eq!(Filter::parse(&printed).expect("printed form parses"), f);
            }
            Err(e) => prop_assert!(e.position() <= s.len()),
        }
    }

    /// The DN parser never panics on arbitrary input.
    #[test]
    fn dn_parser_total_on_arbitrary_input(s in "[\\x00-\\x7féß中😀\u{301}]{0,40}") {
        let _ = s.parse::<Dn>();
    }

    /// LDIF parsing never panics on arbitrary input.
    #[test]
    fn ldif_parser_total_on_arbitrary_input(s in "[\\x00-\\x7féß中😀\u{301}]{0,120}") {
        let _ = fbdr_ldap::ldif::parse_ldif(&s);
    }

    /// An entry matches `(a=v)` for every value it holds (normalized).
    #[test]
    fn equality_matches_own_values(vals in prop::collection::vec(value(), 1..4)) {
        let mut e = Entry::new("cn=x,o=y".parse().expect("dn"));
        for v in &vals {
            if !AttrValue::new(v.as_str()).normalized().is_empty() {
                e.add("a", v.as_str());
            }
        }
        for v in e.values(&"a".into()).cloned().collect::<Vec<_>>() {
            let p = fbdr_ldap::Predicate::eq("a", v);
            prop_assert!(p.matches(&e));
        }
    }
}
