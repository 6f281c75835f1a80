//! Hostile input is refused, never a panic. Arbitrary text goes to
//! `Filter::parse` and to DN parsing. Arbitrary JSON goes to the decoders
//! of what a replica sends a master: `Cookie`, `CompositeCookie`,
//! `ReconcileRequest` and `RangeRequest`. Each decoded value then goes to
//! the master that would receive it. Every call returns `Ok` or `Err`.
//! An input that once panicked is kept below as a named case.

use fbdr_ldap::{Dn, Entry, Filter, SearchRequest};
use fbdr_resync::reconcile::{RangeRequest, ReconcileRequest};
use fbdr_resync::{CompositeCookie, Cookie, ReSyncControl, ShardCoordinator, ShardMap, SyncMaster};
use proptest::prelude::*;

/// Characters LDAP text gives meaning to, beside plain and multi-byte ones.
const CHARS: &[char] = &[
    '(', ')', '&', '|', '!', '=', '*', '~', '>', '<', ':', '\\', ',', '+', '"', ';', '#', ' ',
    '\t', '\0', 'a', 'c', 'n', 'o', 'x', '0', '1', '9', 'é', '€', '😀',
];

/// Well-formed filters and DNs to cut and splice: a hostile input is most
/// often a valid one, damaged.
const VALID: &[&str] = &[
    "(&(objectclass=person)(|(cn=ab*cd)(sn~=x))(!(mail=*)))",
    "(serialNumber>=045612)",
    "(cn=a\\2a\\29b)",
    "(cn:dn:2.4.6.8.10:=Dino)",
    "cn=John \\\"Doe\\\"+uid=7,ou=a\\,b,o=xyz",
    "c=us,o=xyz",
];

fn text() -> impl Strategy<Value = String> {
    let random = prop::collection::vec(0..CHARS.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect::<String>());
    let damaged = (0..VALID.len(), any::<usize>(), prop::collection::vec(0..CHARS.len(), 0..4))
        .prop_map(|(v, at, picks)| {
            let valid = VALID[v];
            let cut =
                valid.char_indices().map(|(i, _)| i).nth(at % valid.chars().count()).unwrap_or(0);
            let splice: String = picks.into_iter().map(|i| CHARS[i]).collect();
            format!(
                "{}{splice}{}",
                &valid[..cut],
                &valid[cut..][splice.len().min(valid.len() - cut)..]
            )
        });
    prop_oneof![random, damaged]
}

/// The field names the four decoders know, and a few they do not.
const KEYS: &[&str] = &[
    "digest",
    "summary_buckets",
    "bits",
    "m",
    "k",
    "seed",
    "items",
    "probes",
    "bucket",
    "hashes",
    "x",
];

fn json() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("null".to_owned()),
        any::<bool>().prop_map(|b| b.to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        (0u64..70).prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        Just("1e400".to_owned()),
        Just("-0.5".to_owned()),
        (0..KEYS.len()).prop_map(|k| format!("\"{}\"", KEYS[k])),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| format!("[{}]", items.join(","))),
            prop::collection::vec((0..KEYS.len(), inner), 0..5).prop_map(|fields| {
                let fields: Vec<String> =
                    fields.into_iter().map(|(k, v)| format!("\"{}\":{v}", KEYS[k])).collect();
                format!("{{{}}}", fields.join(","))
            }),
        ]
    })
}

/// A real digest request with its numbers replaced: well-formed JSON whose
/// size agrees with its bits, is zero, or is anything.
fn digest_json() -> impl Strategy<Value = String> {
    let size = prop_oneof![Just(None), Just(Some(0)), any::<u64>().prop_map(Some)];
    (prop::collection::vec(any::<u64>(), 0..3), size, 0u32..40, any::<u32>()).prop_map(
        |(bits, size, k, buckets)| {
            let m = size.unwrap_or(bits.len() as u64 * 64);
            let bits: Vec<String> = bits.iter().map(u64::to_string).collect();
            format!(
                "{{\"digest\":{{\"bits\":[{}],\"m\":{m},\"k\":{k},\"seed\":7,\"items\":3}},\"summary_buckets\":{buckets}}}",
                bits.join(",")
            )
        },
    )
}

fn master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().expect("valid dn"));
    m.dit_mut().add(Entry::new("o=xyz".parse().expect("valid dn"))).expect("suffix");
    for i in 0..5 {
        let e = Entry::new(format!("cn=p{i},o=xyz").parse().expect("valid dn"))
            .with("cn", &format!("p{i}"));
        m.dit_mut().add(e).expect("person");
    }
    m
}

fn request() -> SearchRequest {
    SearchRequest::from_root(Filter::parse("(cn=p*)").expect("valid filter"))
}

/// Parses `text` as a filter and as a DN, and decodes `json` as each wire
/// type; every decoded value is handed to the master it is meant for.
fn feed(text: &str, json: &str) {
    let _ = Filter::parse(text);
    let _ = text.parse::<Dn>();
    let mut m = master();
    if let Ok(cookie) = serde_json::from_str::<Cookie>(json) {
        let _ = m.resync(&request(), ReSyncControl::poll(Some(cookie)));
    }
    if let Ok(mut cookie) = serde_json::from_str::<CompositeCookie>(json) {
        let mut coordinator = ShardCoordinator::new(ShardMap::single());
        let _ = coordinator.sync_filter(&mut m, &request(), &mut cookie, &Vec::new);
    }
    if let Ok(req) = serde_json::from_str::<ReconcileRequest>(json) {
        let _ = m.reconcile(&request(), req);
    }
    if let Ok(req) = serde_json::from_str::<RangeRequest>(json) {
        // A range round needs a digest round in flight on the session.
        let digest = fbdr_resync::reconcile::BloomDigest::build(&[], 0.01, 1);
        let round = m.reconcile(&request(), ReconcileRequest { digest, summary_buckets: 16 });
        let cookie = round.expect("an empty digest reconciles").cookie;
        let _ = m.reconcile_ranges(cookie, &req);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_text_and_json_are_refused_not_a_panic(
        text in text(),
        json in prop_oneof![json(), digest_json()],
    ) {
        feed(&text, &json);
    }
}

/// A digest whose size is zero: every membership probe took its bit
/// modulo the size.
#[test]
fn a_digest_of_no_bits_is_refused() {
    let json = r#"{"digest":{"bits":[],"m":0,"k":1,"seed":7,"items":3},"summary_buckets":16}"#;
    feed("", json);
    assert!(serde_json::from_str::<ReconcileRequest>(json).is_err());
}

/// A digest that claims more bits than it carries: a probe indexed past
/// the list.
#[test]
fn a_digest_shorter_than_its_size_is_refused() {
    let json = r#"{"digest":{"bits":[1],"m":640,"k":3,"seed":7,"items":3},"summary_buckets":16}"#;
    feed("", json);
    assert!(serde_json::from_str::<ReconcileRequest>(json).is_err());
}

/// A summary of 2³² − 1 buckets: the master sized one before answering.
#[test]
fn a_summary_is_built_at_most_at_the_replicas_size() {
    let json =
        r#"{"digest":{"bits":[0],"m":64,"k":1,"seed":7,"items":0},"summary_buckets":4294967295}"#;
    let req: ReconcileRequest = serde_json::from_str(json).expect("a consistent digest decodes");
    let resp = master().reconcile(&request(), req).expect("reconciles");
    assert_eq!(resp.summary.len(), 4096);
}
