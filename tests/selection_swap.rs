//! Mid-trace filter swaps must never serve stale routing decisions.
//!
//! Online selection installs and evicts filters *between* queries of one
//! trace, so which stored filter answers a query ("filter f" / "none") can
//! change at any moment. The replica decides per query against the epoch
//! it reads (the decisions were once memoized, hence the test names);
//! these tests pin down that every install/evict publishes a new epoch, a
//! repeated query is decided against it, and answers stay exactly
//! master-correct across swaps.

use fbdr::prelude::*;
use fbdr::selection::generalize::ValuePrefix;

/// Two 20-entry serial regions: `0400xx` and `0500xx`.
fn master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().unwrap());
    m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
    for region in [4u32, 5] {
        for i in 0..20u32 {
            m.dit_mut()
                .add(
                    Entry::new(format!("cn=e{region}x{i},o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("0{region}00{i:02}")),
                )
                .unwrap();
        }
    }
    m
}

fn q(sn: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(&format!("(serialNumber={sn})")).unwrap())
}

fn prefix(p: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(&format!("(serialNumber={p}*)")).unwrap())
}

#[test]
fn install_invalidates_memoized_miss() {
    let mut m = master();
    let r = FilterReplica::new(0);
    r.install_filter(&mut m, prefix("0400")).unwrap();

    // A query outside the stored filter misses, and misses again.
    let probe = q("050007");
    assert!(r.try_answer(&probe).is_none());
    assert!(r.try_answer(&probe).is_none());

    // Installing a covering filter publishes a new epoch…
    let epoch = r.epoch();
    r.install_filter(&mut m, prefix("0500")).unwrap();
    assert!(r.epoch() > epoch, "install must publish a new epoch");

    // …so the earlier "answerable by nothing" decision is dead: the
    // same query now answers locally, with the right content.
    let entries = r.try_answer(&probe).expect("covered after install");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].dn().to_string(), "cn=e5x7,o=xyz");
}

#[test]
fn evict_invalidates_memoized_hit() {
    let mut m = master();
    let r = FilterReplica::new(0);
    r.install_filter(&mut m, prefix("0400")).unwrap();

    // A covered query hits, and hits again.
    let probe = q("040013");
    assert_eq!(r.try_answer(&probe).expect("covered").len(), 1);
    assert_eq!(r.try_answer(&probe).expect("covered").len(), 1);

    // Evicting the filter publishes a new epoch; the earlier "answerable
    // by filter 0" decision must not produce a wrong (empty or partial)
    // local answer — the query has to fall through to a miss.
    let epoch = r.epoch();
    assert!(r.remove_filter(&mut m, &prefix("0400")));
    assert!(r.epoch() > epoch, "evict must publish a new epoch");
    assert!(r.try_answer(&probe).is_none(), "evicted region must miss");
}

#[test]
fn online_swap_keeps_every_answer_master_correct() {
    // An online selector with decay and a budget that fits only one of
    // the two regions: the hot set flips mid-trace, forcing a live
    // evict+install swap. Every single answer — before, during and after
    // the swap — must equal what the master would return.
    let selector = FilterSelector::new(
        StepConfig {
            entry_budget: 25,
            step_every: 10,
            move_budget: 2,
            hysteresis: 0.0,
            decay: 0.5,
            upd_weight: 0.0,
            min_dwell_steps: 0,
            ..StepConfig::default()
        },
        vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
    );
    let mut r = Replicator::new(master(), 0).with_selector(selector);

    let phase_a: Vec<SearchRequest> =
        (0..30).map(|i| q(&format!("0400{:02}", i % 5))).collect();
    let phase_b: Vec<SearchRequest> =
        (0..60).map(|i| q(&format!("0500{:02}", i % 5))).collect();
    for query in phase_a.iter().chain(&phase_b) {
        let expected = r.master().search(query);
        let (got, _) = r.search(query);
        assert_eq!(got, expected, "stale answer for {query}");
    }

    // The swap actually happened: region B is resident, region A is not.
    assert_eq!(r.replica().filter_count(), 1, "budget fits one region");
    let (_, served) = r.search(&q("050003"));
    assert_eq!(served, ServedBy::Replica);
    let (_, served) = r.search(&q("040003"));
    assert_eq!(served, ServedBy::Master);
    let report = r.selector().expect("online selector attached").report();
    assert!(report.installs >= 2, "A then B installed");
    assert!(report.evictions >= 1, "A evicted on the flip");
}
