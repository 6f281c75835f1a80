//! One stopwatch: every timed layer closes its span once per operation of
//! its kind. A deployment sharing one `Obs` with a `RingBuffer`
//! subscriber is driven through installs, updates, sync cycles over a
//! `SyncDriver` (one of them after the master forgot every session, so
//! each filter reconciles), a batch of hits and misses and one selector
//! step; then each span's histogram count must equal the operations the
//! test made of that kind, and its closing events the histogram count.

use fbdr::prelude::*;
use fbdr::resync::{ShardCoordinator, ShardedMaster, SyncDriver};
use fbdr::selection::generalize::ValuePrefix;
use std::sync::Arc;

/// Person `i`: the first 30 carry a `0456xx` serial, the rest a
/// `1000xx` one; the department cycles through 0, 1, 2.
fn person(i: usize) -> Entry {
    let serial = if i < 30 { format!("0456{i:02}") } else { format!("1000{i:02}") };
    Entry::new(format!("cn=p{i:02},o=xyz").parse().expect("dn"))
        .with("objectclass", "person")
        .with("serialNumber", &serial)
        .with("departmentNumber", &(i % 3).to_string())
}

fn query(f: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(f).expect("filter"))
}

fn touch(master: &mut SyncMaster, i: usize, mail: &str) {
    master
        .apply(UpdateOp::Modify {
            dn: format!("cn=p{i:02},o=xyz").parse().expect("dn"),
            mods: vec![Modification::Replace("mail".into(), vec![mail.into()])],
        })
        .expect("modify");
}

#[test]
fn each_span_closes_once_per_operation_of_its_kind() {
    let obs = Obs::new();
    let ring = Arc::new(RingBuffer::new(16_384));
    obs.set_subscriber(ring.clone());

    let mut master = SyncMaster::new();
    master.set_obs(obs.clone());
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("add");
    for i in 0..60 {
        master.dit_mut().add(person(i)).expect("add");
    }
    let replica = FilterReplica::with_obs(0, obs.clone());
    let mut driver = SyncDriver::default().with_obs(obs.clone());

    // Two installs, each one exchange through the replica's one-shard
    // coordinator, which records through the replica's `Obs`, and a
    // non-empty batch: two index builds.
    replica.install_filter(&mut master, query("(serialNumber=1000*)")).expect("install");
    replica.install_filter(&mut master, query("(departmentNumber=1)")).expect("install");
    let installs = 2;
    let mut index_builds = 2;

    // p30 is in the serial filter only: a cycle of two exchanges applies
    // one batch.
    touch(&mut master, 30, "a@xyz");
    replica.sync_with(&mut master, &mut driver).expect("cycle");
    let mut exchanges = installs + 2;
    index_builds += 1;

    // p01 is in the department filter only. The master then forgets both
    // sessions, so each filter's exchange fails and it reconciles; only
    // the department filter's reconciliation brings a batch.
    touch(&mut master, 1, "b@xyz");
    assert_eq!(master.expire_idle(0), 2);
    replica.sync_with(&mut master, &mut driver).expect("cycle");
    exchanges += 2;
    let reconciles = 2;
    index_builds += 1;
    let d = driver.stats();
    assert_eq!((d.reconciliations, d.reinstalls), (reconciles, 0), "{d:?}");
    assert_eq!(d.attempts - d.retries, exchanges - installs + reconciles, "{d:?}");

    // Ten hits and five misses.
    let mut answers = 0;
    for i in 30..40 {
        assert!(replica.try_answer(&query(&format!("(serialNumber=1000{i:02})"))).is_some());
        answers += 1;
    }
    for i in 0..5 {
        assert!(replica.try_answer(&query(&format!("(serialNumber=9{i})"))).is_none());
        answers += 1;
    }

    // One selector step, promoting (serialNumber=0456*): one more
    // install, so one more exchange on the one shard and one more index
    // build.
    let mut master = ShardedMaster::from(master);
    let mut coordinator = ShardCoordinator::new(master.map().clone()).with_obs(obs.clone());
    let mut selector = FilterSelector::new(
        SelectorConfig { revolution_interval: 8, entry_budget: 100, max_candidates: 64 },
        vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
    )
    .with_obs(obs.clone());
    for i in 0..8 {
        selector.observe(&query(&format!("(serialNumber=0456{i:02})")));
    }
    let report = selector.step(&mut master, &mut coordinator, &replica).expect("step");
    assert_eq!(report.installed.len(), 1, "{report:?}");
    exchanges += 1;
    index_builds += 1;

    let reg = obs.registry();
    let checks: u64 = ["same_template", "compiled", "skipped_never", "general"]
        .iter()
        .map(|path| reg.counter(&format!("fbdr_containment_{path}_total")).get())
        .sum();
    assert!(checks > 0);
    for (target, name, operations) in [
        ("replica", "try_answer", answers),
        ("replica", "index_build", index_builds),
        ("resync", "exchange", exchanges),
        ("resync", "reconcile_exchange", reconciles),
        ("containment", "check", checks),
        ("selection", "revolve", 1),
    ] {
        let closed = reg.histogram(&format!("fbdr_{target}_{name}_ns")).count();
        assert_eq!(closed, operations, "{target}.{name}: spans against operations");
        assert_eq!(ring.count(target, name) as u64, closed, "{target}.{name}: events against spans");
        for e in ring.named(target, name) {
            assert!(e.u64_field("duration_ns").is_some(), "{e}");
        }
    }
    for e in ring.named("containment", "check") {
        assert!(e.field("contained").is_some() && e.field("path").is_some(), "{e}");
    }
    assert_eq!(ring.count("containment", "decision"), 0);
}
