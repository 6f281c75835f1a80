//! A tour of the observability layer: one [`Obs`] handle threaded through
//! the selector, the replica, the master and the sync driver; a ring
//! buffer catching structured trace events; and the metrics registry
//! exporting counters and latency histograms for every stage of the
//! replication pipeline — containment checks, local answering, ReSync
//! exchanges (over a lossy link, so retries and redeliveries show up),
//! and a filter-selection revolution.
//!
//! Run with `cargo run --release --example observability`.

use fbdr_faults::{FaultPlan, FaultyLink, SimClock};
use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_obs::{Obs, RingBuffer};
use fbdr_replica::FilterReplica;
use fbdr_resync::{RetryConfig, ShardCoordinator, ShardedMaster, SyncDriver, SyncMaster};
use fbdr_selection::generalize::ValuePrefix;
use fbdr_selection::{FilterSelector, SelectorConfig};
use std::sync::Arc;
use std::time::Instant;

fn query(serial: &str) -> SearchRequest {
    SearchRequest::from_root(
        Filter::parse(&format!("(serialNumber={serial})")).expect("valid filter"),
    )
}

fn person(i: usize) -> Entry {
    Entry::new(format!("cn=e{i:02},o=xyz").parse().expect("valid dn"))
        .with("objectclass", "person")
        .with("serialNumber", &format!("0456{i:02}"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One deployment-wide handle: metrics always on, plus a ring-buffer
    // subscriber so every component's trace events land in one place.
    let obs = Obs::new();
    let ring = Arc::new(RingBuffer::new(512));
    obs.set_subscriber(ring.clone());

    // Master, replica and selector all record through the same handle.
    let mut master = SyncMaster::new();
    master.set_obs(obs.clone());
    master.dit_mut().add_suffix("o=xyz".parse()?);
    master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
    for i in 0..40 {
        master.dit_mut().add(person(i))?;
    }
    // Selectors act on the sharded deployment; this is its one-shard case.
    let mut master = ShardedMaster::from(master);
    let mut coordinator = ShardCoordinator::new(master.map().clone());
    let replica = FilterReplica::with_obs(8, obs.clone());
    let mut selector = FilterSelector::new(
        SelectorConfig { revolution_interval: 16, entry_budget: 100, max_candidates: 64 },
        vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
    )
    .with_obs(obs.clone());

    // A burst of queries against the 0456xx serial cluster, then a
    // revolution: the selector promotes the generalized (serialNumber=0456*)
    // filter into the replica (spanned as fbdr_selection_revolve_ns).
    for i in 0..16 {
        selector.observe(&query(&format!("0456{:02}", i % 40)));
    }
    assert!(selector.step_due(), "revolution due");
    let report = selector.step(&mut master, &mut coordinator, &replica)?;
    println!(
        "revolution: installed {:?}, evicted {:?}",
        report.installed.iter().map(|r| r.filter().to_string()).collect::<Vec<_>>(),
        report.evicted.len(),
    );

    // Faulty sync: 30% of responses are lost in flight. The driver's
    // retries and the master's replay buffer recover each one, emitting
    // driver.retry / resync.redelivery events along the way.
    let clock = SimClock::new();
    let plan = FaultPlan::builder(7).drop_response(0.30).latency_ms(1, 20).build();
    let mut link = FaultyLink::new(master, plan, clock.clone());
    let mut driver = SyncDriver::with_clock(RetryConfig::default(), clock).with_obs(obs.clone());
    for i in 40..80 {
        link.master_mut().apply(fbdr_dit::UpdateOp::Add(person(i)))?;
        replica.sync_with(&mut link, &mut driver)?;
    }

    // Local answering: every query below is inside the stored filter, so
    // the replica answers from its snapshot (timed per query).
    let mut hits = 0;
    for i in 0..80 {
        if replica.try_answer(&query(&format!("0456{i:02}"))).is_some() {
            hits += 1;
        }
    }
    println!(
        "synced 40 updates over a lossy link ({} faults injected), answered {hits}/80 locally",
        link.faults_injected(),
    );

    // What the trace caught: show the recovery and selection events.
    println!("\n--- trace highlights ({} events buffered) ---", ring.len());
    for e in ring.events() {
        if e.target == "selection" || e.name == "redelivery" || e.name == "retry" {
            println!("  {e}");
        }
    }

    // The full registry export: counters and per-stage histograms for
    // containment, replica answering, resync and selection.
    let export = obs.registry().render_prometheus();
    println!("\n--- metrics export ---\n{export}");
    for required in [
        "fbdr_containment_check_ns",
        "fbdr_replica_try_answer_ns",
        "fbdr_resync_exchange_ns",
        "fbdr_selection_revolve_ns",
    ] {
        assert!(export.contains(required), "{required} missing from export");
    }

    // How much the instrumentation costs: compare try_answer with no Obs
    // attached (the branch-cheap disabled path) against active metrics
    // with no subscriber (histograms recorded, events skipped).
    let measure = |r: &FilterReplica| {
        let q = query("045605");
        let start = Instant::now();
        for _ in 0..20_000 {
            std::hint::black_box(r.try_answer(std::hint::black_box(&q)));
        }
        start.elapsed().as_nanos() as f64 / 20_000.0
    };
    let mut m_plain = SyncMaster::new();
    m_plain.dit_mut().add_suffix("o=xyz".parse()?);
    m_plain.dit_mut().add(Entry::new("o=xyz".parse()?))?;
    for i in 0..40 {
        m_plain.dit_mut().add(person(i))?;
    }
    let filt = SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?);
    let plain = FilterReplica::new(0);
    plain.install_filter(&mut m_plain, filt.clone())?;
    let active = FilterReplica::with_obs(0, Obs::new());
    active.install_filter(&mut m_plain, filt)?;
    let (off_ns, on_ns) = (measure(&plain), measure(&active));
    println!(
        "\ntry_answer: {off_ns:.0} ns disabled vs {on_ns:.0} ns with active metrics \
         ({:+.1}% for histograms; disabled path is one branch, no clock read)",
        (on_ns - off_ns) / off_ns * 100.0,
    );
    Ok(())
}
