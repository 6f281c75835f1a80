//! Syncing across a lossy link: the README fault-injection example.
//!
//! A `FaultyLink` drops 30% of the master's responses in flight — the
//! master's state still advances, so a fire-and-forget client would lose
//! those batches forever. The retrying `SyncDriver` plus the master's
//! answer to a retried cookie recover every one of them, and the whole run is
//! deterministic: same seed, same faults, same recovery.
//!
//! Run with `cargo run --release --example fault_injection`.

use fbdr_faults::{FaultPlan, FaultyLink, SimClock};
use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_replica::FilterReplica;
use fbdr_resync::{RetryConfig, SyncDriver, SyncMaster};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse()?);
    master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
    master.dit_mut().add(
        Entry::new("cn=a,o=xyz".parse()?)
            .with("objectclass", "person")
            .with("serialNumber", "045612"),
    )?;
    let replica = FilterReplica::new(0);
    replica.install_filter(
        &mut master,
        SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?),
    )?;

    // 30% of responses are lost in flight; the master still advances,
    // so a naive client would silently lose those batches forever.
    let clock = SimClock::new();
    let plan = FaultPlan::builder(7).drop_response(0.30).latency_ms(1, 20).build();
    let mut link = FaultyLink::new(master, plan, clock.clone());
    let mut driver = SyncDriver::with_clock(RetryConfig::default(), clock);

    for i in 0..50 {
        link.master_mut().apply(fbdr_dit::UpdateOp::Add(
            Entry::new(format!("cn=e{i},o=xyz").parse()?)
                .with("objectclass", "person")
                .with("serialNumber", &format!("0456{i:02}")),
        ))?;
        // Retries + cookie replay recover every lost response: the master
        // sends what the lost one named again, at its live state.
        replica.sync_with(&mut link, &mut driver)?;
    }
    let stats = driver.stats();
    println!(
        "faults={} retries={} recovered={} redelivered={}",
        link.faults_injected(),
        stats.retries,
        stats.recovered,
        link.master().redeliveries(),
    );
    assert_eq!(replica.entry_count(), 51); // converged despite the loss
    Ok(())
}
