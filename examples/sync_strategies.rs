//! Filter synchronization strategies side by side (§5 of the paper):
//! ReSync's per-session history against changelog-, tombstone-, retain-
//! and full-reload-based alternatives — including the naive changelog
//! consumer that fails to converge.
//!
//! Run with: `cargo run --release --example sync_strategies`

use fbdr::dit::{Modification, UpdateOp};
use fbdr::prelude::*;
use fbdr::resync::divergence;
use fbdr_bench::baseline::{
    ChangelogSync, FullReload, NaiveChangelogSync, RetainSync, Synchronizer, TombstoneSync,
};
use fbdr_bench::history::History;

fn person(cn: &str, dept: &str) -> Entry {
    Entry::new(format!("cn={cn},o=xyz").parse().expect("valid dn"))
        .with("objectclass", "person")
        .with("cn", cn)
        .with("dept", dept)
        .with("mail", &format!("{cn}@xyz.com"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Master with 200 people, half of them in the replicated department.
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse()?);
    master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
    for i in 0..200 {
        master.dit_mut().add(person(&format!("p{i:03}"), if i % 2 == 0 { "7" } else { "9" }))?;
    }
    let s = SearchRequest::new(
        "o=xyz".parse()?,
        Scope::Subtree,
        Filter::parse("(&(objectclass=person)(dept=7))")?,
    );

    // The baselines read a changelog and tombstones. The master keeps
    // neither — ReSync needs no history beyond its sessions — so this
    // driver keeps one, fed with the record of every update it applies.
    let mut history = History::new();

    // One replica per strategy, all bootstrapped identically.
    let resp = master.resync(&s, ReSyncControl::poll(None))?;
    let cookie = resp.cookie.expect("cookie");
    let mut resync_content = ReplicaContent::new();
    resync_content.apply_all(&resp.actions);
    let mut resync_traffic = SyncTraffic::default();

    let mut baselines: Vec<(Box<dyn Synchronizer>, ReplicaContent, SyncTraffic)> = vec![
        (Box::new(RetainSync::default()), ReplicaContent::new(), SyncTraffic::default()),
        (Box::new(TombstoneSync::default()), ReplicaContent::new(), SyncTraffic::default()),
        (Box::new(ChangelogSync::default()), ReplicaContent::new(), SyncTraffic::default()),
        (Box::new(FullReload), ReplicaContent::new(), SyncTraffic::default()),
    ];
    for (strategy, content, _) in &mut baselines {
        strategy.sync(master.dit(), &history, &s, content); // bootstrap, not counted
    }
    let mut naive_content = ReplicaContent::new();
    FullReload.sync(master.dit(), &history, &s, &mut naive_content);
    let mut naive = NaiveChangelogSync::starting_at(master.dit().csn());
    let mut naive_traffic = SyncTraffic::default();

    // Three update rounds, each followed by one sync cycle per strategy.
    // Round 2 contains the §5.2 counterexample: p000 is modified *out of*
    // the content (only `dept` appears in the changelog record) and then
    // deleted — the naive log reader cannot establish membership.
    for round in 0..3 {
        for i in 0..20 {
            let id = round * 20 + i;
            history.record(master.apply(UpdateOp::Modify {
                dn: format!("cn=p{id:03},o=xyz").parse()?,
                mods: vec![Modification::Replace("mail".into(), vec![format!("r{round}@x").into()])],
            })?);
        }
        if round == 1 {
            history.record(master.apply(UpdateOp::Modify {
                dn: "cn=p000,o=xyz".parse()?,
                mods: vec![Modification::Replace("dept".into(), vec!["9".into()])],
            })?);
            history.record(master.apply(UpdateOp::Delete("cn=p000,o=xyz".parse()?))?);
        }

        let resp = master.resync(&s, ReSyncControl::poll(Some(cookie)))?;
        resync_traffic.absorb(&resp.traffic());
        resync_content.apply_all(&resp.actions);
        for (strategy, content, traffic) in &mut baselines {
            traffic.absorb(&strategy.sync(master.dit(), &history, &s, content));
        }
        naive_traffic.absorb(&naive.sync(master.dit(), &history, &s, &mut naive_content));
    }

    println!("strategy                      entries   DN-only   bytes     diverged");
    println!("--------------------------------------------------------------------");
    let report = |name: &str, t: &SyncTraffic, content: &ReplicaContent| {
        let ghosts = divergence(master.dit(), &s, content);
        println!(
            "{name:<28} {:>8} {:>9} {:>7} {:>10}",
            t.full_entries,
            t.dn_only,
            t.bytes,
            if ghosts.is_empty() { "no".to_owned() } else { format!("{} DN(s)!", ghosts.len()) }
        );
    };
    report("resync (session history)", &resync_traffic, &resync_content);
    for (strategy, content, traffic) in &baselines {
        report(strategy.name(), traffic, content);
    }
    report("naive-changelog", &naive_traffic, &naive_content);

    println!(
        "\nReSync ships the fewest PDUs and still converges; the naive changelog\n\
         reader skipped the delete of an entry it could not place and kept a ghost."
    );
    Ok(())
}
