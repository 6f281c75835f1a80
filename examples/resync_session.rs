//! The Figure 3 ReSync session, message by message.
//!
//! A replica synchronizes the content of `S = (dept=7)` with its master:
//! an initial poll (null cookie) loads E1–E3, a later poll carries the
//! accumulated changes, and the session is finally upgraded to persist
//! mode, streaming notifications until abandoned.
//!
//! Run with: `cargo run --example resync_session`

use fbdr::dit::{Modification, UpdateOp};
use fbdr::prelude::*;

fn person(cn: &str, dept: &str) -> Entry {
    Entry::new(format!("cn={cn},o=xyz").parse().expect("valid dn"))
        .with("objectclass", "person")
        .with("cn", cn)
        .with("dept", dept)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse()?);
    master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
    for cn in ["E1", "E2", "E3"] {
        master.dit_mut().add(person(cn, "7"))?;
    }

    let s = SearchRequest::new("o=xyz".parse()?, Scope::Subtree, Filter::parse("(dept=7)")?);
    let mut replica = ReplicaContent::new();

    // --- S, (poll, null): the whole content, then a cookie ---
    println!("client -> master: S, (poll, null)");
    let resp = master.resync(&s, ReSyncControl::poll(None))?;
    for a in &resp.actions {
        println!("master -> client: {a}");
    }
    let cookie = resp.cookie.expect("poll responses carry a cookie");
    println!("master -> client: {cookie}\n");
    replica.apply_all(&resp.actions);

    // --- Updates at the master while the replica is offline ---
    println!("(master: add E4; delete E1; E2 moves out of content; E3 modified in place)\n");
    master.apply(UpdateOp::Add(person("E4", "7")))?;
    master.apply(UpdateOp::Delete("cn=E1,o=xyz".parse()?))?;
    master.apply(UpdateOp::Modify {
        dn: "cn=E2,o=xyz".parse()?,
        mods: vec![Modification::Replace("dept".into(), vec!["9".into()])],
    })?;
    master.apply(UpdateOp::Modify {
        dn: "cn=E3,o=xyz".parse()?,
        mods: vec![Modification::Replace("mail".into(), vec!["e3@xyz.com".into()])],
    })?;

    // --- S, (poll, cookie): exactly the session's pending changes ---
    println!("client -> master: S, (poll, {cookie})");
    let resp = master.resync(&s, ReSyncControl::poll(Some(cookie)))?;
    for a in &resp.actions {
        println!("master -> client: {a}");
    }
    let cookie1 = resp.cookie.expect("poll responses carry a cookie");
    println!("master -> client: {cookie1} (as cookie1)\n");
    replica.apply_all(&resp.actions);

    // --- S, (persist, cookie1): live notifications ---
    println!("client -> master: S, (persist, cookie1)");
    let (resp, notifications) = master.resync_persist(&s, Some(cookie1))?;
    assert!(resp.actions.is_empty(), "nothing changed since the poll");
    println!("(master: rename E3 -> E5 — a delete for the old DN, an add for the new)");
    master.apply(UpdateOp::ModifyDn {
        dn: "cn=E3,o=xyz".parse()?,
        new_rdn: Rdn::new("cn", "E5"),
        new_superior: None,
    })?;
    for batch in notifications.try_iter() {
        for a in &batch.actions {
            println!("master -> client: {a}");
            replica.apply(a);
        }
    }

    println!("client -> master: abandon\n");
    master.abandon(cookie1);

    println!("replica content at the end of the session:");
    for dn in replica.sorted_dns() {
        println!("  {dn}");
    }
    // The replica converged to the master's current answer for S.
    let mut master_dns: Vec<String> =
        master.dit().search_dns(&s).iter().map(|d| d.to_string().to_lowercase()).collect();
    master_dns.sort();
    assert_eq!(replica.sorted_dns(), master_dns);
    println!("(matches the master's current content for S — converged)");
    Ok(())
}
