//! Convergence of the §5.2 baselines: after any sequence of updates and
//! a sync cycle, every convergent strategy's content equals the master's
//! current answer.

use fbdr_bench::baseline::{ChangelogSync, FullReload, RetainSync, Synchronizer, TombstoneSync};
use fbdr_bench::history::History;
use fbdr_dit::{ChangeRecord, Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_resync::{divergence, ReplicaContent, SyncMaster};
use proptest::prelude::*;

// The op generator is a copy of `fbdr-resync`'s convergence test's, which
// drives ReSync through the same streams.

/// An abstract operation against a pool of person entries.
#[derive(Debug, Clone)]
enum Op {
    Add { id: usize, dept: u8 },
    Delete { id: usize },
    SetDept { id: usize, dept: u8 },
    SetMail { id: usize, tag: u8 },
    Rename { id: usize, new_id: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..12, 0u8..4).prop_map(|(id, dept)| Op::Add { id, dept }),
        (0usize..12).prop_map(|id| Op::Delete { id }),
        (0usize..12, 0u8..4).prop_map(|(id, dept)| Op::SetDept { id, dept }),
        (0usize..12, 0u8..4).prop_map(|(id, tag)| Op::SetMail { id, tag }),
        (0usize..12, 0usize..12).prop_map(|(id, new_id)| Op::Rename { id, new_id }),
    ]
}

fn dn_of(id: usize) -> Dn {
    format!("cn=p{id},o=xyz").parse().expect("valid dn")
}

fn person(id: usize, dept: u8) -> Entry {
    Entry::new(dn_of(id))
        .with("objectclass", "person")
        .with("cn", &format!("p{id}"))
        .with("dept", &dept.to_string())
}

fn fresh_master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().expect("valid dn"));
    m.dit_mut().add(Entry::new("o=xyz".parse().expect("valid dn"))).expect("suffix add");
    m
}

/// Applies an abstract op, ignoring precondition failures (they model
/// clients racing each other); the record of an accepted one. A rename
/// changes the RDN only.
fn apply(m: &mut SyncMaster, op: &Op) -> Option<ChangeRecord> {
    let update = match op {
        Op::Add { id, dept } => UpdateOp::Add(person(*id, *dept)),
        Op::Delete { id } => UpdateOp::Delete(dn_of(*id)),
        Op::SetDept { id, dept } => UpdateOp::Modify {
            dn: dn_of(*id),
            mods: vec![Modification::Replace("dept".into(), vec![dept.to_string().into()])],
        },
        Op::SetMail { id, tag } => UpdateOp::Modify {
            dn: dn_of(*id),
            mods: vec![Modification::Replace("mail".into(), vec![format!("m{tag}@x").into()])],
        },
        Op::Rename { id, new_id } => UpdateOp::ModifyDn {
            dn: dn_of(*id),
            new_rdn: Rdn::new("cn", format!("p{new_id}")),
            new_superior: None,
        },
    };
    m.apply(update).ok()
}

fn request() -> SearchRequest {
    SearchRequest::new(
        "o=xyz".parse().expect("valid dn"),
        Scope::Subtree,
        Filter::parse("(&(objectclass=person)(dept=1))").expect("valid filter"),
    )
}

proptest! {
    /// Every convergent baseline actually converges on random streams.
    #[test]
    fn baselines_converge(ops in prop::collection::vec(op(), 1..50), cycles in 1usize..4) {
        let req = request();
        let strategies: Vec<Box<dyn Synchronizer>> = vec![
            Box::new(FullReload),
            Box::new(RetainSync::default()),
            Box::new(TombstoneSync::default()),
            Box::new(ChangelogSync::default()),
        ];
        for mut s in strategies {
            let mut m = fresh_master();
            let mut history = History::new();
            let mut replica = ReplicaContent::new();
            s.sync(m.dit(), &history, &req, &mut replica);
            let chunk = ops.len().div_ceil(cycles);
            for part in ops.chunks(chunk.max(1)) {
                for o in part {
                    if let Some(rec) = apply(&mut m, o) {
                        history.record(rec);
                    }
                }
                s.sync(m.dit(), &history, &req, &mut replica);
                prop_assert!(
                    divergence(m.dit(), &req, &replica).is_empty(),
                    "{} diverged", s.name()
                );
            }
        }
    }
}
