//! Hold counts equal the references: after every step of a seeded stream
//! of updates, polls, flushes, session ends and reloads, each live
//! [`DnTable`](fbdr_resync::DnTable) slot's count is the number of sessions
//! whose `sent ∪ current` holds it, no live slot has count 0 and every
//! ledger id resolves.
//!
//! The oracle is a mark-sweep over every session's ledgers: it recounts
//! the references on its own, so it shares no code with the counts it
//! checks.

use crossbeam::channel::Receiver;
use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_resync::{Cookie, NotifyBatch, NotifyPolicy, ReSyncControl, SyncMaster};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    Add {
        id: usize,
        dept: u8,
    },
    Delete {
        id: usize,
    },
    SetDept {
        id: usize,
        dept: u8,
    },
    Rename {
        id: usize,
        new_id: usize,
    },
    /// Polls a session; `dup` sends the same cookie twice.
    Poll {
        s: usize,
        dup: bool,
    },
    /// Forces every coalesced persist queue out.
    Flush,
    Policy {
        coalesce: bool,
    },
    SyncEnd {
        s: usize,
    },
    Abandon {
        s: usize,
    },
    ExpireIdle {
        max_idle: u64,
    },
    /// (Re)installs a session, in persist mode or not.
    Start {
        s: usize,
        persist: bool,
    },
    /// Writes the master to JSON and loads it back.
    Reload,
}

fn step(sessions: usize) -> impl Strategy<Value = Step> {
    let id = || 0usize..10;
    prop_oneof![
        4 => (id(), 0u8..3).prop_map(|(id, dept)| Step::Add { id, dept }),
        3 => id().prop_map(|id| Step::Delete { id }),
        4 => (id(), 0u8..3).prop_map(|(id, dept)| Step::SetDept { id, dept }),
        2 => (id(), id()).prop_map(|(id, new_id)| Step::Rename { id, new_id }),
        4 => (0..sessions, any::<bool>()).prop_map(|(s, dup)| Step::Poll { s, dup }),
        2 => Just(Step::Flush),
        1 => any::<bool>().prop_map(|coalesce| Step::Policy { coalesce }),
        1 => (0..sessions).prop_map(|s| Step::SyncEnd { s }),
        1 => (0..sessions).prop_map(|s| Step::Abandon { s }),
        1 => (0u64..6).prop_map(|max_idle| Step::ExpireIdle { max_idle }),
        2 => (0..sessions, any::<bool>()).prop_map(|(s, persist)| Step::Start { s, persist }),
        1 => Just(Step::Reload),
    ]
}

fn dn(id: usize) -> Dn {
    format!("cn=p{id},o=xyz").parse().expect("valid dn")
}

fn person(id: usize, dept: u8) -> Entry {
    Entry::new(dn(id))
        .with("objectclass", "person")
        .with("cn", &format!("p{id}"))
        .with("dept", &dept.to_string())
}

/// Session `s`'s request. The last overlaps the first two, so an id is
/// often held twice; the others are disjoint, so a modify often moves an
/// id from one session's content to another's within one apply.
fn request(s: usize) -> SearchRequest {
    let f = ["(dept=0)", "(dept=1)", "(dept=2)", "(|(dept=0)(dept=1))"][s];
    SearchRequest::new(
        "o=xyz".parse().expect("valid dn"),
        Scope::Subtree,
        Filter::parse(f).expect("valid filter"),
    )
}

/// The master, one cookie per live session and the persist receivers
/// held open.
struct World {
    m: SyncMaster,
    cookies: Vec<Option<Cookie>>,
    rx: Vec<Option<Receiver<NotifyBatch>>>,
}

impl World {
    fn new(sessions: usize) -> World {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().expect("valid dn"));
        m.dit_mut()
            .add(Entry::new("o=xyz".parse().expect("valid dn")))
            .expect("suffix entry");
        for id in 0..5 {
            m.dit_mut()
                .add(person(id, (id % 3) as u8))
                .expect("seed entry");
        }
        let mut w = World {
            m,
            cookies: vec![None; sessions],
            rx: (0..sessions).map(|_| None).collect(),
        };
        for s in 0..sessions {
            w.run(&Step::Start {
                s,
                persist: s % 2 == 0,
            });
        }
        w
    }

    fn run(&mut self, step: &Step) {
        let m = &mut self.m;
        let modify = |id: usize, dept: u8| UpdateOp::Modify {
            dn: dn(id),
            mods: vec![Modification::Replace(
                "dept".into(),
                vec![dept.to_string().into()],
            )],
        };
        match *step {
            Step::Add { id, dept } => drop(m.apply(UpdateOp::Add(person(id, dept)))),
            Step::Delete { id } => drop(m.apply(UpdateOp::Delete(dn(id)))),
            Step::SetDept { id, dept } => drop(m.apply(modify(id, dept))),
            Step::Rename { id, new_id } => {
                let new_rdn = Rdn::new("cn", format!("p{new_id}"));
                drop(m.apply(UpdateOp::ModifyDn {
                    dn: dn(id),
                    new_rdn,
                    new_superior: None,
                }));
            }
            Step::Poll { s, dup } => {
                let Some(c) = self.cookies[s] else { return };
                let first = m.resync(&request(s), ReSyncControl::poll(Some(c)));
                if dup {
                    let again = m.resync(&request(s), ReSyncControl::poll(Some(c)));
                    assert_eq!(
                        first.as_ref().map(|r| &r.actions),
                        again.as_ref().map(|r| &r.actions)
                    );
                }
                // A session expired under it: the cookie is dead.
                self.cookies[s] = first.ok().and_then(|r| r.cookie);
            }
            Step::Flush => drop(m.flush_notifications(true)),
            Step::Policy { coalesce } => m.set_notify_policy(if coalesce {
                NotifyPolicy::coalescing(2, 5)
            } else {
                NotifyPolicy::immediate()
            }),
            Step::SyncEnd { s } => {
                if let Some(c) = self.cookies[s].take() {
                    drop(m.resync(&request(s), ReSyncControl::sync_end(c)));
                }
            }
            Step::Abandon { s } => {
                if let Some(c) = self.cookies[s].take() {
                    m.abandon(c);
                }
            }
            Step::ExpireIdle { max_idle } => drop(m.expire_idle(max_idle)),
            Step::Start { s, persist } => {
                if let Some(c) = self.cookies[s].take() {
                    m.abandon(c);
                }
                if persist {
                    let (resp, rx) = m.resync_persist(&request(s), None).expect("install");
                    self.cookies[s] = resp.cookie;
                    self.rx[s] = Some(rx);
                } else {
                    self.cookies[s] = m
                        .resync(&request(s), ReSyncControl::poll(None))
                        .expect("install")
                        .cookie;
                }
            }
            Step::Reload => {
                let json = serde_json::to_string(&*m).expect("serializes");
                *m = serde_json::from_str(&json).expect("its own snapshot loads");
            }
        }
    }
}

/// Mark-sweep over the ledgers: how many sessions' `sent ∪ current` holds
/// each id, checked against the table's counts.
fn holds_equal_references(m: &SyncMaster) -> Result<(), TestCaseError> {
    let t = m.table();
    let mut marks = vec![0u32; t.capacity()];
    for (sent, current, touched) in m.ledgers() {
        let mut held: Vec<u32> = sent.iter().chain(current).copied().collect();
        held.sort_unstable();
        held.dedup();
        for &id in &held {
            prop_assert!(t.dn_of(id).is_some(), "ledger id {} resolves to no DN", id);
            marks[id as usize] += 1;
        }
        for id in touched {
            prop_assert!(
                held.binary_search(id).is_ok(),
                "touched id {} outside sent ∪ current",
                id
            );
        }
    }
    for (id, &refs) in marks.iter().enumerate() {
        let id = id as u32;
        prop_assert_eq!(t.holds(id), refs, "holds of id {} ({:?})", id, t.dn_of(id));
        prop_assert_eq!(
            t.dn_of(id).is_some(),
            refs > 0,
            "id {} is live exactly while held",
            id
        );
    }
    prop_assert_eq!(t.len(), marks.iter().filter(|&&r| r > 0).count());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hold_counts_equal_the_references_after_every_step(
        plan in (1usize..=4).prop_flat_map(|n| (Just(n), prop::collection::vec(step(n), 1..120))),
    ) {
        let (sessions, steps) = plan;
        let mut w = World::new(sessions);
        holds_equal_references(&w.m)?;
        for (i, s) in steps.iter().enumerate() {
            w.run(s);
            holds_equal_references(&w.m).map_err(|e| TestCaseError::fail(format!("step {i} {s:?}: {e}")))?;
        }
        // Every session ends: nothing is held and every slot is free.
        for s in 0..sessions {
            w.run(&Step::Abandon { s });
        }
        prop_assert_eq!(w.m.table().len(), 0);
    }
}
