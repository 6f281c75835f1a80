//! The history is the difference: after every step of a seeded stream of
//! updates, renames, polls (some of their responses lost), flushes,
//! session ends and reloads, a poll on a copy of the master brings each
//! session's model replica — fed by every response that arrived and every
//! persist batch so far — to the session's content.
//!
//! The oracle is the store's own search: it shares no code with the
//! history it checks, and the copy goes through the master's snapshot, so
//! the history's written form is checked on every step too.

use crossbeam::channel::Receiver;
use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_resync::{
    Cookie, NotifyBatch, NotifyPolicy, ReSyncControl, ReplicaContent, SyncError, SyncMaster,
};
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
    /// Polls a session and loses the response: the model and the cookie
    /// stay as they were, so the next poll retries the cookie.
    Lost {
        s: usize,
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
        2 => (0..sessions).prop_map(|s| Step::Lost { s }),
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

/// Session `s`'s request. The last overlaps the first two, so a DN is
/// often in two contents; the others are disjoint, so a modify often moves
/// an entry from one session's content to another's within one apply.
fn request(s: usize) -> SearchRequest {
    let f = ["(dept=0)", "(dept=1)", "(dept=2)", "(|(dept=0)(dept=1))"][s];
    SearchRequest::new(
        "o=xyz".parse().expect("valid dn"),
        Scope::Subtree,
        Filter::parse(f).expect("valid filter"),
    )
}

/// The master, one cookie per live session, the persist receivers held
/// open, and each session's model replica.
struct World {
    m: SyncMaster,
    cookies: Vec<Option<Cookie>>,
    rx: Vec<Option<Receiver<NotifyBatch>>>,
    models: Vec<ReplicaContent>,
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
            models: vec![ReplicaContent::new(); sessions],
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
                if let Ok(r) = &first {
                    self.models[s].apply_all(&r.actions);
                }
                if dup {
                    let again = m.resync(&request(s), ReSyncControl::poll(Some(c)));
                    assert_eq!(
                        first.as_ref().map(|r| &r.actions),
                        again.as_ref().map(|r| &r.actions)
                    );
                    if let Ok(r) = &again {
                        self.models[s].apply_all(&r.actions);
                    }
                }
                // A session expired under it: the cookie is dead.
                self.cookies[s] = first.ok().and_then(|r| r.cookie);
            }
            Step::Lost { s } => {
                if let Some(c) = self.cookies[s] {
                    drop(m.resync(&request(s), ReSyncControl::poll(Some(c))));
                }
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
                let resp = if persist {
                    let (resp, rx) = m.resync_persist(&request(s), None).expect("install");
                    self.rx[s] = Some(rx);
                    resp
                } else {
                    self.rx[s] = None;
                    m.resync(&request(s), ReSyncControl::poll(None))
                        .expect("install")
                };
                self.cookies[s] = resp.cookie;
                self.models[s] = ReplicaContent::new();
                self.models[s].apply_all(&resp.actions);
            }
            Step::Reload => {
                let json = serde_json::to_string(&*m).expect("serializes");
                *m = serde_json::from_str(&json).expect("its own snapshot loads");
            }
        }
        // Every persist batch reaches its model in the order it was sent.
        for (rx, model) in self.rx.iter().zip(&mut self.models) {
            for batch in rx.iter().flat_map(Receiver::try_iter) {
                model.apply_all(&batch.actions);
            }
        }
    }
}

/// A poll on a copy of the master, applied to a copy of each live
/// session's model, gives the session's content: what the history holds
/// is exactly what the replica lacks.
fn a_poll_converges_every_session(w: &World) -> Result<(), TestCaseError> {
    let json = serde_json::to_string(&w.m).expect("serializes");
    let mut copy: SyncMaster = serde_json::from_str(&json).expect("its own snapshot loads");
    for (s, cookie) in w.cookies.iter().enumerate() {
        let Some(c) = *cookie else { continue };
        let actions = match copy.resync(&request(s), ReSyncControl::poll(Some(c))) {
            Ok(resp) => resp.actions,
            // Expired under it: the session and its history are gone.
            Err(SyncError::UnknownCookie(_)) => continue,
            Err(e) => return Err(TestCaseError::fail(format!("session {s}: {e:?}"))),
        };
        let mut model = w.models[s].clone();
        model.apply_all(&actions);
        let mut want = copy.dit().search(&request(s));
        want.sort_by(|a, b| a.dn().cmp(b.dn()));
        let got: Vec<&Entry> = model.iter().collect();
        prop_assert_eq!(got, want.iter().collect::<Vec<_>>(), "session {}", s);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_poll_brings_every_model_replica_to_its_content_after_every_step(
        plan in (1usize..=4).prop_flat_map(|n| (Just(n), prop::collection::vec(step(n), 1..120))),
    ) {
        let (sessions, steps) = plan;
        let mut w = World::new(sessions);
        a_poll_converges_every_session(&w)?;
        for (i, s) in steps.iter().enumerate() {
            w.run(s);
            a_poll_converges_every_session(&w).map_err(|e| TestCaseError::fail(format!("step {i} {s:?}: {e}")))?;
        }
        // Every session ends, and its history goes with it.
        for s in 0..sessions {
            w.run(&Step::Abandon { s });
        }
        prop_assert_eq!(w.m.memory_footprint().history_bytes, 0);
    }
}

/// A retry after flushes pushed what the lost response's arrival did
/// next: under a coalescing policy a persist session's poll carrying
/// `Add` X is lost, X is modified (a flush pushes `Modify` X) and leaves
/// (a flush pushes `Delete` X). The retry must not send X again: composed
/// from the two records it would be the lost `Add`, which is why the
/// master reads the retry off the live DIT.
#[test]
fn a_retry_after_a_flushed_departure_does_not_bring_it_back() {
    let mut w = World::new(4);
    let x = 7;
    for step in [
        Step::Start { s: 3, persist: true },
        Step::Policy { coalesce: true },
        Step::Add { id: x, dept: 0 },
        Step::Lost { s: 3 },
        Step::SetDept { id: x, dept: 1 },
        Step::Flush,
        Step::SetDept { id: x, dept: 2 },
        Step::Flush,
    ] {
        w.run(&step);
        a_poll_converges_every_session(&w).unwrap_or_else(|e| panic!("{step:?}: {e}"));
    }
    assert!(!w.models[3].iter().any(|e| e.dn() == &dn(x)), "the flushes delivered the departure");
    let c = w.cookies[3].expect("session 3 is live");
    let retry = w.m.resync(&request(3), ReSyncControl::poll(Some(c))).expect("the retry is answered");
    assert_eq!(retry.actions, vec![fbdr_resync::SyncAction::Delete(dn(x))]);
}
