//! Thread-safety: one network (master + replica node) serving concurrent
//! clients, lock-free `&self` query answering, epoch consistency under a
//! faulty concurrent writer, and Send/Sync guarantees on the core types
//! (C-SEND-SYNC).

use fbdr::core::deploy::ReplicaNode;
use fbdr::dit::{DitStore, NamingContext};
use fbdr::net::Network;
use fbdr::prelude::*;
use fbdr_faults::{FaultPlan, FaultyLink, SimClock};
use fbdr_resync::{
    Cookie, NotifyBatch, ReSyncControl, RetryConfig, SyncDriver, SyncError, SyncResponse,
    SyncTransport, SystemClock,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[test]
fn send_sync_markers() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DitStore>();
    assert_send_sync::<SyncMaster>();
    assert_send_sync::<Network>();
    assert_send_sync::<Entry>();
    assert_send_sync::<Filter>();
    assert_send_sync::<SearchRequest>();
    assert_send_sync::<FilterReplica>();
    assert_send_sync::<SubtreeReplica>();
    assert_send_sync::<fbdr::replica::AtomicReplicaStats>();
    assert_send_sync::<fbdr::containment::ContainmentEngine>();
}

/// Acceptance shape of the read/write split: `try_answer(&self)` is
/// called concurrently from plain shared references — no `Mutex`, no
/// `RwLock`, no cloning — and the atomic statistics come out exact.
#[test]
fn concurrent_try_answer_without_external_lock() {
    let mut dit = DitStore::new();
    dit.add_suffix("o=xyz".parse().expect("dn"));
    dit.add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    for i in 0..100 {
        dit.add(
            Entry::new(format!("cn=p{i},o=xyz").parse().expect("dn"))
                .with("objectclass", "person")
                .with("serialNumber", &format!("{:06}", 400_000 + i)),
        )
        .expect("add");
    }
    let mut master = SyncMaster::with_dit(dit);
    let replica = FilterReplica::new(0);
    replica
        .install_filter(
            &mut master,
            SearchRequest::from_root(Filter::parse("(serialNumber=4000*)").expect("ok")),
        )
        .expect("install");

    const THREADS: usize = 4;
    const PER_THREAD: usize = 250;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let replica = &replica; // shared &FilterReplica, nothing else
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let serial = 400_000 + (t * 31 + i * 7) % 200; // half in, half out
                    let q = SearchRequest::from_root(
                        Filter::parse(&format!("(serialNumber={serial:06})")).expect("ok"),
                    );
                    let answer = replica.try_answer(&q);
                    if serial < 400_100 {
                        // The 4000xx block (100 serials) is replicated.
                        assert_eq!(answer.expect("contained query hits").len(), 1);
                    } else {
                        assert!(answer.is_none(), "serial {serial} is outside the filter");
                    }
                }
            });
        }
    });

    // Relaxed counters are individually exact once the readers quiesce.
    let stats = replica.stats();
    assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64);
    let expected_hits: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t * 31 + i * 7) % 200))
        .filter(|&off| off < 100)
        .count() as u64;
    assert_eq!(stats.hits, expected_hits);
    assert_eq!(stats.generalized_hits, expected_hits);
}

/// Readers hammer `try_answer` while a writer runs `sync_with` cycles
/// through a seeded faulty link. Every group's members are updated to a
/// new version *together* and shipped in one sync batch, so a reader must
/// never observe a mixed-version group — that would be a torn read across
/// epochs. After the faults quiesce, the replica must converge with the
/// master.
#[test]
fn readers_see_consistent_epochs_under_faulty_sync() {
    const GROUPS: usize = 5;
    const MEMBERS: usize = 4;
    const ROUNDS: usize = 120;

    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master
        .dit_mut()
        .add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    for g in 0..GROUPS {
        for m in 0..MEMBERS {
            master
                .dit_mut()
                .add(
                    Entry::new(format!("cn=g{g}m{m},o=xyz").parse().expect("dn"))
                        .with("objectclass", "person")
                        .with("grp", &format!("g{g}"))
                        .with("ver", "v0"),
                )
                .expect("add");
        }
    }

    let group_query = |g: usize| {
        SearchRequest::from_root(Filter::parse(&format!("(grp=g{g})")).expect("ok"))
    };

    let replica = FilterReplica::new(0);
    for g in 0..GROUPS {
        replica.install_filter(&mut master, group_query(g)).expect("install");
    }

    // Seeded fault schedule: drops and duplicates, deterministic per run.
    let plan = FaultPlan::builder(0xE70C_5EED)
        .drop_request(0.15)
        .drop_response(0.15)
        .duplicate(0.10)
        .latency_ms(1, 5)
        .build();
    let clock = SimClock::new();
    let mut link = FaultyLink::new(master, plan, clock.clone());
    let mut driver = SyncDriver::with_clock(
        RetryConfig {
            max_retries: 2,
            base_backoff_ms: 10,
            max_backoff_ms: 40,
            jitter_seed: 7,
            ..RetryConfig::default()
        },
        clock,
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers: no external lock, just &replica.
        for t in 0..3 {
            let replica = &replica;
            let done = &done;
            s.spawn(move || {
                let mut answered = 0u64;
                let mut i = t; // stagger the group each thread starts on
                while !done.load(Ordering::Relaxed) {
                    let g = i % GROUPS;
                    i += 1;
                    let Some(entries) = replica.try_answer(&group_query(g)) else {
                        continue; // a stale-marked miss is impossible here,
                                  // but don't assert liveness mid-outage
                    };
                    answered += 1;
                    assert_eq!(entries.len(), MEMBERS, "group g{g} must be complete");
                    let vers: Vec<&str> = entries
                        .iter()
                        .map(|e| {
                            e.first_value(&"ver".into())
                                .expect("every member has a ver")
                                .raw()
                        })
                        .collect();
                    assert!(
                        vers.windows(2).all(|w| w[0] == w[1]),
                        "torn read: group g{g} answered with mixed versions {vers:?}"
                    );
                }
                answered
            });
        }

        // Writer: bump every member of every group to v{round}, then one
        // sync cycle — each published epoch holds whole rounds only.
        for round in 1..=ROUNDS {
            for g in 0..GROUPS {
                for m in 0..MEMBERS {
                    link.master_mut()
                        .apply(UpdateOp::Modify {
                            dn: format!("cn=g{g}m{m},o=xyz").parse().expect("dn"),
                            mods: vec![Modification::Replace(
                                "ver".into(),
                                vec![format!("v{round}").into()],
                            )],
                        })
                        .expect("apply");
                }
            }
            replica
                .sync_with(&mut link, &mut driver)
                .expect("only non-transient errors may surface");
        }

        // Faults cease; clean cycles must converge the replica.
        link.quiesce();
        for _ in 0..3 {
            replica.sync_with(&mut link, &mut driver).expect("clean cycle");
        }
        done.store(true, Ordering::Relaxed);
    });

    assert_eq!(replica.stale_filter_count(), 0, "still stale after quiesce");
    for g in 0..GROUPS {
        let mut want = link.master().dit().search(&group_query(g));
        want.sort_by(|a, b| a.dn().cmp(b.dn()));
        let mut got = replica.try_answer(&group_query(g)).expect("stored filter answers");
        got.sort_by(|a, b| a.dn().cmp(b.dn()));
        assert_eq!(got, want, "group g{g} diverged from the master after quiesce");
        let final_ver = format!("v{ROUNDS}");
        assert!(
            got.iter()
                .all(|e| e.first_value(&"ver".into()).map(fbdr::ldap::AttrValue::raw)
                    == Some(final_ver.as_str())),
            "group g{g} missing the final round"
        );
    }
    // The readers actually raced the writer.
    assert!(replica.stats().queries > 0);
}

/// A transport whose poll leg parks until released: the caller is held
/// mid-cycle, writer lock taken, for as long as the test wants.
struct ParkedLink {
    master: SyncMaster,
    parked: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl SyncTransport for ParkedLink {
    fn resync(
        &mut self,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.parked.send(()).expect("test is listening");
        self.release.recv().expect("test releases the writer");
        self.master.resync(request, ctl)
    }
    fn take_receiver(
        &mut self,
        cookie: Cookie,
    ) -> Option<crossbeam::channel::Receiver<NotifyBatch>> {
        self.master.take_receiver(cookie)
    }
    fn abandon(&mut self, cookie: Cookie) {
        self.master.abandon(cookie);
    }
}

/// Readers never serialize behind the writer, as one deterministic
/// schedule: a sync cycle is parked inside its transport leg (writer lock
/// held, next epoch not yet published) and `try_answer` on another thread
/// still returns, from the pre-cycle epoch. A read path that takes the
/// writer lock blocks until the release and trips the timeout. (How
/// reads *scale* with readers is wall-clock: `benchmark/`.)
#[test]
fn a_writer_parked_mid_cycle_does_not_block_readers() {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("add");
    let person = "cn=p,o=xyz".parse::<Dn>().expect("dn");
    master
        .dit_mut()
        .add(Entry::new(person.clone()).with("objectclass", "person").with("ver", "v0"))
        .expect("add");
    let query = SearchRequest::from_root(Filter::parse("(objectclass=person)").expect("ok"));
    let replica = FilterReplica::new(0);
    replica.install_filter(&mut master, query.clone()).expect("install");
    master
        .apply(UpdateOp::Modify {
            dn: person,
            mods: vec![Modification::Replace("ver".into(), vec!["v1".into()])],
        })
        .expect("apply");
    let ver = |answer: Option<Vec<Entry>>| {
        let entries = answer.expect("the stored filter answers its own query");
        entries[0].first_value(&"ver".into()).expect("ver").raw().to_owned()
    };

    let epoch = replica.epoch();
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let mut link = ParkedLink { master, parked: parked_tx, release: release_rx };
    let mut driver: SyncDriver<SystemClock> = SyncDriver::default();
    std::thread::scope(|s| {
        let (replica, query) = (&replica, &query);
        let writer = s.spawn(|| replica.sync_with(&mut link, &mut driver));
        parked.recv_timeout(Duration::from_secs(10)).expect("the cycle reaches its poll leg");
        // The read runs on its own thread so that a serialized read path
        // fails the test instead of hanging it.
        let (answered_tx, answered) = mpsc::channel();
        s.spawn(move || answered_tx.send((replica.try_answer(query), replica.epoch())));
        let seen = answered.recv_timeout(Duration::from_secs(5));
        release.send(()).expect("writer is parked");
        let (answer, seen_epoch) = seen.expect("try_answer waited for the parked writer");
        assert_eq!(seen_epoch, epoch, "nothing is published mid-cycle");
        assert_eq!(ver(answer), "v0", "the pre-cycle epoch's answer");
        writer.join().expect("no panic").expect("clean cycle");
    });
    assert_eq!(replica.epoch(), epoch + 1);
    assert_eq!(ver(replica.try_answer(&query)), "v1");
}

/// The metrics registry uses `Relaxed` atomics throughout — cheap on the
/// hot path — which is only sound because nothing reads a *relationship*
/// between counters mid-flight. This pins the contract the relaxation
/// relies on: once the writer threads quiesce (joined), every counter and
/// histogram holds the exact total, and a replica's stats snapshot equals
/// the registry's view of the same counters.
#[test]
fn registry_counters_are_exact_after_quiesce() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;

    // Raw registry: all threads hammer the same counter, gauge and
    // histogram handles.
    let reg = MetricsRegistry::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = &reg;
            s.spawn(move || {
                let c = reg.counter("chaos_total");
                let g = reg.gauge("water_level");
                let h = reg.histogram("lap_ns");
                for i in 0..PER_THREAD {
                    c.inc();
                    g.add(1);
                    h.record((t * PER_THREAD + i) as u64);
                }
            });
        }
    });
    assert_eq!(reg.counter("chaos_total").get(), (THREADS * PER_THREAD) as u64);
    assert_eq!(reg.gauge("water_level").get(), (THREADS * PER_THREAD) as i64);
    let lap = reg.snapshot().histograms["lap_ns"].clone();
    assert_eq!(lap.count, (THREADS * PER_THREAD) as u64);
    assert_eq!(lap.max, (THREADS * PER_THREAD - 1) as u64);

    // Through the stack: an obs-bound replica answering from many threads
    // must report the same exact totals via `stats()` (the atomic
    // snapshot) and via the registry export (the same Arc<Counter>s).
    let obs = Obs::new();
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master
        .dit_mut()
        .add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    master
        .dit_mut()
        .add(
            Entry::new("cn=p,o=xyz".parse().expect("dn"))
                .with("objectclass", "person")
                .with("serialNumber", "400000"),
        )
        .expect("add");
    let replica = FilterReplica::with_obs(0, obs.clone());
    replica
        .install_filter(
            &mut master,
            SearchRequest::from_root(Filter::parse("(serialNumber=4*)").expect("ok")),
        )
        .expect("install");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let replica = &replica;
            s.spawn(move || {
                let q = SearchRequest::from_root(
                    Filter::parse("(serialNumber=400000)").expect("ok"),
                );
                for _ in 0..PER_THREAD / 10 {
                    assert_eq!(replica.try_answer(&q).expect("contained").len(), 1);
                }
            });
        }
    });
    let queries = (THREADS * (PER_THREAD / 10)) as u64;
    assert_eq!(replica.stats().queries, queries);
    assert_eq!(replica.stats().hits, queries);
    let reg = obs.registry();
    assert_eq!(reg.counter("fbdr_replica_queries_total").get(), queries);
    assert_eq!(reg.counter("fbdr_replica_hits_total").get(), queries);
    assert_eq!(reg.histogram("fbdr_replica_try_answer_ns").count(), queries);
}

#[test]
fn concurrent_clients_share_one_network() {
    // Master with 500 people; replica holding one serial block.
    let mut dit = DitStore::new();
    dit.add_suffix("o=xyz".parse().expect("dn"));
    dit.add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    for i in 0..500 {
        dit.add(
            Entry::new(format!("cn=e{i},o=xyz").parse().expect("dn"))
                .with("objectclass", "person")
                .with("serialNumber", &format!("{:06}", 100_000 + i)),
        )
        .expect("add");
    }
    let mut master = SyncMaster::with_dit(dit.clone());
    let replica = FilterReplica::new(0);
    replica
        .install_filter(
            &mut master,
            SearchRequest::from_root(Filter::parse("(serialNumber=1000*)").expect("ok")),
        )
        .expect("install");

    let mut net = Network::new();
    net.add_server(fbdr::net::Server::new(
        "ldap://master",
        dit,
        vec![NamingContext::new("o=xyz".parse().expect("dn"))],
        None,
    ));
    net.add_service(Box::new(ReplicaNode::new("ldap://replica", replica, "ldap://master")));
    let net = Arc::new(net);

    let mut handles = Vec::new();
    for t in 0..8 {
        let net = Arc::clone(&net);
        handles.push(std::thread::spawn(move || {
            let mut client = net.client();
            let mut hits = 0u64;
            for i in 0..200 {
                let serial = 100_000 + (t * 37 + i * 13) % 500;
                let q = SearchRequest::from_root(
                    Filter::parse(&format!("(serialNumber={serial:06})")).expect("ok"),
                );
                let res = client.search("ldap://replica", &q).expect("resolves");
                assert_eq!(res.entries.len(), 1, "serial {serial} must resolve");
                if res.stats.round_trips == 1 {
                    hits += 1;
                }
            }
            hits
        }));
    }
    let total_hits: u64 = handles.into_iter().map(|h| h.join().expect("no panics")).sum();
    // The 1000xx block is 100 of 500 serials: roughly 20% one-round-trip
    // hits across all threads.
    assert!(total_hits > 0, "replica should serve some queries");
    let total = 8 * 200;
    let ratio = total_hits as f64 / total as f64;
    assert!((0.1..0.4).contains(&ratio), "hit ratio {ratio} out of expected band");
}
