//! Publishing an epoch costs what the cycle changed, not what the replica
//! holds: the allocations of a persist-mode drain that carries one
//! `Modify` are few and do not grow with the number of held entries.
//!
//! Allocation counts repeat exactly, so the limits below are a noise-free
//! regression guard for the structurally shared snapshot (DESIGN §7): a
//! snapshot component that goes back to being copied whole per cycle costs
//! at least one allocation per held entry and fails both.
//!
//! The same counter guards the read path's inner loop: a containment
//! check on the same-template and compiled paths allocates nothing, nor
//! does the span that times a layer (beyond its event, when traced) — and
//! what comes before it: a query of a known template is prepared by
//! looking the template up, so extracting it allocates for its values and
//! a whole point-query hit for its lists (DESIGN §5, *Templates*; the table under a
//! flood of shapes is `tests/template_flood.rs`, a process of its own). A
//! hit reads only what it returns: a query equal to its container
//! allocates its answer, a point inside a large cached result its plan and
//! answer, and a small result is cached without key columns.
//!
//! The allocator also counts bytes, for the master's side of a delivery:
//! a poll or a coalesced flush that carries one `Modify` allocates the
//! same bytes whatever the session holds (DESIGN §6, the one drain) — a
//! ledger list copied whole per delivery costs 4 B per held entry.
//!
//! And, in bytes again, the entry representation (DESIGN §5): an answer
//! allocates for its list, not for the entries on it — a four-shard
//! master's fan-out for no more list than one store's (DESIGN §14), and
//! for no copy of the request per shard — and a write to an entry someone
//! else holds copies the set it changes, not the entry. What an entry
//! weighs in a loaded store, and what holding one costs a replica, are
//! bodies and index (DESIGN §9): a key one entry holds keeps its id
//! inline, and an attribute no search planned on is not listed — a modify
//! of one edits no posting, and a bulk load allocates no change record.
//! The map both stores keep postings in holds a key in order in about its
//! own bytes.
//!
//! Last, the allocator tracks the thread's *live* bytes, for what the
//! master keeps: under a stream of updates to a fixed population its heap
//! stays where it was, with and without sessions (DESIGN §5, *Session
//! history* — the store keeps no log) — measured on the heap itself, not
//! by `MasterFootprint`'s own arithmetic.

mod support;

use fbdr::prelude::*;
use fbdr::resync::{Cookie, NotifyPolicy, RoutingIndex, ShardId, ShardMap, ShardedMaster};
use support::{allocations_of, bytes_of, live_bytes};

fn dn(s: &str) -> Dn {
    s.parse().expect("static DN")
}

fn query(f: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(f).expect("static filter"))
}

/// What person `i` says, as text: the DN and eight attributes, §7's
/// `inetOrgPerson`.
fn person_texts(i: usize) -> (String, [(&'static str, String); 8]) {
    let attrs = [
        ("objectclass", "inetOrgPerson".to_owned()),
        ("cn", format!("p{i:05}")),
        ("sn", format!("Surname{}", i % 97)),
        ("serialNumber", format!("{:06}", 100_000 + i)),
        ("departmentNumber", format!("{}", i % 40)),
        ("mail", format!("p{i}@us.xyz.com")),
        ("telephoneNumber", format!("555-{i:05}")),
        ("location", format!("bldg{}", i % 12)),
    ];
    (format!("cn=p{i:05},c=us,o=xyz"), attrs)
}

fn person_of(name: &str, attrs: &[(&str, String)]) -> Entry {
    attrs.iter().fold(Entry::new(dn(name)), |e, (a, v)| e.with(a, v))
}

fn person(i: usize) -> Entry {
    let (name, attrs) = person_texts(i);
    person_of(&name, &attrs)
}

/// A master with `n` people.
fn master_of(n: usize) -> SyncMaster {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix(dn("o=xyz"));
    master.dit_mut().add(Entry::new(dn("o=xyz"))).expect("suffix entry");
    master.dit_mut().add(Entry::new(dn("c=us,o=xyz"))).expect("country entry");
    for i in 0..n {
        master.dit_mut().add(person(i)).expect("person");
    }
    master
}

/// A master with `n` people and a replica holding all of them through
/// three persist-mode filters, two of which overlap on person 42.
fn deployment(n: usize) -> (SyncMaster, FilterReplica) {
    let mut master = master_of(n);
    let replica = FilterReplica::new(0);
    for f in ["(objectclass=inetOrgPerson)", "(serialNumber=1000*)", "(departmentNumber=7)"] {
        replica.install_filter_persistent(&mut master, query(f)).expect("install");
    }
    assert_eq!(replica.entry_count(), n);
    (master, replica)
}

fn move_person_42(master: &mut SyncMaster) {
    master
        .apply(UpdateOp::Modify {
            dn: dn("cn=p00042,c=us,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["moved@us.xyz.com".into()])],
        })
        .expect("modify");
}

/// Allocations of the drain that applies one `Modify` of person 42's
/// mail (held by two filters) to a replica of `n` entries.
fn single_modify_drain(n: usize) -> u64 {
    let (mut master, replica) = deployment(n);
    move_person_42(&mut master);
    let epoch = replica.epoch();
    let (traffic, allocations) = allocations_of(|| replica.drain_notifications());
    assert_eq!(traffic.full_entries, 2, "one notification per holding filter");
    assert_eq!(replica.epoch(), epoch + 1);
    let moved = query("(&(objectclass=inetOrgPerson)(mail=moved@us.xyz.com))");
    let hit = replica.try_answer(&moved).expect("contained in the first filter");
    assert_eq!(hit.len(), 1);
    allocations
}

#[test]
fn single_modify_drain_allocates_for_the_change_not_the_replica() {
    let small = single_modify_drain(1_000);
    let large = single_modify_drain(8_000);
    println!("single-Modify drain: {small} allocations at 1000 entries, {large} at 8000");
    // Nobody holds the epoch, so the drain edits it in place: the list of
    // batches and each holding filter's batch, and nothing for the epoch
    // (7 while every drain built its epoch beside the published one).
    assert!(small <= 3, "{small} allocations at 1000 entries");
    assert!(large <= 3, "{large} allocations at 8000 entries");
    assert!(
        (large as f64) < 1.5 * small as f64,
        "{small} allocations at 1000 entries grew to {large} at 8000"
    );
}

/// Bytes the master allocates to deliver one `Modify` on a session that
/// holds `n` entries: by a poll, and by a forced coalesced flush.
fn single_modify_delivery(n: usize) -> (u64, u64) {
    let everyone = query("(objectclass=inetOrgPerson)");
    let moved = dn("cn=p00042,c=us,o=xyz");
    let is_one_modify =
        |actions: &[SyncAction]| matches!(actions, [SyncAction::Modify(e)] if e.dn() == &moved);

    let mut master = master_of(n);
    let first = master.resync(&everyone, ReSyncControl::poll(None)).expect("initial poll");
    assert_eq!(first.actions.len(), n);
    move_person_42(&mut master);
    let (resp, poll) =
        bytes_of(|| master.resync(&everyone, ReSyncControl::poll(first.cookie)).expect("poll"));
    assert!(is_one_modify(&resp.actions), "{:?}", resp.actions);

    let mut master = master_of(n);
    master.set_notify_policy(NotifyPolicy::coalescing(32, 50));
    let (first, rx) = master.resync_persist(&everyone, None).expect("persist install");
    assert_eq!(first.actions.len(), n);
    move_person_42(&mut master);
    let (flushes, flush) = bytes_of(|| master.flush_notifications(true));
    assert_eq!(flushes.len(), 1);
    assert!(is_one_modify(&rx.try_recv().expect("one batch").actions));
    (poll, flush)
}

#[test]
fn a_delivery_allocates_for_what_changed() {
    let (small_poll, small_flush) = single_modify_delivery(1_000);
    let (large_poll, large_flush) = single_modify_delivery(8_000);
    println!("single-Modify poll: {small_poll} B at 1000 held entries, {large_poll} B at 8000");
    println!("single-Modify flush: {small_flush} B at 1000 held entries, {large_flush} B at 8000");
    assert_eq!(small_poll, large_poll, "a poll's bytes grew with the entries held");
    assert_eq!(small_flush, large_flush, "a flush's bytes grew with the entries held");
}

/// Allocations of a drain that applies one `Modify` of person 42's mail
/// (held by two filters) to a replica of 1 000 entries, after the replica
/// answered `asked` — the attributes a query plans on are the ones it
/// keeps postings for (DESIGN §9, *What the index keeps*). `moved` is the
/// new mail: the old one again rewrites nothing. With `held`, an epoch is
/// held across the drain, as a reader mid-answer holds it, so the drain
/// builds the next epoch beside it and copies what it writes; without,
/// it edits the published epoch.
fn mail_drain_after(asked: Option<&str>, moved: &str, held: bool) -> u64 {
    let (mut master, replica) = deployment(1_000);
    if let Some(f) = asked {
        assert_eq!(replica.try_answer(&query(f)).expect("contained").len(), 1);
    }
    master
        .apply(UpdateOp::Modify {
            dn: dn("cn=p00042,c=us,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec![moved.into()])],
        })
        .expect("modify");
    let reader = held.then(|| replica.hold_epoch());
    let (traffic, allocations) = allocations_of(|| replica.drain_notifications());
    drop(reader);
    assert_eq!(traffic.full_entries, 2, "one notification per holding filter");
    allocations
}

#[test]
fn a_drain_of_an_attribute_no_query_planned_on_copies_no_index_node() {
    let mail = "(&(objectclass=inetOrgPerson)(mail=p42@us.xyz.com))";
    let serial = "(&(objectclass=inetOrgPerson)(serialNumber=100042))";
    // Beside a held epoch. The entry comes back as it was: the slot is
    // written, no index key.
    let rewrite = mail_drain_after(Some(mail), "p42@us.xyz.com", true);
    let unasked = mail_drain_after(None, "moved@us.xyz.com", true);
    let elsewhere = mail_drain_after(Some(serial), "moved@us.xyz.com", true);
    let kept = mail_drain_after(Some(mail), "moved@us.xyz.com", true);
    println!(
        "single-Modify drain of mail beside a held epoch: {unasked} allocations with nothing \
         kept, {elsewhere} with other attributes kept, {kept} with mail kept; {rewrite} when no \
         value changed"
    );
    assert_eq!(unasked, rewrite, "a drain copied index nodes for an attribute nobody planned on");
    assert_eq!(elsewhere, rewrite, "a drain copied index nodes for an attribute nobody planned on");
    assert!(kept > rewrite, "a kept attribute's change copied nothing: {kept} allocations");
    // In place: nothing is shared, so nothing is copied, kept or not.
    let rewrite_in_place = mail_drain_after(Some(mail), "p42@us.xyz.com", false);
    let unasked_in_place = mail_drain_after(None, "moved@us.xyz.com", false);
    let kept_in_place = mail_drain_after(Some(mail), "moved@us.xyz.com", false);
    println!(
        "in place: {unasked_in_place} allocations with nothing kept, {kept_in_place} with mail \
         kept; {rewrite_in_place} when no value changed"
    );
    assert_eq!(unasked_in_place, rewrite_in_place, "an in-place drain allocated for an unkept attribute");
    assert_eq!(kept_in_place, rewrite_in_place, "an in-place drain copied a node it writes");
    assert!(kept_in_place < rewrite, "{kept_in_place} allocations in place, {rewrite} beside");
}

#[test]
fn empty_drain_allocates_nothing() {
    let (mut master, replica) = deployment(1_000);
    // An update that no stored filter covers reaches no channel.
    master.apply(UpdateOp::Add(Entry::new(dn("c=in,o=xyz")))).expect("add");
    let epoch = replica.epoch();
    let (traffic, allocations) = allocations_of(|| replica.drain_notifications());
    assert_eq!(traffic.pdus(), 0);
    assert_eq!(replica.epoch(), epoch);
    assert_eq!(allocations, 0);
}

#[test]
fn containment_check_allocates_nothing() {
    let engine = ContainmentEngine::new();
    let prepared = |f: &str| PreparedQuery::new(query(f));
    let pairs = [
        // Same template (Proposition 3): prefixes, ranges, conjunctions.
        (prepared("(serialNumber=10004*)"), prepared("(serialNumber=1000*)")),
        (prepared("(&(sn=Doe)(age>=40))"), prepared("(&(sn=doe)(age>=30))")),
        // Compiled cross-template (Proposition 2): equality against a
        // prefix, a typed range and presence; and a pair that compiles to
        // "never".
        (prepared("(serialNumber=100042)"), prepared("(serialNumber=1000*)")),
        (prepared("(&(age=40)(sn=Doe))"), prepared("(&(age>=30)(sn=*))")),
        (prepared("(&(age=40)(sn=Doe))"), prepared("(&(age<=30)(sn=d*))")),
        (prepared("(sn=doe)"), prepared("(&(sn=doe)(ou=research))")),
    ];
    // The first check of a template pair compiles and caches its condition.
    let warm: Vec<bool> = pairs.iter().map(|(q, s)| engine.query_contained(q, s)).collect();
    assert_eq!(warm, [true, true, true, true, false, false]);
    let before = engine.stats();
    let (again, allocations) = allocations_of(|| {
        pairs.iter().map(|(q, s)| engine.query_contained(q, s)).fold(0, |n, c| n + usize::from(c))
    });
    assert_eq!(again, 4);
    let stats = engine.stats();
    assert_eq!(stats.same_template - before.same_template, 2);
    assert_eq!(stats.compiled - before.compiled, 3);
    assert_eq!(stats.skipped_never - before.skipped_never, 1);
    assert_eq!(allocations, 0, "allocations in six containment checks");
}

/// A subscriber that keeps nothing, so what an emission allocates is the
/// event alone.
struct Discard;

impl fbdr::obs::Subscriber for Discard {
    fn on_event(&self, _: &fbdr::obs::Event) {}
}

#[test]
fn a_span_allocates_nothing() {
    let obs = Obs::new();
    let timer = obs.timer("replica", "try_answer");
    let ((), bytes) = bytes_of(|| {
        let mut span = timer.start();
        span.record("hit", true);
    });
    assert_eq!(bytes, 0, "bytes of a span with no subscriber");
    assert_eq!(obs.registry().histogram("fbdr_replica_try_answer_ns").count(), 1);

    // With a subscriber, the span's closing event is all it allocates: as
    // many allocations as an `event!` with the same fields.
    obs.set_subscriber(std::sync::Arc::new(Discard));
    let ((), span) = allocations_of(|| {
        let mut span = timer.start();
        span.record("hit", true);
    });
    let ((), event) = allocations_of(|| {
        fbdr::obs::event!(obs, "replica", "try_answer", hit = true, duration_ns = 1u64);
    });
    assert_eq!((span, event), (1, 1), "allocations of a span's close and of its event");
}

#[test]
fn a_known_template_is_extracted_for_the_price_of_its_values() {
    let filter = Filter::parse("(&(objectclass=inetOrgPerson)(departmentNumber=7))").expect("filter");
    let (first, _) = Template::of(&filter);
    let again = Filter::parse("(&(objectClass=person)(departmentnumber=12))").expect("filter");
    // References into the filter: the list that holds them.
    let ((borrowing, values), allocations) = allocations_of(|| Template::of_borrowed(&again));
    assert_eq!((borrowing, values.len()), (first.clone(), 2));
    assert_eq!(allocations, 1, "allocations of a borrowing extraction");
    // Handles of its own: the list again, a refcount per value.
    let ((owning, values), allocations) = allocations_of(|| Template::of(&again));
    assert_eq!((owning, values.len()), (first, 2));
    assert_eq!(allocations, 1, "allocations of an owning extraction");
}

#[test]
fn a_warm_point_hit_allocates_for_its_lists() {
    let mut master = master_of(1_000);
    let replica = FilterReplica::new(0);
    replica.install_filter(&mut master, query("(serialNumber=1000*)")).expect("install");
    // The first query of the template interns it and compiles its
    // condition against the stored filter's.
    assert_eq!(replica.try_answer(&query("(serialNumber=100042)")).expect("contained").len(), 1);
    let next = query("(serialNumber=100043)");
    let (hit, allocations) = allocations_of(|| replica.try_answer(&next));
    assert_eq!(hit.expect("contained").len(), 1);
    println!("warm point hit: {allocations} allocations");
    assert!(allocations <= 10, "{allocations} allocations in a warm point-query hit");
}

/// A query asking exactly what a settled stored filter holds is the
/// filter's content (DESIGN §9, *Query planner*): it allocates its answer
/// and a few small lists beside it, where a plan, an intersection and a
/// list of references were three more lists of a thousand (52 323 B
/// against the answer's 32 000).
#[test]
fn an_equal_query_hit_allocates_its_answer() {
    let mut master = master_of(1_000);
    let replica = FilterReplica::new(0);
    let block = query("(serialNumber=100*)");
    replica.install_filter(&mut master, block.clone()).expect("install");
    assert_eq!(replica.try_answer(&block).expect("contained").len(), 1_000);
    let (answered, bytes) = bytes_of(|| replica.try_answer(&block).expect("contained").len());
    assert_eq!(answered, 1_000);
    let answer = 1_000 * std::mem::size_of::<Entry>() as u64;
    println!("equal-query hit on 1 000 held entries: {bytes} B, its answer's list {answer} B");
    assert!(bytes <= answer + 128, "an equal-query hit allocated {bytes} B, its answer {answer} B");
}

/// A point contained in a large cached result is planned through the
/// result's key columns (DESIGN §7, *Query cache*): it allocates the
/// plan's list and its answer beside the lookup's small lists, where
/// verifying every frozen entry allocated a list of references sized for
/// all thousand (8 096 B).
#[test]
fn a_point_in_a_large_cached_result_allocates_its_plan_and_answer() {
    let master = master_of(1_000);
    let replica = FilterReplica::new(2);
    let block = query("(serialNumber=100*)");
    replica.cache_query(block.clone(), &master.dit().search(&block));
    assert_eq!(replica.try_answer(&query("(serialNumber=100042)")).expect("cached").len(), 1);
    let point = query("(serialNumber=100043)");
    let ((answered, allocations), bytes) =
        bytes_of(|| allocations_of(|| replica.try_answer(&point).expect("cached").len()));
    assert_eq!(answered, 1);
    println!("point in a cached 1 000-entry result: {allocations} allocations, {bytes} B");
    assert!(bytes <= 256, "a point in a cached 1 000-entry result allocated {bytes} B");
}

/// Caching a result below the size that gets key columns allocates the
/// prepared request, the result's list of handles and the window's
/// bookkeeping: 7 allocations and 2 160 B for 200 entries, where the
/// window's registration keyed by `String`s made it 15 and 7 112 B, and
/// one keyed by `AttrName` and `TextKey` 7 and 2 224 B. A result at the
/// size pays for one column per attribute its filter names.
#[test]
fn caching_a_small_result_builds_no_columns() {
    let master = master_of(1_000);
    let replica = FilterReplica::new(2);
    let cache = |q: &SearchRequest, result: &[Entry]| {
        // The window is full and holds its size: each call evicts one.
        for _ in 0..3 {
            replica.cache_query(q.clone(), result);
        }
        let ((), allocations) = allocations_of(|| replica.cache_query(q.clone(), result));
        let ((), bytes) = bytes_of(|| replica.cache_query(q.clone(), result));
        (allocations, bytes)
    };
    let two_blocks = query("(|(serialNumber=1001*)(serialNumber=1002*))");
    let small = master.dit().search(&two_blocks);
    assert_eq!(small.len(), 200);
    let (allocations, bytes) = cache(&two_blocks, &small);
    let block = query("(serialNumber=100*)");
    let (large_allocations, large_bytes) = cache(&block, &master.dit().search(&block));
    println!(
        "cache_query: {allocations} allocations, {bytes} B for 200 entries; \
         {large_allocations} allocations, {large_bytes} B for 1 000"
    );
    assert!(
        allocations <= 7 && bytes <= 2_160,
        "caching 200 entries: {allocations} allocations, {bytes} B"
    );
}

/// Registering a filter of one key in a warm routing index allocates
/// nothing, and removing any filter allocates nothing (DESIGN §12): a
/// posting key is a 64-bit hash of the attribute and the normalized text,
/// a key that one filter holds keeps its id inline, and the registration
/// the caller holds keeps a single key in place. A filter of several keys
/// allocates their list once. Keyed by `String`s with a heap list per key,
/// the first four shapes below allocated 5, 5, 8 and 2 times; keyed by
/// `AttrName` and `TextKey` with a list of keys per filter, 1, 1, 1 and 0.
#[test]
fn a_routing_registration_allocates_for_its_place() {
    let base = dn("c=us,o=xyz");
    // (filter, a sibling of it, the filter's expected allocations)
    type Shape = (&'static str, fn(usize) -> String, u64);
    let shapes: [Shape; 5] = [
        ("(serialNumber=045612)", |i| format!("(serialNumber={})", 100_000 + i), 0),
        ("(serialNumber=0456*)", |i| format!("(serialNumber={}*)", 1_000 + i), 0),
        (
            "(&(objectclass=person)(departmentNumber=7))",
            |i| format!("(&(objectclass=person)(departmentNumber={}))", 100 + i),
            0,
        ),
        ("(!(cn=x))", |i| format!("(!(cn=y{i}))"), 0),
        (
            "(|(serialNumber=045612)(mail=x@y))",
            |i| format!("(|(serialNumber={})(mail={i}@y))", 100_000 + i),
            1,
        ),
    ];
    for (filter, sibling, expected) in shapes {
        let mut index = RoutingIndex::new();
        let held: Vec<_> = (0..64)
            .map(|i| {
                let (template, values) = Template::of(&Filter::parse(&sibling(i)).expect("filter"));
                index.register_prepared(i as u32, &template, &values, &base)
            })
            .collect();
        let (template, values) = Template::of(&Filter::parse(filter).expect("filter"));
        let warm = index.register_prepared(64, &template, &values, &base);
        index.remove(warm);
        let (registration, registered) =
            allocations_of(|| index.register_prepared(64, &template, &values, &base));
        let ((), removed) = allocations_of(|| index.remove(registration));
        index.debug_validate(&held);
        assert_eq!(index.len(), 64);
        println!("routing {filter}: {registered} allocations to register, {removed} to remove");
        assert_eq!(registered, expected, "registering {filter}: {registered} allocations");
        assert_eq!(removed, 0, "removing {filter}: {removed} allocations");
    }
}

/// A miss cached into a full window registers its query and removes the
/// oldest one: the window's routing allocates nothing for either, so the
/// call allocates the prepared query's values, the result's list and the
/// cached query (5 while the index kept a list of keys per registration
/// and a map from ids to them).
#[test]
fn caching_a_miss_into_a_full_window_allocates_for_the_query_not_its_routing() {
    let master = master_of(1_000);
    let replica = FilterReplica::new(8);
    let miss = |i: usize| {
        let q = query(&format!("(serialNumber={})", 100_000 + i));
        let result = master.dit().search(&q);
        assert_eq!(result.len(), 1);
        (q, result)
    };
    for i in 0..16 {
        let (q, result) = miss(i);
        replica.cache_query(q, &result);
    }
    assert_eq!(replica.cached_query_count(), 8);
    let (q, result) = miss(16);
    let ((), allocations) = allocations_of(|| replica.cache_query(q, &result));
    assert_eq!(replica.cached_query_count(), 8);
    println!("caching a miss into a full window: {allocations} allocations");
    assert_eq!(allocations, 3, "caching a one-entry point query");
}

/// Person `i` of the teams below, named `name`: the first 50 in team `a`,
/// the next 200 in team `b`.
fn team_member(i: usize, name: &str) -> Entry {
    let (_, attrs) = person_texts(i);
    let e = person_of(name, &attrs);
    match i {
        0..=49 => e.with("team", "a"),
        50..=249 => e.with("team", "b"),
        _ => e,
    }
}

/// A master of 1 000 people, 50 of them in team `a` and 200 in team `b`,
/// and a replica holding all of them.
fn teams() -> (SyncMaster, FilterReplica) {
    let mut master = master_of(0);
    for i in 0..1_000 {
        master.dit_mut().add(team_member(i, &person_texts(i).0)).expect("person");
    }
    let replica = FilterReplica::new(2);
    replica.install_filter(&mut master, query("(objectclass=inetOrgPerson)")).expect("install");
    (master, replica)
}

/// The same 1 000 people dealt to four countries, `c=c0` … `c=c3`, one per
/// shard of a four-shard master; the `o=xyz` glue entry is on every shard.
fn sharded_teams() -> ShardedMaster {
    let countries: Vec<Dn> = (0..4).map(|c| dn(&format!("c=c{c},o=xyz"))).collect();
    let map = ShardMap::by_suffixes(countries.clone());
    let mut master = ShardedMaster::new(map.clone());
    for (shard, country) in map.shards().zip(countries) {
        let dit = master.shard_mut(shard).dit_mut();
        dit.add_suffix(dn("o=xyz"));
        dit.add(Entry::new(dn("o=xyz"))).expect("glue entry");
        dit.add(Entry::new(country)).expect("country entry");
    }
    for i in 0..1_000 {
        let person = team_member(i, &format!("cn=p{i:05},c=c{},o=xyz", i % 4));
        master.shard_mut(map.shard_of(person.dn())).dit_mut().add(person).expect("person");
    }
    master
}

fn team_query(team: &str) -> SearchRequest {
    query(&format!("(&(objectclass=inetOrgPerson)(team={team}))"))
}

/// Bytes `answer` allocates per entry it returns beyond the first 50,
/// between the 50-entry and the 200-entry team; each asked once before,
/// so that what the first call of a kind sets up is not counted.
fn bytes_per_further_entry(mut answer: impl FnMut(&SearchRequest) -> usize) -> u64 {
    let mut bytes_of_team = |team: &str, size: usize| {
        let q = team_query(team);
        answer(&q);
        let (returned, bytes) = bytes_of(|| answer(&q));
        assert_eq!(returned, size);
        bytes
    };
    let (small, large) = (bytes_of_team("a", 50), bytes_of_team("b", 200));
    (large - small) / 150
}

#[test]
fn an_answer_allocates_for_the_list_not_the_entries() {
    let (master, replica) = teams();
    let hit = bytes_per_further_entry(|q| replica.try_answer(q).expect("contained").len());
    let search = bytes_per_further_entry(|q| master.dit().search(q).len());
    let results = |q: &SearchRequest| master.dit().search(q);
    let (small, large) = (results(&team_query("a")), results(&team_query("b")));
    let cache = bytes_per_further_entry(|q| {
        let result = if q == &team_query("a") { &small } else { &large };
        replica.cache_query(q.clone(), result);
        result.len()
    });
    let sharded = sharded_teams();
    let fanout = bytes_per_further_entry(|q| sharded.search(q).len());
    println!(
        "per further returned entry: hit {hit} B, master search {search} B, \
         4-shard search {fanout} B, cache_query {cache} B"
    );
    assert!(hit <= 100, "a replica hit allocates {hit} B per further entry");
    assert!(search <= 100, "a master search allocates {search} B per further entry");
    assert!(cache <= 100, "caching a result allocates {cache} B per further entry");
    // One list of references, sorted in place, then the answer: a fan-out
    // that collects, sorts or projects per shard allocates those lists too.
    assert!(
        fanout <= search + 16,
        "a 4-shard search allocates {fanout} B per further entry, one store's {search} B"
    );
    // Ownership is a hash probe on the DN's own components (the fan-out
    // asks it only of entries above a shard's glue depth).
    let dns: Vec<Dn> = sharded.search(&team_query("b")).iter().map(|e| e.dn().clone()).collect();
    let (owned, allocations) =
        allocations_of(|| dns.iter().filter(|d| sharded.map().shard_of(d) == ShardId::new(1)).count());
    assert_eq!(owned, 50);
    assert_eq!(allocations, 0, "allocations of {} ownership lookups", dns.len());
}

#[test]
fn a_sharded_miss_borrows_its_request() {
    let (master, _) = teams();
    let sharded = sharded_teams();
    let nobody = team_query("z");
    // Asked once before, on both: the first search of an attribute has
    // each store list it (DESIGN §9, *What the index keeps*), four lists
    // at four shards where one store makes one.
    master.dit().search(&nobody);
    sharded.search(&nobody);
    let (found, one_store) = allocations_of(|| master.dit().search(&nobody).len());
    assert_eq!(found, 0);
    let (found, four_shards) = allocations_of(|| sharded.search(&nobody).len());
    assert_eq!(found, 0);
    println!("a search that matches nothing: {one_store} allocations at one store, {four_shards} at 4 shards");
    // The split's list and a plan at each further shard: the clamped bases
    // are the common ancestors the map keeps per shard, shared. A request
    // copied per shard allocated 21 times here, and a split that listed the
    // reached shards before clamping them 8.
    assert!(
        four_shards <= one_store + 4,
        "a 4-shard search allocated {four_shards} times, one store's {one_store}"
    );
}

/// Bytes the master allocates to replace person 42's one `mail` value
/// while a persist-mode replica holds the entry, every other attribute of
/// which carries `others` values.
fn shared_entry_modify(others: usize) -> u64 {
    let mut master = master_of(100);
    let wide: Vec<Modification> = ["sn", "departmentNumber", "telephoneNumber", "location"]
        .into_iter()
        .map(|a| Modification::Replace(a.into(), (0..others).map(|v| format!("{v:04}").into()).collect()))
        .collect();
    master.apply(UpdateOp::Modify { dn: dn("cn=p00042,c=us,o=xyz"), mods: wide }).expect("widen");
    let replica = FilterReplica::new(0);
    replica.install_filter_persistent(&mut master, query("(serialNumber=1000*)")).expect("install");
    let (_, bytes) = bytes_of(|| move_person_42(&mut master));
    assert_eq!(replica.drain_notifications().full_entries, 1);
    let moved = replica.try_answer(&query("(serialNumber=100042)")).expect("contained");
    assert!(moved[0].has_value(&"mail".into(), &"moved@us.xyz.com".into()));
    assert_eq!(moved[0].values(&"location".into()).count(), others);
    bytes
}

#[test]
fn a_write_to_a_shared_entry_copies_what_it_changes() {
    let (narrow, wide) = (shared_entry_modify(1), shared_entry_modify(16));
    println!("one-value modify of a held entry: {narrow} B beside 1-value attributes, {wide} B beside 16-value ones");
    assert_eq!(narrow, wide, "the write copied values it did not change");
    // The whole apply: the request's own value, the new slice of nine
    // pointers, the index keys, the change record (3 506 B when the write
    // copied a `BTreeMap` spine and built a set behind an `Arc`).
    assert!(narrow <= 2_000, "a one-value modify of a held entry allocated {narrow} B");
}

/// Allocations of the store's edit replacing person 42's one `mail`
/// value, while another handle on the entry's body is `held` or not.
fn store_modify(held: bool) -> u64 {
    let mut master = master_of(100);
    let person = dn("cn=p00042,c=us,o=xyz");
    let holder = held.then(|| master.dit().get(&person).expect("person").clone());
    let mods = vec![Modification::Replace("mail".into(), vec!["moved@us.xyz.com".into()])];
    let (record, allocations) = allocations_of(|| master.dit_mut().modify(&person, mods));
    record.expect("modify");
    if let Some(holder) = holder {
        assert_eq!(holder.first_value(&"mail".into()).map(AttrValue::raw), Some("p42@us.xyz.com"));
    }
    allocations
}

#[test]
fn a_modify_of_an_entry_nothing_else_holds_copies_no_body() {
    let (alone, shared) = (store_modify(false), store_modify(true));
    println!("one-value modify in the store: {alone} allocations alone, {shared} beside another handle");
    // Shared, the write gives the entry a body and a slice of its own;
    // alone, it edits both in place (a rollback snapshot of the whole
    // entry made every edit the shared case).
    assert_eq!(alone + 2, shared, "a modify of an unshared entry copied its body");
}

/// Allocations of the store's edit replacing person 42's
/// `telephoneNumber` with person 43's, on a master of 1 000 people that
/// answered `asked` first — the attributes a search plans on are the ones
/// the store keeps postings for (DESIGN §9, *What the index keeps*).
fn phone_modify_after(asked: Option<&str>) -> u64 {
    let mut master = master_of(1_000);
    if let Some(f) = asked {
        assert_eq!(master.dit().search(&query(f)).len(), 1);
    }
    let person = dn("cn=p00042,c=us,o=xyz");
    let mods = vec![Modification::Replace("telephoneNumber".into(), vec!["555-00043".into()])];
    let (record, allocations) = allocations_of(|| master.dit_mut().modify(&person, mods));
    record.expect("modify");
    allocations
}

#[test]
fn a_modify_of_an_attribute_no_search_planned_on_edits_no_posting() {
    let unasked = phone_modify_after(None);
    let elsewhere = phone_modify_after(Some("(serialNumber=100042)"));
    let kept = phone_modify_after(Some("(telephoneNumber=555-00042)"));
    println!(
        "one-value modify of telephoneNumber in the store: {unasked} allocations with nothing kept, \
         {elsewhere} with serialNumber kept, {kept} with telephoneNumber kept"
    );
    assert_eq!(unasked, elsewhere, "a modify edited postings of an attribute no search planned on");
    // Kept, the number person 43 and now person 42 hold lists two ids,
    // which no longer fit in the map node.
    assert!(kept > unasked, "a kept attribute's change allocated nothing: {kept} allocations");
}

/// The bulk loaders call `add` and drop its record, and a record is a DN
/// handle and a kind: loading people allocates alike whether the records
/// are dropped or kept. (Each add allocated once more while its record
/// listed the entry's value sets.)
#[test]
fn a_bulk_load_allocates_no_record() {
    let people: Vec<Entry> = (0..1_000).map(person).collect();
    let load = |keep: bool| {
        let mut master = master_of(0);
        let people = people.clone();
        let mut records = Vec::with_capacity(people.len());
        let ((), allocations) = allocations_of(|| {
            for p in people {
                let record = master.dit_mut().add(p).expect("person");
                if keep {
                    records.push(record);
                }
            }
        });
        assert_eq!(master.dit().len(), 1_002);
        assert_eq!(master.dit().csn().0, 1_002, "each add takes a CSN");
        allocations
    };
    let (dropped, kept) = (load(false), load(true));
    println!(
        "loading 1 000 people: {dropped} allocations with the records dropped, \
         {kept} with them kept"
    );
    assert_eq!(dropped, kept, "an add allocated for its record");
}

/// What `build` leaves on the heap, and the allocations it took.
fn live_and_allocations_of<T>(build: impl FnOnce() -> T) -> (T, i64, u64) {
    let before = live_bytes();
    let (built, allocations) = allocations_of(build);
    (built, live_bytes() - before, allocations)
}

#[test]
fn an_entry_is_the_bytes_of_its_values() {
    // Another person first, so that the attribute names are in the
    // process's table as they are for every entry of a directory but one.
    let _names = person(1);
    let (name, attrs) = person_texts(0);
    let (_one, live, allocations) = live_and_allocations_of(|| person_of(&name, &attrs));
    println!("one person: {live} B live in {allocations} allocations");
    // From the texts above: the DN parsed, eight values added. 7 416 B in
    // 70 allocations as a `BTreeMap` of `Arc<BTreeSet>`s of two-string
    // values with a name built per attribute; 960 B in 23 with the DN
    // beside the slice in a 32-byte handle and 40-byte values; 920 B in
    // 24 while every value was a string of its own. Every value of this
    // person fits in its `AttrValue`: 608 B in 11 — the DN's RDN slice,
    // the body and the attribute slice as it grows. Slack: 32 B, one
    // allocation.
    assert!(live <= 640, "one person holds {live} B");
    assert!(allocations <= 12, "one person took {allocations} allocations");

    // Bodies, both DN maps and the index: 8 026 B with the layout above,
    // 1 576 B while every index key had a list on the heap, 1 487 B with
    // 40-byte values, 1 422 B with one pointer per entry — every
    // attribute of every entry listed. Then an attribute was listed once
    // a search planned on it: a loaded store listed none (1 028 B), and a
    // search on `serialNumber` added that attribute's postings (1 156 B).
    // Short values in their `AttrValue`: 709 B and 836 B. Slack: 27 B
    // and 28 B, under 4 %.
    let (store, live, _) = live_and_allocations_of(|| master_of(2_000));
    let per_entry = live / 2_000;
    let serial = query("(serialNumber=100042)");
    let (_, keeping, _) = live_and_allocations_of(|| store.dit().search(&serial).len());
    let kept_per_entry = (live + keeping) / 2_000;
    println!(
        "a store of 2 000 people: {per_entry} B live per entry, {kept_per_entry} B once serialNumber is kept"
    );
    assert!(per_entry <= 736, "a loaded store holds {per_entry} B per entry");
    assert!(kept_per_entry <= 864, "a store keeping serialNumber holds {kept_per_entry} B per entry");
    assert_eq!(store.dit().len(), 2_002);
}

/// The posting map of both stores' index (`fbdr_dit::persistent::PMap`)
/// loaded with 20 000 one-id text keys in order — serial numbers as a bulk
/// load lists them — holds 40 B per key in its leaves (a 24-byte key
/// beside a 16-byte posting) and a little more for nodes and branches.
/// A split leaves the lower half to keys that never come back to it:
/// kept at the capacity it grew to, it held 92 B per key, where a
/// `BTreeMap` of the same keys holds 78 B.
#[test]
fn a_posting_map_loaded_in_order_is_about_its_keys() {
    use fbdr::dit::index::TextKey;
    use fbdr::dit::persistent::PMap;
    use fbdr::dit::posting::Posting;
    let keys: Vec<String> = (0..20_000).map(|i| format!("{:06}", 100_000 + i)).collect();
    let (map, live, _) = live_and_allocations_of(|| {
        let mut map: PMap<TextKey, Posting> = PMap::default();
        for (id, k) in (0..).zip(&keys) {
            map.update(k.as_bytes(), || TextKey::new(k), |ids| {
                ids.insert(id);
                true
            });
        }
        map
    });
    assert_eq!(map.iter().count(), keys.len());
    let per_key = live / keys.len() as i64;
    println!("20 000 keys loaded in order: {per_key} B live per key");
    assert!(per_key <= 48, "an in-order load holds {per_key} B per key");
}

/// A value whose text fits in its 32 bytes — up to 29 of them, 21 beside
/// an integer — is built from a borrowed `str` without an allocation,
/// whether or not it is in normal form; longer text is one allocation in
/// normal form and two otherwise (the normal form built, then the shared
/// string).
#[test]
fn a_short_value_allocates_nothing() {
    let cases: [(&str, u64); 8] = [
        ("555-00042", 0),
        ("100042", 0),
        ("John  Doe", 0),
        ("p42@us.xyz.com", 0),
        ("a.rather.long.address@us.xyz.com", 1),
        ("A.Rather.Long.Address@us.xyz.com", 2),
        ("000000000000000000000000000007", 1),
        ("CN=Everyone, OU=Groups, O=xyz", 2),
    ];
    for (raw, expected) in cases {
        let (value, allocations) = allocations_of(|| AttrValue::new(raw));
        assert_eq!(value.raw(), raw);
        assert_eq!(allocations, expected, "AttrValue::new({raw:?})");
        let (_, allocations) = allocations_of(|| AttrValue::from(raw));
        assert_eq!(allocations, expected, "AttrValue::from({raw:?})");
    }
}

/// An entry is one pointer: a clone is one more handle on the one body
/// and allocates nothing (a clone bumped the DN's refcount and the
/// slice's while the handle held both).
#[test]
fn a_clone_is_one_refcount() {
    assert_eq!(std::mem::size_of::<Entry>(), std::mem::size_of::<usize>());
    let one = person(0);
    assert_eq!(one.body_handles(), 1);
    let (twin, live, allocations) = live_and_allocations_of(|| one.clone());
    assert_eq!((live, allocations), (0, 0), "a clone allocated");
    assert_eq!((one.body_handles(), twin.body_handles()), (2, 2));
    assert_eq!(twin, one);
    drop(twin);
    assert_eq!(one.body_handles(), 1);
}

#[test]
fn a_held_entry_is_the_bytes_of_its_index() {
    let mut master = master_of(2_000);
    let everyone = query("(objectclass=inetOrgPerson)");
    // Asked once before: the master's first search of an attribute lists
    // it (DESIGN §9, *What the index keeps*), which is the master's heap,
    // not the replica's.
    master.dit().search(&everyone);
    let (replica, live, allocations) = live_and_allocations_of(|| {
        let replica = FilterReplica::new(0);
        replica.install_filter(&mut master, everyone).expect("install");
        replica
    });
    assert_eq!(replica.entry_count(), 2_000);
    let (per_entry, allocations) = (live / 2_000, allocations / 2_000);
    println!("a replica holding 2 000 people: {per_entry} B live in {allocations} allocations per held entry");
    // The bodies are the master's, shared. What an install adds per held
    // entry is mostly index: five of a person's values are the person's
    // alone, and their keys hold the id inline in the map node (885 B in
    // 11 allocations while each of those keys had a list on the heap).
    assert!(per_entry <= 800, "a held entry costs {per_entry} B");
    assert!(allocations <= 2, "a held entry costs {allocations} allocations");
}

#[test]
fn a_large_attribute_grows_in_place() {
    let mut group = Entry::new(dn("cn=everyone,o=xyz"));
    let (_, allocated) = bytes_of(|| {
        for i in 0..10_000 {
            group.add("member", format!("uid={i:05},o=xyz"));
        }
    });
    let held = {
        let before = live_bytes();
        let twin = deep_copy(&group);
        let held = live_bytes() - before;
        drop(twin);
        held as u64
    };
    println!("10 000 adds: {allocated} B allocated for an attribute of {held} B");
    assert_eq!(group.values(&"member".into()).count(), 10_000);
    // A fresh list per add would be 10 000 lists: 2 GB.
    assert!(allocated <= 4 * held, "10 000 adds allocated {allocated} B for {held} B");
}

/// `e` again, sharing nothing with it.
fn deep_copy(e: &Entry) -> Entry {
    let mut copy = Entry::new(e.dn().clone());
    for (a, vs) in e.attrs() {
        copy.replace(a.clone(), vs.iter().map(|v| v.raw().to_owned()));
    }
    copy
}

/// How far the thread's live heap moves over 100 000 single-value
/// `Replace`s on a master of 1 000 people with `sessions` polled sessions,
/// and what one person's body weighs. The stream swaps everyone's `mail`
/// between two spellings, pass by pass, so both readings are taken with
/// the directory in the same state: after two passes that size every
/// list, map and ledger, and after a hundred more. Before each reading
/// every session is polled twice (the second poll acknowledges the first
/// and leaves the session nothing unacknowledged).
fn heap_drift_over_100k_replaces(sessions: usize) -> (i64, i64) {
    let before = live_bytes();
    let body = {
        let one = person(0);
        let held = live_bytes() - before;
        drop(one);
        held
    };
    let mut master = master_of(1_000);
    let requests: Vec<SearchRequest> =
        (0..sessions).map(|d| query(&format!("(departmentNumber={d})"))).collect();
    let mut cookies: Vec<Cookie> = requests
        .iter()
        .map(|r| master.resync(r, ReSyncControl::poll(None)).expect("install").cookie.expect("cookie"))
        .collect();
    let passes = |master: &mut SyncMaster, cookies: &mut Vec<Cookie>, n: usize| {
        for pass in 0..n {
            for i in 0..1_000 {
                let mail = format!("p{i}@{}.xyz.com", if pass % 2 == 0 { "eu" } else { "us" });
                master
                    .apply(UpdateOp::Modify {
                        dn: dn(&format!("cn=p{i:05},c=us,o=xyz")),
                        mods: vec![Modification::Replace("mail".into(), vec![mail.into()])],
                    })
                    .expect("modify");
            }
        }
        for _ in 0..2 {
            for (request, cookie) in requests.iter().zip(cookies.iter_mut()) {
                let resp = master.resync(request, ReSyncControl::poll(Some(*cookie))).expect("poll");
                *cookie = resp.cookie.expect("cookie");
            }
        }
        live_bytes()
    };
    let sized = passes(&mut master, &mut cookies, 2);
    let after = passes(&mut master, &mut cookies, 100);
    assert_eq!(master.ops_applied(), 102_000);
    assert_eq!(master.session_count(), sessions);
    (after - sized, body)
}

#[test]
fn a_master_under_100k_updates_keeps_its_heap_where_it_was() {
    for sessions in [0, 50] {
        let (drift, body) = heap_drift_over_100k_replaces(sessions);
        println!("{sessions} sessions: live heap moved {drift} B over 100 000 replaces (one entry body: {body} B)");
        // A few nodes of the index's B-trees — 456 B a leaf of eleven
        // text keys and postings, and a tree's shape depends on the order
        // its keys came in; a log would be 100 000 records.
        assert!(drift.abs() <= 8 * 456, "{sessions} sessions: live heap moved {drift} B");
    }
}
