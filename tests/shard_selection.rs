//! Filter selection does not see the shard count.
//!
//! One directory — on a single `SyncMaster`, and partitioned by country
//! over 3 and over 4 master shards — is driven through the one
//! [`Replicator`] with the same trace — queries
//! with updates and sync cycles interleaved — once under the periodic
//! configuration of [`FilterSelector`] and once under a budgeted online
//! one. Every
//! observable must be the same at every shard count: who served each
//! query, the hit statistics, the stored-filter set, the selector's moves
//! and the traffic they cost; and every answer must be the master's.
//!
//! The root entry `o=xyz` is *glue*: every shard holds a copy so parents
//! exist for adds, one shard owns it. It carries a serial number inside
//! the hottest region, and the entry budget fits that region exactly, so
//! a size estimate that counts glue once per shard holding it no longer
//! fits and the runs diverge.

use fbdr::prelude::*;
use fbdr::resync::{ShardId, ShardMap, ShardedMaster};
use fbdr::selection::generalize::{Generalizer, ValuePrefix};

const COUNTRIES: usize = 4;
/// People per serial region `040r**`; region 0 also holds the glue entry.
const REGION_PEOPLE: usize = 12;
const REGIONS: usize = 4;
/// Fits region 0 (its people and `o=xyz`) and nothing more.
const BUDGET: usize = REGION_PEOPLE + 1;

fn dn(s: &str) -> Dn {
    s.parse().expect("valid dn")
}

fn person_dn(region: usize, i: usize) -> Dn {
    dn(&format!("cn=r{region}p{i:02},c=s{},o=xyz", i % COUNTRIES))
}

fn person(region: usize, i: usize) -> Entry {
    Entry::new(person_dn(region, i))
        .with("objectclass", "person")
        .with("serialNumber", &format!("040{region}{i:02}"))
}

/// The directory, parents first.
fn directory() -> Vec<Entry> {
    let mut out = vec![Entry::new(dn("o=xyz"))
        .with("objectclass", "organization")
        .with("serialNumber", "040099")];
    for c in 0..COUNTRIES {
        out.push(Entry::new(dn(&format!("c=s{c},o=xyz"))).with("objectclass", "country"));
    }
    for region in 0..REGIONS {
        out.extend((0..REGION_PEOPLE).map(|i| person(region, i)));
    }
    out
}

/// The whole directory on one master: the one-shard deployment.
fn unsharded() -> SyncMaster {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix(dn("o=xyz"));
    for e in directory() {
        master.dit_mut().add(e).expect("entry");
    }
    master
}

/// Country `c` on shard `c % shards`; each shard holds the glue entry and
/// the entries it owns.
fn sharded(shards: usize) -> ShardedMaster {
    let mut map = ShardMap::new(ShardId::ZERO);
    for c in 0..COUNTRIES {
        let shard = ShardId::new(u16::try_from(c % shards).expect("fits"));
        map.assign(dn(&format!("c=s{c},o=xyz")), shard);
    }
    let mut master = ShardedMaster::new(map.clone());
    let mut owned = directory();
    let glue = owned.remove(0);
    for shard in map.shards() {
        let dit = master.shard_mut(shard).dit_mut();
        dit.add_suffix(glue.dn().clone());
        dit.add(glue.clone()).expect("glue");
    }
    for e in owned {
        master.shard_mut(map.shard_of(e.dn())).dit_mut().add(e).expect("owned entry");
    }
    master
}

fn point(region: usize, i: usize) -> SearchRequest {
    let f = Filter::parse(&format!("(serialNumber=040{region}{i:02})")).expect("filter");
    SearchRequest::from_root(f)
}

enum Step {
    Query(SearchRequest),
    Update(UpdateOp),
    Sync,
}

/// Four phases, each with its own hot region (0, 2, 0, 3), a sprinkle of
/// queries elsewhere — one in ten scoped to a country — an update every
/// fifth query and a sync every twentieth.
fn trace() -> Vec<Step> {
    let mut steps = Vec::new();
    let mut n = 0usize;
    for (phase, hot) in [0usize, 2, 0, 3].into_iter().enumerate() {
        for i in 0..60 {
            n += 1;
            let region = if i % 6 == 5 { (hot + 1) % REGIONS } else { hot };
            let who = (i * 7 + phase) % REGION_PEOPLE;
            let mut q = point(region, who);
            if n % 10 == 0 {
                let base = dn(&format!("c=s{},o=xyz", who % COUNTRIES));
                q = SearchRequest::new(base, Scope::Subtree, q.filter().clone());
            }
            // The glue entry is an answer too.
            steps.push(Step::Query(if n % 45 == 0 { point(0, 99) } else { q }));
            if n % 5 == 0 {
                steps.push(Step::Update(update(n / 5)));
            }
            if n % 20 == 0 {
                steps.push(Step::Sync);
            }
        }
    }
    steps
}

/// The `k`-th update: mail changes inside the regions, on the glue entry
/// every eighth time, and three entries added to region 3 — which then
/// does not fit the budget — and deleted again about when it turns hot.
fn update(k: usize) -> UpdateOp {
    let replace_mail = |target: Dn| UpdateOp::Modify {
        dn: target,
        mods: vec![Modification::Replace("mail".into(), vec![format!("m{k}@xyz").into()])],
    };
    match k % 8 {
        0 => replace_mail(dn("o=xyz")),
        3 if k < 24 => UpdateOp::Add(
            Entry::new(dn(&format!("cn=new{k},c=s{},o=xyz", k % COUNTRIES)))
                .with("objectclass", "person")
                .with("serialNumber", &format!("04039{k:02}")),
        ),
        3 => UpdateOp::Delete(dn(&format!("cn=new{},c=s{},o=xyz", k - 24, (k - 24) % COUNTRIES))),
        _ => replace_mail(person_dn(k % REGIONS, (k * 5) % REGION_PEOPLE)),
    }
}

/// Everything a run shows.
#[derive(Debug, PartialEq)]
struct Observed {
    served: Vec<ServedBy>,
    stats: fbdr::replica::ReplicaStats,
    stored: Vec<String>,
    revolutions: u64,
    moves: u64,
    wan_queries: u64,
    install_entries: u64,
    resync_entries: u64,
}

fn dns(entries: &[Entry]) -> Vec<String> {
    let mut out: Vec<String> = entries.iter().map(|e| e.dn().to_string()).collect();
    out.sort();
    out
}

fn run(mut r: Replicator) -> Observed {
    let mut served = Vec::new();
    for step in trace() {
        match step {
            Step::Query(q) => {
                let (got, by) = r.search(&q);
                assert_eq!(dns(&got), dns(&r.master().search(&q)), "answer to {q}");
                served.push(by);
            }
            Step::Update(op) => drop(r.apply_update(op).expect("update")),
            Step::Sync => drop(r.sync().expect("sync")),
        }
    }
    let mut stored: Vec<String> = r.replica().filters().map(|(f, _)| f.to_string()).collect();
    stored.sort();
    let report = r.report();
    Observed {
        served,
        stats: r.stats(),
        stored,
        revolutions: report.revolutions,
        moves: report.moves,
        wan_queries: report.wan_queries,
        install_entries: report.revolution_traffic.full_entries,
        resync_entries: report.resync_traffic.full_entries,
    }
}

fn gens() -> Vec<Box<dyn Generalizer + Send>> {
    vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))]
}

/// The same run at 1, 3 and 4 shards; returns the one-shard observation.
fn same_at_every_shard_count(attach: impl Fn(Replicator) -> Replicator) -> Observed {
    let one = run(attach(Replicator::new(unsharded(), 4)));
    for shards in [3, 4] {
        let many = run(attach(Replicator::new(sharded(shards), 4)));
        assert_eq!(many, one, "{shards} shards vs one");
    }
    one
}

#[test]
fn periodic_selection_is_the_same_on_one_and_many_shards() {
    let seen = same_at_every_shard_count(|r| {
        r.with_selector(FilterSelector::new(
            SelectorConfig { revolution_interval: 30, entry_budget: BUDGET, max_candidates: 64 },
            gens(),
        ))
    });
    assert_eq!(seen.revolutions, 8);
    assert!(seen.stats.generalized_hits > 100, "{seen:?}");
    assert!(seen.install_entries >= 3 * REGION_PEOPLE as u64, "the hot region moved: {seen:?}");
    assert!(seen.resync_entries > 0, "{seen:?}");
}

#[test]
fn online_selection_is_the_same_on_one_and_many_shards() {
    let seen = same_at_every_shard_count(|r| {
        r.with_selector(FilterSelector::new(
            StepConfig {
                entry_budget: BUDGET,
                step_every: 10,
                move_budget: 2,
                decay: 0.5,
                min_dwell_steps: 1,
                ..StepConfig::default()
            },
            gens(),
        ))
    });
    assert!(seen.moves >= 4, "the hot region moved: {seen:?}");
    assert!(seen.stats.generalized_hits > 100, "{seen:?}");
    assert!(seen.resync_entries > 0, "{seen:?}");
}
