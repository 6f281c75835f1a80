//! The four workloads: what is loaded, what is replicated, and the seeded
//! stream of queries and updates each pass replays.
//!
//! Everything here runs once per benchmark run, before the first pass, and
//! is excluded from every timing except `workload.gen_s` and
//! `selection.select_s`.
//!
//! The *deployment* is fixed: the directory, its update log, the trace the
//! selector was trained on and hence the replicated regions are generated
//! from [`DEPLOYMENT_SEED`]. `--seed` drives the client traffic: the warm-up
//! and measured queries. (With everything on `--seed`, the handful of
//! updates that happen to land in a replicated region is a small Poisson
//! count, and `wire_bytes_per_update` alone moved by a third between seeds.)
//!
//! Sizes are pinned here, in [`Sizes::of`]: one pass replays the same number
//! of operations on every machine, so counts, bytes and ratios repeat
//! exactly for a given seed.

use fbdr_core::experiment::select_static_filters;
use fbdr_dit::UpdateOp;
use fbdr_ldap::{Dn, Entry, Filter, SearchRequest};
use fbdr_resync::{ShardId, ShardMap};
use fbdr_selection::generalize::{ConstantRegion, Generalizer, ValuePrefix, WidenToPresence};
use fbdr_workload::{
    DirectoryConfig, EnterpriseDirectory, TraceConfig, TraceGenerator, TracedQuery, UpdateConfig,
    UpdateGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Workload names, in the order they are run and reported.
pub const WORKLOADS: [&str; 4] = [
    "sec7_mix",
    "filters400_scatter",
    "update_storm",
    "range_sharded",
];

/// Seed of everything that is deployment rather than traffic.
const DEPLOYMENT_SEED: u64 = 0xD1EC7;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x7ACE;

/// Stream slices per pass; `ops_per_s` sums each slice's quiet wall time.
pub const SLICES: usize = 20;

/// The replica is brought to a quiescent point and its content checked
/// against the master after every this many slices (and at the end).
pub const SLICES_PER_CHECKPOINT: usize = 10;

/// Recent-query cache window of the measured replica, as in §7.4.
pub const CACHE_WINDOW: usize = 32;

/// Seconds of `--seconds` that buy one pass: 7 passes at the pinned
/// `run_seconds` of 28. A pass takes 3.5–5 s on the reference runner.
pub const SECONDS_PER_PASS: f64 = 4.0;

/// How updates reach the measured replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Persist sessions, `NotifyPolicy::immediate`, a drain right after
    /// each update.
    PersistImmediate,
    /// Persist sessions, `NotifyPolicy::coalescing(max_batch, max_delay_ms)`,
    /// the master clock ticked 1 ms per operation, flush-when-due then drain
    /// after each update.
    PersistCoalesced {
        /// Raw updates per session that force a flush.
        max_batch: u64,
        /// Master milliseconds (= stream operations) the oldest queued
        /// update may wait.
        max_delay_ms: u64,
    },
    /// Poll sessions, one sync cycle every `every_queries` queries.
    Poll {
        /// Queries between sync cycles.
        every_queries: usize,
    },
}

/// One operation of the measured stream (an index into the fixture's
/// `queries` or `updates`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `queries[i]` is answered by the replica, or forwarded on a miss.
    Query(u32),
    /// `updates[i]` is applied at the master and delivered per [`Delivery`].
    Update(u32),
}

/// Pinned per-workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Queries in the measured stream of one pass.
    pub queries: usize,
    /// Queries replayed during set-up to fill caches (not measured).
    pub warmup: usize,
    /// Queries the selector is trained on (fixture side, never replayed).
    pub train: usize,
    /// Updates in the measured stream of one pass.
    pub updates: usize,
}

impl Sizes {
    /// The pinned sizes of a workload; `smoke` shrinks them for a quick
    /// functional check whose numbers mean nothing.
    pub fn of(workload: &str, smoke: bool) -> Option<Sizes> {
        let s = match workload {
            "sec7_mix" => Sizes {
                queries: 32_000,
                warmup: 2_000,
                train: 30_000,
                updates: 2_000,
            },
            "filters400_scatter" => Sizes {
                queries: 12_800,
                warmup: 1_000,
                train: 40_000,
                updates: 3_200,
            },
            "update_storm" => Sizes {
                queries: 3_000,
                warmup: 250,
                train: 0,
                updates: 10_000,
            },
            "range_sharded" => Sizes {
                queries: 1_400,
                warmup: 200,
                train: 0,
                updates: 1_400,
            },
            _ => return None,
        };
        Some(if smoke {
            Sizes {
                queries: s.queries / 8,
                warmup: s.warmup / 8,
                train: s.train / 8,
                updates: s.updates / 8,
            }
        } else {
            s
        })
    }
}

/// Everything a pass needs, generated once.
pub struct Fixture {
    /// The master's initial content, parents before children.
    pub entries: Vec<Entry>,
    /// `Some` puts the master behind a `ShardedMaster` with this map.
    pub shard_map: Option<ShardMap>,
    /// Stored filters of the measured replica, in install order.
    pub filters: Vec<SearchRequest>,
    /// Persist sessions other replicas hold at the master; the harness keeps
    /// their receivers and empties them.
    pub background: Vec<SearchRequest>,
    /// How updates reach the measured replica.
    pub delivery: Delivery,
    /// Warm-up queries (set-up).
    pub warmup: Vec<SearchRequest>,
    /// Measured queries.
    pub queries: Vec<SearchRequest>,
    /// Measured updates, valid when applied in order.
    pub updates: Vec<UpdateOp>,
    /// The measured stream.
    pub schedule: Vec<Op>,
    /// Generalizers the selection layer would run on this traffic (for
    /// `selection.observe_ns_p50`).
    pub generalizers: fn() -> Vec<Box<dyn Generalizer + Send>>,
    /// Seconds spent generating directory, trace and updates.
    pub gen_s: f64,
    /// Seconds spent training the selector and selecting filters.
    pub select_s: f64,
}

fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn root_query(filter: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(filter).expect("fixture filters are well formed"))
}

fn requests(trace: &[TracedQuery]) -> Vec<SearchRequest> {
    trace.iter().map(|q| q.request.clone()).collect()
}

/// Interleaves `queries` queries and `updates` updates evenly: update `u`
/// sits at position (u + ½) · total ÷ updates of the stream.
fn interleave(queries: usize, updates: usize) -> Vec<Op> {
    let total = queries + updates;
    let mut out = Vec::with_capacity(total);
    let (mut q, mut u) = (0usize, 0usize);
    for k in 0..total {
        let update_due = u < updates && 2 * k * updates >= (2 * u + 1) * total;
        if update_due || q == queries {
            out.push(Op::Update(u as u32));
            u += 1;
        } else {
            out.push(Op::Query(q as u32));
            q += 1;
        }
    }
    out
}

fn serial_dept_location_generalizers() -> Vec<Box<dyn Generalizer + Send>> {
    vec![
        Box::new(ValuePrefix::new("serialNumber", vec![4, 3])),
        Box::new(WidenToPresence::new("dept")),
        Box::new(ConstantRegion::new("location", root_query("(location=*)"))),
    ]
}

fn fine_serial_generalizers() -> Vec<Box<dyn Generalizer + Send>> {
    vec![Box::new(ValuePrefix::new("serialNumber", vec![5]))]
}

fn no_generalizers() -> Vec<Box<dyn Generalizer + Send>> {
    Vec::new()
}

fn updates_for(dir: &EnterpriseDirectory, ops: usize, p_dept_change: f64) -> Vec<UpdateOp> {
    UpdateGenerator::new(dir).generate(&UpdateConfig {
        seed: splitmix(DEPLOYMENT_SEED, 2),
        ops,
        p_dept_change,
        ..UpdateConfig::default()
    })
}

impl Fixture {
    /// Builds the named workload's fixture from `seed`.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Fixture> {
        let sizes = Sizes::of(name, smoke)?;
        let started = Instant::now();
        let dir = EnterpriseDirectory::generate(DirectoryConfig::default());
        let mut fx = match name {
            "sec7_mix" => sec7_mix(&dir, seed, sizes),
            "filters400_scatter" => filters400_scatter(&dir, seed, sizes),
            "update_storm" => update_storm(&dir, seed, sizes),
            "range_sharded" => range_sharded(&dir, seed, sizes),
            _ => return None,
        };
        fx.entries = dir.dit().iter().cloned().collect();
        fx.gen_s = started.elapsed().as_secs_f64() - fx.select_s;
        Some(fx)
    }

    fn empty() -> Fixture {
        Fixture {
            entries: Vec::new(),
            shard_map: None,
            filters: Vec::new(),
            background: Vec::new(),
            delivery: Delivery::PersistImmediate,
            warmup: Vec::new(),
            queries: Vec::new(),
            updates: Vec::new(),
            schedule: Vec::new(),
            generalizers: no_generalizers,
            gen_s: 0.0,
            select_s: 0.0,
        }
    }
}

/// The paper's §7 day-2 replay: Table 1 mix with Zipf + temporal locality,
/// filters chosen by the selector from day 1, persist mode.
fn sec7_mix(dir: &EnterpriseDirectory, seed: u64, sizes: Sizes) -> Fixture {
    const STORED_FILTERS: usize = 48;
    let trace = |seed: u64, queries: usize| {
        let cfg = TraceConfig {
            seed,
            queries,
            ..TraceConfig::default()
        };
        TraceGenerator::new(dir, &cfg).generate(dir, &cfg)
    };
    let day1 = trace(splitmix(DEPLOYMENT_SEED, 1), sizes.train);
    let mut warmup = trace(splitmix(seed, 1), sizes.warmup + sizes.queries);
    let day2 = warmup.split_off(sizes.warmup);

    let select_started = Instant::now();
    let mut filters = select_static_filters(
        dir.dit(),
        &day1,
        serial_dept_location_generalizers(),
        dir.employee_count() / 5,
    );
    filters.truncate(STORED_FILTERS);
    let select_s = select_started.elapsed().as_secs_f64();

    Fixture {
        filters,
        delivery: Delivery::PersistImmediate,
        warmup: requests(&warmup),
        queries: requests(&day2),
        updates: updates_for(dir, sizes.updates, UpdateConfig::default().p_dept_change),
        schedule: interleave(sizes.queries, sizes.updates),
        generalizers: serial_dept_location_generalizers,
        select_s,
        ..Fixture::empty()
    }
}

/// 400 fine-grained stored filters under near-uniform point lookups: the
/// containment scan and `PreparedQuery::new` do most of the work.
fn filters400_scatter(dir: &EnterpriseDirectory, seed: u64, sizes: Sizes) -> Fixture {
    const STORED_FILTERS: usize = 400;
    let trace = |seed: u64, queries: usize| {
        let cfg = TraceConfig {
            seed,
            queries,
            // 70 / 30 rather than Table 1's 58 / 24: the median miss must sit
            // well inside the serial-number mode, not on the step between
            // the two templates' costs.
            mix: [0.7, 0.3, 0.0, 0.0],
            person_zipf: 0.1,
            geography_bias: 0.3,
            temporal_locality: 0.0,
            scattered_popularity: 0.0,
            dept_drift_period: 0,
            ..TraceConfig::default()
        };
        TraceGenerator::new(dir, &cfg).generate(dir, &cfg)
    };
    let train = trace(splitmix(DEPLOYMENT_SEED, 1), sizes.train);
    let mut warmup = trace(splitmix(seed, 1), sizes.warmup + sizes.queries);
    let measured = warmup.split_off(sizes.warmup);

    let select_started = Instant::now();
    let mut filters = select_static_filters(
        dir.dit(),
        &train,
        fine_serial_generalizers(),
        dir.employee_count(),
    );
    filters.truncate(STORED_FILTERS);
    let select_s = select_started.elapsed().as_secs_f64();

    Fixture {
        filters,
        delivery: Delivery::Poll {
            every_queries: 2_000,
        },
        warmup: requests(&warmup),
        queries: requests(&measured),
        updates: updates_for(dir, sizes.updates, UpdateConfig::default().p_dept_change),
        schedule: interleave(sizes.queries, sizes.updates),
        generalizers: fine_serial_generalizers,
        select_s,
        ..Fixture::empty()
    }
}

fn dept_query(dept: &str) -> SearchRequest {
    root_query(&format!("(departmentNumber={dept})"))
}

/// Writes beside reads: every department has a live persist session at the
/// master, 64 of them on the measured replica.
fn update_storm(dir: &EnterpriseDirectory, seed: u64, sizes: Sizes) -> Fixture {
    const MEASURED_SESSIONS: usize = 16;
    /// Share of queries aimed at a department the measured replica holds.
    const REPLICATED_QUERY_SHARE: f64 = 0.8;
    let mut deployment = StdRng::seed_from_u64(splitmix(DEPLOYMENT_SEED, 1));
    let mut depts: Vec<&str> = dir.departments().iter().map(|(d, _)| d.as_str()).collect();
    shuffle(&mut depts, &mut deployment);
    let (held, others) = depts.split_at(MEASURED_SESSIONS.min(depts.len()));
    let mut rng = StdRng::seed_from_u64(splitmix(seed, 1));
    let mut draw = |n: usize| -> Vec<SearchRequest> {
        (0..n)
            .map(|_| {
                let pool = if rng.gen::<f64>() < REPLICATED_QUERY_SHARE {
                    held
                } else {
                    others
                };
                dept_query(pool[rng.gen_range(0..pool.len())])
            })
            .collect()
    };
    let warmup = draw(sizes.warmup);
    let queries = draw(sizes.queries);
    Fixture {
        filters: held.iter().map(|d| dept_query(d)).collect(),
        background: others.iter().map(|d| dept_query(d)).collect(),
        delivery: Delivery::PersistCoalesced {
            max_batch: 32,
            max_delay_ms: 50,
        },
        warmup,
        queries,
        updates: updates_for(dir, sizes.updates, 0.5),
        schedule: interleave(sizes.queries, sizes.updates),
        ..Fixture::empty()
    }
}

/// Broad regions behind a 4-shard master: planning, intersecting, verifying
/// and cloning entries dominate a hit, shard fan-out a miss.
fn range_sharded(dir: &EnterpriseDirectory, seed: u64, sizes: Sizes) -> Fixture {
    const SHARDS: u16 = 4;
    const SERIAL_REGIONS: usize = 10;
    const DIVISION_REGIONS: usize = 5;
    let mut deployment = StdRng::seed_from_u64(splitmix(DEPLOYMENT_SEED, 1));

    // Countries are dealt to shards largest first, each to the lightest
    // shard so far; divisions, locations and the root stay on shard 0.
    let mut map = ShardMap::new(ShardId::ZERO);
    let mut load = [0usize; SHARDS as usize];
    let mut countries: Vec<&(String, usize)> = dir.countries().iter().collect();
    countries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (cc, size) in countries {
        let shard = (0..SHARDS as usize)
            .min_by_key(|&s| (load[s], s))
            .expect("SHARDS > 0");
        load[shard] += size;
        let suffix: Dn = format!("c={cc},o=xyz").parse().expect("country dn");
        map.assign(suffix, ShardId::new(shard as u16));
    }

    // Serial numbers run 100000..; a 3-digit prefix is a block of 1000.
    let blocks = dir.employee_count().div_ceil(1000);
    let mut serial_blocks: Vec<usize> = (0..blocks).collect();
    shuffle(&mut serial_blocks, &mut deployment);
    let mut divisions: Vec<String> = dir
        .departments()
        .iter()
        .map(|(_, div)| div.clone())
        .collect();
    divisions.dedup();
    shuffle(&mut divisions, &mut deployment);
    let mut filters: Vec<SearchRequest> = serial_blocks
        .iter()
        .take(SERIAL_REGIONS)
        .map(|b| root_query(&format!("(serialNumber={}*)", 100 + b)))
        .collect();
    filters.extend(
        divisions
            .iter()
            .take(DIVISION_REGIONS)
            .map(|d| root_query(&format!("(division={d})"))),
    );

    // Traffic by quota, not by coin: per 100 queries exactly 24 points, 14 /
    // 23 / 5 blocks of 10 / 100 / 1000 serials and 34 department-in-division
    // queries, and within each kind every second query aims inside a
    // replicated region. The seed orders the kinds and picks the targets.
    // (Drawn freely, the count of 5 ms thousand-entry hits alone moved
    // `ops_per_s` by 14 % between seeds.) Ordered by cost a hit is ≈ 25 %
    // points, 15 % blocks of 10, 30 % departments, then the big blocks: the
    // median hit sits inside the department mode, not on a step.
    const KINDS: [(usize, usize); 5] = [(0, 24), (1, 14), (2, 23), (3, 5), (4, 34)];
    let held_blocks: Vec<usize> = serial_blocks.iter().take(SERIAL_REGIONS).copied().collect();
    let held_divisions = &divisions[..DIVISION_REGIONS.min(divisions.len())];
    let block_of = |serial: &str| serial[..3].parse::<usize>().expect("numeric serial") - 100;
    let (people_in, people_out): (Vec<_>, Vec<_>) = dir
        .employees()
        .iter()
        .partition(|e| held_blocks.contains(&block_of(&e.serial)));
    let (depts_in, depts_out): (Vec<_>, Vec<_>) = dir
        .departments()
        .iter()
        .partition(|(_, div)| held_divisions.contains(div));
    let mut rng = StdRng::seed_from_u64(splitmix(seed, 1));
    let mut issued = [0usize; KINDS.len()];
    let mut draw = |n: usize| -> Vec<SearchRequest> {
        let mut kinds: Vec<usize> = KINDS
            .iter()
            .flat_map(|&(kind, per_100)| std::iter::repeat_n(kind, per_100))
            .cycle()
            .take(n)
            .collect();
        shuffle(&mut kinds, &mut rng);
        kinds
            .into_iter()
            .map(|kind| {
                let inside = issued[kind] % 2 == 0;
                issued[kind] += 1;
                if kind == 4 {
                    let pool = if inside { &depts_in } else { &depts_out };
                    let (dept, div) = pool[rng.gen_range(0..pool.len())];
                    return root_query(&format!("(&(departmentNumber={dept})(division={div}))"));
                }
                let pool = if inside { &people_in } else { &people_out };
                let serial = &pool[rng.gen_range(0..pool.len())].serial;
                match kind {
                    0 => root_query(&format!("(serialNumber={serial})")),
                    1 => root_query(&format!("(serialNumber={}*)", &serial[..5])),
                    2 => root_query(&format!("(serialNumber={}*)", &serial[..4])),
                    _ => root_query(&format!("(serialNumber={}*)", &serial[..3])),
                }
            })
            .collect()
    };
    let warmup = draw(sizes.warmup);
    let queries = draw(sizes.queries);
    Fixture {
        shard_map: Some(map),
        filters,
        delivery: Delivery::Poll { every_queries: 250 },
        warmup,
        queries,
        updates: updates_for(dir, sizes.updates, UpdateConfig::default().p_dept_change),
        schedule: interleave(sizes.queries, sizes.updates),
        ..Fixture::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_spreads_the_rarer_kind_evenly() {
        let s = interleave(16, 1);
        assert_eq!(s.len(), 17);
        assert_eq!(s.iter().filter(|o| matches!(o, Op::Update(_))).count(), 1);
        let s = interleave(2, 8);
        assert_eq!(s.iter().filter(|o| matches!(o, Op::Query(_))).count(), 2);
        // Indices are dense and in order within each kind.
        let qs: Vec<u32> = s
            .iter()
            .filter_map(|o| if let Op::Query(i) = o { Some(*i) } else { None })
            .collect();
        assert_eq!(qs, vec![0, 1]);
        let us: Vec<u32> = s
            .iter()
            .filter_map(|o| {
                if let Op::Update(i) = o {
                    Some(*i)
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(us, (0..8).collect::<Vec<u32>>());
        // No long run of one kind at either end.
        let s = interleave(64, 4);
        let first_update = s.iter().position(|o| matches!(o, Op::Update(_))).unwrap();
        assert!(first_update <= 17, "first update at {first_update}");
        assert!(interleave(0, 3).len() == 3 && interleave(3, 0).len() == 3);
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        let a = Fixture::build("update_storm", 1, true).unwrap();
        let b = Fixture::build("update_storm", 1, true).unwrap();
        let c = Fixture::build("update_storm", 2, true).unwrap();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.filters, b.filters);
        assert_ne!(a.queries, c.queries);
        assert_eq!(a.filters.len(), 16);
        assert_eq!(a.background.len(), 464);
        assert!(Fixture::build("nope", 1, true).is_none());
    }
}
