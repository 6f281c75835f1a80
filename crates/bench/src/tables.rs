//! Table 1, the §7.2(c) "other queries" analysis, the §5.2 sync-traffic
//! ablation and the §7.4 processing-overhead study.

use crate::baseline::{
    ChangelogSync, FullReload, NaiveChangelogSync, RetainSync, Synchronizer, TombstoneSync,
};
use crate::experiment::{replay_filter, ReplayConfig};
use crate::history::History;
use crate::setup::Params;
use fbdr_containment::filter_contained;
use fbdr_core::Replicator;
use fbdr_ldap::{Filter, Scope, SearchRequest};
use fbdr_resync::{divergence, ReSyncControl, ReplicaContent, SyncMaster, SyncTraffic};
use fbdr_selection::generalize::{ConstantRegion, Generalizer, ValuePrefix};
use fbdr_selection::{FilterSelector, SelectorConfig};
use fbdr_workload::{distribution, QueryKind, TracedQuery, UpdateConfig, UpdateGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Table 1: expected vs measured workload distribution.
pub fn table1(params: &Params) -> Vec<(String, f64, f64)> {
    let dir = params.directory();
    let (day1, _) = params.two_days(&dir);
    let dist = distribution(&day1);
    QueryKind::TABLE1
        .iter()
        .zip(dist)
        .map(|((kind, expected), (_, measured))| {
            (kind.template().to_owned(), *expected, measured)
        })
        .collect()
}

/// One row of the §7.2(c) analysis.
#[derive(Debug, Clone)]
pub struct OtherQueriesRow {
    /// Query type analysed.
    pub kind: String,
    /// Stored filters used.
    pub stored_filters: usize,
    /// Replica entries used.
    pub replica_entries: usize,
    /// Achieved hit ratio for that query type.
    pub hit_ratio: f64,
    /// Commentary matching the paper's finding.
    pub note: &'static str,
}

/// §7.2(c): mail queries generalize poorly (the user part is not
/// organized); the whole location tree is replicated for a hit ratio of
/// 1 at negligible size.
pub fn other_queries(params: &Params) -> Vec<OtherQueriesRow> {
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    let mut rows = Vec::new();
    let no_updates = ReplayConfig { sync_every: 0, update_every: 0 };
    let k = *params.filter_counts.last().expect("non-empty sweep");

    // Serial baseline: same number of filters, for contrast.
    for (kind, gens, note) in [
        (
            QueryKind::SerialNumber,
            vec![Box::new(ValuePrefix::new("serialNumber", vec![5, 4])) as Box<dyn Generalizer + Send>],
            "organized values -> prefixes capture hot regions",
        ),
        (
            QueryKind::Mail,
            vec![Box::new(ValuePrefix::new("mail", vec![6, 4, 3])) as Box<dyn Generalizer + Send>],
            "user part unorganized -> prefixes capture noise",
        ),
    ] {
        let day1k: Vec<TracedQuery> = day1.iter().filter(|q| q.kind == kind).cloned().collect();
        let day2k: Vec<TracedQuery> = day2.iter().filter(|q| q.kind == kind).cloned().collect();
        let mut selector = FilterSelector::new(
            SelectorConfig {
                revolution_interval: u64::MAX,
                entry_budget: usize::MAX,
                max_candidates: 1 << 20,
            },
            gens,
        );
        for tq in &day1k {
            selector.observe(&tq.request);
        }
        let ranked = selector.ranked_candidates(dir.dit());
        let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
        for f in ranked.into_iter().take(k) {
            repl.install_filter(f).expect("fresh master accepts filters");
        }
        let stored = repl.replica().filter_count();
        let entries = repl.replica().entry_count();
        let out = replay_filter(&mut repl, &day2k, &[], no_updates);
        rows.push(OtherQueriesRow {
            kind: kind.template().to_owned(),
            stored_filters: stored,
            replica_entries: entries,
            hit_ratio: out.overall.hit_ratio(),
            note,
        });
    }

    // Location: one region filter covering the whole location tree.
    let region = SearchRequest::from_root(Filter::parse("(location=*)").expect("static"));
    let rule = ConstantRegion::new("location", region.clone());
    let _ = rule; // the rule exists for dynamic use; here we install directly
    let day2k: Vec<TracedQuery> =
        day2.iter().filter(|q| q.kind == QueryKind::Location).cloned().collect();
    let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
    repl.install_filter(region).expect("fresh master accepts filters");
    let entries = repl.replica().entry_count();
    let out = replay_filter(&mut repl, &day2k, &[], no_updates);
    rows.push(OtherQueriesRow {
        kind: QueryKind::Location.template().to_owned(),
        stored_filters: 1,
        replica_entries: entries,
        hit_ratio: out.overall.hit_ratio(),
        note: "small hot tree replicated whole -> hit ratio 1",
    });
    rows
}

/// One row of the §5.2 synchronization ablation.
#[derive(Debug, Clone)]
pub struct SyncAblationRow {
    /// Strategy name.
    pub strategy: String,
    /// Full-entry PDUs shipped over the run.
    pub full_entries: u64,
    /// DN-only PDUs shipped.
    pub dn_only: u64,
    /// Estimated bytes shipped.
    pub bytes: u64,
    /// DNs diverging from the master at the end (0 = converged).
    pub diverged: usize,
}

/// §5.2: ReSync vs changelog/tombstone/retain/full-reload traffic for one
/// replicated filter over an update stream, plus the naive changelog's
/// convergence failure.
pub fn sync_ablation(params: &Params) -> Vec<SyncAblationRow> {
    let dir = params.directory();
    let (day1, _) = params.two_days(&dir);

    // Pick the hottest serial region as the replicated filter.
    let mut selector = FilterSelector::new(
        SelectorConfig {
            revolution_interval: u64::MAX,
            entry_budget: usize::MAX,
            max_candidates: 1 << 20,
        },
        vec![Box::new(ValuePrefix::new("serialNumber", vec![3]))],
    );
    for tq in &day1 {
        selector.observe(&tq.request);
    }
    let ranked = selector.ranked_candidates(dir.dit());
    let request = ranked.first().cloned().unwrap_or_else(|| {
        SearchRequest::new(
            "o=xyz".parse().expect("static"),
            Scope::Subtree,
            Filter::parse("(serialNumber=1*)").expect("static"),
        )
    });

    let updates = UpdateGenerator::new(&dir).generate(&UpdateConfig {
        ops: params.updates_per_day,
        ..UpdateConfig::default()
    });
    let cycles = 10usize;
    let chunk = updates.len().div_ceil(cycles);

    // One master; every baseline consumes the same history of it, kept
    // here (the master keeps none) and trimmed once all have read a cycle.
    let mut master = SyncMaster::with_dit(dir.dit().clone());
    let mut history = History::new();

    // ReSync session.
    let resp = master.resync(&request, ReSyncControl::poll(None)).expect("initial resync");
    let mut cookie = resp.cookie.expect("cookie issued");
    let mut resync_content = ReplicaContent::new();
    resync_content.apply_all(&resp.actions);
    let mut resync_traffic = SyncTraffic::default(); // steady-state only

    // Baselines.
    let mut baselines: Vec<(Box<dyn Synchronizer>, ReplicaContent, SyncTraffic)> = vec![
        (Box::new(RetainSync::default()), ReplicaContent::new(), SyncTraffic::default()),
        (Box::new(TombstoneSync::default()), ReplicaContent::new(), SyncTraffic::default()),
        (Box::new(ChangelogSync::default()), ReplicaContent::new(), SyncTraffic::default()),
        (Box::new(FullReload), ReplicaContent::new(), SyncTraffic::default()),
    ];
    // Initial loads (not counted: every strategy pays the same bootstrap).
    for (s, content, _) in &mut baselines {
        let _ = s.sync(master.dit(), &history, &request, content);
    }
    // The naive changelog consumer is bootstrapped with a full load and
    // reads the log only from there — the realistic §5.2 setting.
    let mut naive_content = ReplicaContent::new();
    FullReload.sync(master.dit(), &history, &request, &mut naive_content);
    let mut naive = NaiveChangelogSync::starting_at(master.dit().csn());
    let mut naive_traffic = SyncTraffic::default();

    for part in updates.chunks(chunk.max(1)) {
        for op in part {
            if let Ok(rec) = master.apply(op.clone()) {
                history.record(rec);
            }
        }
        let resp = master.resync(&request, ReSyncControl::poll(Some(cookie))).expect("poll");
        cookie = resp.cookie.expect("cookie issued");
        resync_traffic.absorb(&resp.traffic());
        resync_content.apply_all(&resp.actions);
        for (s, content, traffic) in &mut baselines {
            traffic.absorb(&s.sync(master.dit(), &history, &request, content));
        }
        naive_traffic.absorb(&naive.sync(master.dit(), &history, &request, &mut naive_content));
        history.trim(master.dit().csn());
    }

    let mut rows = vec![SyncAblationRow {
        strategy: "resync (session history)".to_owned(),
        full_entries: resync_traffic.full_entries,
        dn_only: resync_traffic.dn_only,
        bytes: resync_traffic.bytes,
        diverged: divergence(master.dit(), &request, &resync_content).len(),
    }];
    for (s, content, traffic) in &baselines {
        rows.push(SyncAblationRow {
            strategy: s.name().to_owned(),
            full_entries: traffic.full_entries,
            dn_only: traffic.dn_only,
            bytes: traffic.bytes,
            diverged: divergence(master.dit(), &request, content).len(),
        });
    }
    rows.push(SyncAblationRow {
        strategy: "naive-changelog (non-convergent)".to_owned(),
        full_entries: naive_traffic.full_entries,
        dn_only: naive_traffic.dn_only,
        bytes: naive_traffic.bytes,
        diverged: divergence(master.dit(), &request, &naive_content).len(),
    });
    rows
}

/// One row of the §6.2 selection-strategy ablation.
#[derive(Debug, Clone)]
pub struct SelectionAblationRow {
    /// Strategy name.
    pub strategy: String,
    /// Dept-query hit ratio on the measured day.
    pub hit_ratio: f64,
    /// Filter installs over the run (each costs a content load).
    pub installs: u64,
    /// Content-load traffic in entries.
    pub load_entries: u64,
}

/// §6.2: periodic benefit/size revolutions versus the per-query
/// evolution/revolution scheme of \[12\]. Evolutions track the pattern a
/// little better but churn the stored filter list constantly — unsuitable
/// when every install costs a content transfer.
pub fn selection_ablation(params: &Params) -> Vec<SelectionAblationRow> {
    use crate::experiment::{replay_filter, ReplayConfig as RC};
    use fbdr_replica::FilterReplica;
    use fbdr_resync::{ShardCoordinator, ShardedMaster};
    use fbdr_selection::generalize::{Identity, WidenToPresence};
    use crate::evolution::EvolutionSelector;

    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    let dept_day1: Vec<TracedQuery> =
        day1.iter().filter(|q| q.kind == QueryKind::DeptDiv).cloned().collect();
    let dept_day2: Vec<TracedQuery> =
        day2.iter().filter(|q| q.kind == QueryKind::DeptDiv).cloned().collect();
    let budget = dir.departments().len() / 3;
    let mut rows = Vec::new();

    // Periodic revolutions (the paper's scheme).
    {
        let r = params.r_small / 6; // dept-only stream is ~1/6 of the mix
        let selector = FilterSelector::new(
            SelectorConfig {
                revolution_interval: r.max(1),
                entry_budget: budget.max(1),
                max_candidates: 4096,
            },
            vec![Box::new(WidenToPresence::new("dept")), Box::new(Identity::new())],
        );
        let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0)
            .with_selector(selector);
        let _ = replay_filter(&mut repl, &dept_day1, &[], RC { sync_every: 0, update_every: 0 });
        let out = replay_filter(&mut repl, &dept_day2, &[], RC { sync_every: 0, update_every: 0 });
        let report = repl.report();
        rows.push(SelectionAblationRow {
            strategy: format!("periodic revolutions (R={})", r.max(1)),
            hit_ratio: out.overall.hit_ratio(),
            installs: report.revolutions, // one batch of installs per revolution
            load_entries: report.revolution_traffic.full_entries,
        });
    }

    // Per-query evolutions ([12]).
    {
        let mut master = ShardedMaster::from(SyncMaster::with_dit(dir.dit().clone()));
        let mut coordinator = ShardCoordinator::new(master.map().clone());
        let replica = FilterReplica::new(0);
        let mut evo = EvolutionSelector::new(
            vec![Box::new(WidenToPresence::new("dept")), Box::new(Identity::new())],
            budget.max(1),
            0.98,
            0.5,
        );
        for tq in &dept_day1 {
            let _ = evo.observe(&tq.request, &mut master, &mut coordinator, &replica);
            let _ = replica.try_answer(&tq.request);
        }
        replica.reset_stats();
        for tq in &dept_day2 {
            let _ = evo.observe(&tq.request, &mut master, &mut coordinator, &replica);
            let _ = replica.try_answer(&tq.request);
        }
        let rep = evo.report();
        rows.push(SelectionAblationRow {
            strategy: "per-query evolutions [12]".to_owned(),
            hit_ratio: replica.stats().hit_ratio(),
            installs: rep.installs,
            load_entries: rep.traffic.full_entries,
        });
    }
    rows
}

/// One row of the union-composition extension study.
#[derive(Debug, Clone)]
pub struct CompositionRow {
    /// Stored serial-prefix filters.
    pub filters: usize,
    /// Hit ratio with single-filter containment (the paper's rule).
    pub single: f64,
    /// Hit ratio when queries may be answered from the union of stored
    /// filters (this library's extension).
    pub composed: f64,
}

/// Extension study: batched OR lookups — `(|(serialNumber=a)(…))`, the
/// address-book pattern of fetching several people at once — are rarely
/// contained in any *single* stored filter, but often in the union of a
/// few. Measures the hit-ratio gain from union composition.
pub fn composition(params: &Params) -> Vec<CompositionRow> {
    use fbdr_replica::FilterReplica;
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);

    // Build the batch-OR stream from consecutive day-2 serial queries.
    let serials: Vec<String> = day2
        .iter()
        .filter(|q| q.kind == QueryKind::SerialNumber)
        .map(|q| {
            let f = q.request.filter().to_string();
            f.trim_start_matches("(serialNumber=").trim_end_matches(')').to_owned()
        })
        .collect();
    let batches: Vec<SearchRequest> = serials
        .chunks(3)
        .take(4_000)
        .filter(|c| c.len() == 3)
        .map(|c| {
            let f = format!(
                "(|(serialNumber={})(serialNumber={})(serialNumber={}))",
                c[0], c[1], c[2]
            );
            SearchRequest::from_root(Filter::parse(&f).expect("generated filter"))
        })
        .collect();

    // Rank serial-prefix candidates from the recent part of day 1.
    let recent = &day1[day1.len() - day1.len() / 3..];
    let mut selector = FilterSelector::new(
        SelectorConfig {
            revolution_interval: u64::MAX,
            entry_budget: usize::MAX,
            max_candidates: 1 << 20,
        },
        vec![Box::new(ValuePrefix::new("serialNumber", vec![5, 4]))],
    );
    for tq in recent {
        selector.observe(&tq.request);
    }
    let ranked = selector.ranked_candidates(dir.dit());

    let mut rows = Vec::new();
    for &k in &params.filter_counts {
        let single_replica = FilterReplica::new(0);
        let composed_replica = FilterReplica::new(0);
        let mut m1 = SyncMaster::with_dit(dir.dit().clone());
        let mut m2 = SyncMaster::with_dit(dir.dit().clone());
        for f in ranked.iter().take(k) {
            single_replica.install_filter(&mut m1, f.clone()).expect("fresh master");
            composed_replica.install_filter(&mut m2, f.clone()).expect("fresh master");
        }
        let mut single_hits = 0usize;
        let mut composed_hits = 0usize;
        for q in &batches {
            if single_replica.try_answer(q).is_some() {
                single_hits += 1;
            }
            if composed_replica.try_answer_composed(q).is_some() {
                composed_hits += 1;
            }
        }
        rows.push(CompositionRow {
            filters: k,
            single: single_hits as f64 / batches.len().max(1) as f64,
            composed: composed_hits as f64 / batches.len().max(1) as f64,
        });
    }
    rows
}

/// One row of the §7.4 overhead study.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Stored filters in the replica.
    pub filters: usize,
    /// Nanoseconds per query for the paper's algorithm: the
    /// template-dispatching engine against every stored filter in turn
    /// (`FilterReplica::try_answer_scan`).
    pub engine_ns: f64,
    /// Nanoseconds per query for `FilterReplica::try_answer`, which checks
    /// only the filters its stored-filter index names.
    pub indexed_ns: f64,
    /// Nanoseconds per query through the general (Prop 1) procedure
    /// against every stored filter.
    pub brute_ns: f64,
    /// Same-template checks performed.
    pub same_template: u64,
    /// Compiled cross-template evaluations.
    pub compiled: u64,
    /// Pairs skipped as never-containing.
    pub skipped_never: u64,
    /// General-procedure fallbacks.
    pub general: u64,
}

/// §7.4: query-processing overhead is proportional to the number of
/// stored filters, and template dispatch keeps the per-check cost minor.
/// The paper's scan is measured as such (`engine_ns`, with the engine's
/// check counts); `indexed_ns` is what the replica's answer path costs now
/// that a stored-filter index picks the filters to check.
pub fn overheads(params: &Params) -> Vec<OverheadRow> {
    let dir = params.directory();
    let (_, day2) = params.two_days(&dir);
    let queries: Vec<TracedQuery> = day2
        .iter()
        .filter(|q| q.kind == QueryKind::SerialNumber)
        .take(4_000)
        .cloned()
        .collect();

    let mut rows = Vec::new();
    for &n in &params.filter_counts {
        // n distinct serial-prefix filters (length-5 blocks).
        let stored: Vec<SearchRequest> = (0..n)
            .map(|i| {
                SearchRequest::from_root(
                    Filter::parse(&format!("(serialNumber={:05}*)", 10_000 + i))
                        .expect("generated filter"),
                )
            })
            .collect();

        let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
        for f in &stored {
            repl.install_filter(f.clone()).expect("fresh master accepts filters");
        }
        let replica = repl.replica();
        let t0 = Instant::now();
        for q in &queries {
            black_box(replica.try_answer_scan(&q.request));
        }
        let engine_ns = t0.elapsed().as_nanos() as f64 / queries.len() as f64;
        let stats = replica.engine_stats();
        let t0 = Instant::now();
        for q in &queries {
            black_box(replica.try_answer(&q.request));
        }
        let indexed_ns = t0.elapsed().as_nanos() as f64 / queries.len() as f64;

        // Brute force: the general procedure against every stored filter.
        let stored_filters: Vec<Filter> =
            stored.iter().map(|r| r.filter().clone()).collect();
        let t0 = Instant::now();
        let mut brute_hits = 0usize;
        for q in &queries {
            if stored_filters
                .iter()
                .any(|f| filter_contained(q.request.filter(), f).is_contained())
            {
                brute_hits += 1;
            }
        }
        let brute_ns = t0.elapsed().as_nanos() as f64 / queries.len() as f64;
        let _ = brute_hits;

        rows.push(OverheadRow {
            filters: n,
            engine_ns,
            indexed_ns,
            brute_ns,
            same_template: stats.same_template,
            compiled: stats.compiled,
            skipped_never: stats.skipped_never,
            general: stats.general,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Scale;

    #[test]
    fn table1_matches_mix() {
        let rows = table1(&Params::new(Scale::Small));
        assert_eq!(rows.len(), 4);
        for (_, expected, measured) in &rows {
            assert!((expected - measured).abs() < 0.05);
        }
    }

    #[test]
    fn other_queries_shapes() {
        let rows = other_queries(&Params::new(Scale::Small));
        let serial = &rows[0];
        let mail = &rows[1];
        let location = &rows[2];
        assert!(
            serial.hit_ratio > mail.hit_ratio,
            "serial {} should beat mail {}",
            serial.hit_ratio,
            mail.hit_ratio
        );
        assert!((location.hit_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn selection_ablation_shows_evolution_churn() {
        let rows = selection_ablation(&Params::new(Scale::Small));
        let periodic = &rows[0];
        let evolution = &rows[1];
        // The paper's §6.2 point: per-query evolutions churn the stored
        // filter list far more than periodic revolutions, costing content
        // loads on every swap.
        assert!(
            evolution.installs > periodic.installs * 5,
            "evolutions {} vs revolutions {}",
            evolution.installs,
            periodic.installs
        );
        assert!(evolution.load_entries > periodic.load_entries);
        assert!(periodic.hit_ratio > 0.0);
    }

    #[test]
    fn composition_extension_helps_or_batches() {
        let rows = composition(&Params::new(Scale::Small));
        for r in &rows {
            assert!(
                r.composed >= r.single,
                "composition should never lose hits: {} vs {} at {} filters",
                r.composed,
                r.single,
                r.filters
            );
        }
        let last = rows.last().expect("rows");
        assert!(
            last.composed > last.single + 0.2,
            "composition should win clearly at {} filters: {} vs {}",
            last.filters,
            last.composed,
            last.single
        );
    }

    #[test]
    fn sync_ablation_shapes() {
        let rows = sync_ablation(&Params::new(Scale::Small));
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.strategy.starts_with(n))
                .unwrap_or_else(|| panic!("strategy {n} missing"))
        };
        let resync = by_name("resync");
        let reload = by_name("full-reload");
        let tomb = by_name("tombstone");
        let _naive = by_name("naive-changelog");
        assert_eq!(resync.diverged, 0);
        assert_eq!(reload.diverged, 0);
        assert_eq!(tomb.diverged, 0);
        // ReSync ships no more full entries than any convergent scheme and
        // far fewer bytes than full reload.
        assert!(resync.full_entries <= reload.full_entries);
        assert!(resync.bytes < reload.bytes);
        assert!(resync.dn_only <= tomb.dn_only);
    }
}
