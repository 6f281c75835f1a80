//! From passes to metrics: runs the groups of passes and applies the
//! estimators of [`crate::estimate`].

use crate::alloc;
use crate::estimate::{mean, percentile, quartiles, quiet, quiet_total, samples_beyond, sorted};
use crate::fixture::Fixture;
use crate::micro;
use crate::pipeline::{run_pass, Counts, PassResult};
use crate::report::Measured;
use crate::trace::{self_times, NoProbe, Span, Tracker};
use fbdr_ldap::SearchRequest;
use fbdr_obs::Obs;
use std::time::Instant;

/// What a run of one workload produced.
pub struct Outcome {
    /// The measured metrics (end-to-end or per-layer).
    pub measured: Vec<Measured>,
    /// Lines for people: derived shares, sample counts.
    pub notes: Vec<String>,
    /// First few failures.
    pub failures: Vec<String>,
    /// False when an operation failed, an output was wrong, or passes
    /// disagreed on a count.
    pub correct: bool,
    /// Operations attempted in one pass.
    pub attempted: u64,
    /// Operations failed, summed over passes.
    pub failed: u64,
    /// Passes run.
    pub passes_run: usize,
    /// Stored-filter content comparisons per pass.
    pub content_checks: u64,
    /// Replica answers compared with the master per pass.
    pub answer_checks: u64,
    /// Spans of the first traced pass, for `trace-<workload>.jsonl`.
    pub spans: Option<Vec<Span>>,
}

/// Passes a group runs whatever the clock says.
const MIN_PASSES: usize = 3;

/// Runs `passes` untraced passes; past [`MIN_PASSES`], stops early when the
/// next pass would end after `deadline` (a slow machine gets fewer passes,
/// not a timeout).
fn untraced_group(fx: &Fixture, passes: usize, obs_on: bool, deadline: Instant) -> Vec<PassResult> {
    let mut out = Vec::with_capacity(passes);
    for i in 0..passes {
        let started = Instant::now();
        let obs = if obs_on { Obs::new() } else { Obs::off() };
        out.push(run_pass(fx, &mut NoProbe, obs));
        if i + 1 >= MIN_PASSES && Instant::now() + started.elapsed() > deadline {
            break;
        }
    }
    out
}

/// Checks that every pass did the same work and collects failures.
fn verify(passes: &[&PassResult]) -> (bool, u64, Vec<String>) {
    let mut failures = Vec::new();
    let mut failed = 0;
    let reference: &Counts = &passes[0].counts;
    for (i, p) in passes.iter().enumerate() {
        failed += p.failed;
        failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
        if p.counts != *reference {
            failed += 1;
            failures.push(format!(
                "pass {i} did different work than pass 0: {:?} vs {:?}",
                p.counts, reference
            ));
        }
        if p.attempted != passes[0].attempted {
            failed += 1;
            failures.push(format!(
                "pass {i} attempted {} operations, pass 0 {}",
                p.attempted, passes[0].attempted
            ));
        }
    }
    failures.truncate(8);
    (failed == 0, failed, failures)
}

fn column(passes: &[PassResult], f: impl Fn(&PassResult) -> &Vec<u64>) -> Vec<Vec<u64>> {
    passes.iter().map(|p| f(p).clone()).collect()
}

/// A latency statistic: computed on the quiet samples for the value, and on
/// each pass's own samples for the spread.
fn latency(
    name: &'static str,
    per_pass: &[Vec<u64>],
    stat: impl Fn(&[u64]) -> f64,
) -> Result<Measured, String> {
    let value = stat(&sorted(&quiet(per_pass)?));
    let each: Vec<f64> = per_pass.iter().map(|p| stat(&sorted(p))).collect();
    Ok(Measured {
        name,
        value,
        passes: Some(quartiles(&each)),
    })
}

fn pick(samples: &[u64], keep: &[bool], want: bool) -> Vec<u64> {
    samples
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k == want)
        .map(|(&s, _)| s)
        .collect()
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quiet operations per second of a group of passes.
fn ops_per_s(fx: &Fixture, passes: &[PassResult]) -> Result<Measured, String> {
    let ops = fx.schedule.len() as f64;
    let slices = column(passes, |p| &p.slice_ns);
    let value = ops / (quiet_total(&slices)? as f64 / 1e9);
    let each: Vec<f64> = slices
        .iter()
        .map(|s| ops / (s.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    Ok(Measured {
        name: "ops_per_s",
        value,
        passes: Some(quartiles(&each)),
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end run: `passes` identical untraced passes.
pub fn run_untraced(fx: &Fixture, passes: usize, deadline: Instant) -> Result<Outcome, String> {
    let runs = untraced_group(fx, passes, false, deadline);
    let (correct, failed, failures) = verify(&runs.iter().collect::<Vec<_>>());
    let c = runs[0].counts;
    let hit = &runs[0].query_hit;

    let setup = column(&runs, |p| &p.setup_steps_ns);
    let setup_each: Vec<f64> = setup
        .iter()
        .map(|s| s.iter().sum::<u64>() as f64 / 1e9)
        .collect();
    let queries = column(&runs, |p| &p.query_ns);
    let hits: Vec<Vec<u64>> = queries.iter().map(|q| pick(q, hit, true)).collect();
    let misses: Vec<Vec<u64>> = queries.iter().map(|q| pick(q, hit, false)).collect();
    let updates = column(&runs, |p| &p.update_ns);
    let visible = column(&runs, |p| &p.visible_ns);
    let resident: Vec<f64> = runs
        .iter()
        .map(|p| ratio(p.live_after_setup - p.live_before, p.counts.replica_entries))
        .collect();

    let p = |q: f64| move |s: &[u64]| percentile(s, q) as f64;
    let measured = vec![
        Measured {
            name: "setup_s",
            value: quiet_total(&setup)? as f64 / 1e9,
            passes: Some(quartiles(&setup_each)),
        },
        ops_per_s(fx, &runs)?,
        latency("hit_p50_ns", &hits, p(0.50))?,
        latency("hit_p99_ns", &hits, p(0.99))?,
        latency("miss_p50_ns", &misses, p(0.50))?,
        latency("update_p50_ns", &updates, p(0.50))?,
        latency("update_mean_ns", &updates, mean)?,
        latency("visible_p50_ns", &visible, p(0.50))?,
        latency("visible_p95_ns", &visible, p(0.95))?,
        Measured::exact("wire_bytes_per_update", ratio(c.traffic.bytes, c.updates)),
        Measured::exact("hit_ratio", ratio(c.replica.hits, c.replica.queries)),
        Measured {
            name: "resident_bytes_per_entry",
            value: quartiles(&resident)[1],
            passes: Some(quartiles(&resident)),
        },
        Measured::exact("peak_rss_mb", peak_rss_mib()),
    ];
    let quiet_updates = sorted(&quiet(&updates)?);
    let mut notes = vec![format!(
        "quiet update latency p50 / p90 / p99 / max: {} / {} / {} / {} ns",
        percentile(&quiet_updates, 0.5),
        percentile(&quiet_updates, 0.9),
        percentile(&quiet_updates, 0.99),
        percentile(&quiet_updates, 1.0),
    )];
    notes.push(format!(
        "samples per pass: {} hits ({} beyond p99), {} misses, {} updates, {} visible ({} beyond p95); set-up {:.2} s, stream {:.2} s, output checks {:.2} s in pass 0",
        hits[0].len(),
        samples_beyond(hits[0].len(), 0.99),
        misses[0].len(),
        updates[0].len(),
        visible[0].len(),
        samples_beyond(visible[0].len(), 0.95),
        setup_each[0],
        runs[0].slice_ns.iter().sum::<u64>() as f64 / 1e9,
        runs[0].check_ns as f64 / 1e9,
    ));
    Ok(Outcome {
        measured,
        notes,
        failures,
        correct,
        attempted: runs[0].attempted,
        failed,
        passes_run: runs.len(),
        content_checks: runs[0].content_checks,
        answer_checks: runs[0].answer_checks,
        spans: None,
    })
}

/// Spans of the traced passes, reduced to one quiet value per span.
struct SpanTable {
    spans: Vec<Span>,
    duration: Vec<u64>,
    self_ns: Vec<u64>,
}

impl SpanTable {
    /// Elementwise minimum over traced passes when they recorded the same
    /// span sequence (they do identical work); the first pass alone
    /// otherwise.
    fn quiet(trackers: &[Tracker]) -> SpanTable {
        let first = trackers[0].spans();
        let mut duration: Vec<u64> = first.iter().map(Span::duration_ns).collect();
        let mut self_ns = self_times(first);
        for t in &trackers[1..] {
            let s = t.spans();
            let aligned =
                s.len() == first.len() && s.iter().zip(first).all(|(a, b)| a.name == b.name);
            if !aligned {
                continue;
            }
            for (d, span) in duration.iter_mut().zip(s) {
                *d = (*d).min(span.duration_ns());
            }
            for (d, other) in self_ns.iter_mut().zip(self_times(s)) {
                *d = (*d).min(other);
            }
        }
        SpanTable {
            spans: first.to_vec(),
            duration,
            self_ns,
        }
    }

    fn indices<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
            .map(|(i, _)| i)
    }

    fn durations(&self, name: &str) -> Vec<u64> {
        self.indices(name).map(|i| self.duration[i]).collect()
    }

    fn selfs(&self, name: &str) -> Vec<u64> {
        self.indices(name).map(|i| self.self_ns[i]).collect()
    }

    fn p(&self, name: &str, q: f64) -> f64 {
        percentile(&sorted(&self.durations(name)), q) as f64
    }

    fn allocs(&self, name: &str) -> (u64, u64, u64) {
        let (mut n, mut count, mut bytes) = (0, 0, 0);
        for i in self.indices(name) {
            n += 1;
            count += self.spans[i].allocs;
            bytes += self.spans[i].alloc_bytes;
        }
        (n, count, bytes)
    }

    /// Σ child spans ÷ Σ parent spans over the `core.*` parents.
    fn closure_ratio(&self) -> f64 {
        let (mut parent, mut children) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name.starts_with("core.") {
                parent += self.duration[i];
                children += self.duration[i] - self.self_ns[i].min(self.duration[i]);
            }
        }
        ratio(children, parent)
    }

    /// `(name, spans, Σ self time)` over the measured stream, largest first.
    fn self_time_by_name(&self) -> Vec<(&'static str, usize, u64)> {
        let mut rows: Vec<(&'static str, usize, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.op == u32::MAX {
                continue; // set-up
            }
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += self.self_ns[i];
                }
                None => rows.push((s.name, 1, self.self_ns[i])),
            }
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.2));
        rows
    }
}

/// The per-layer run: a group of untraced passes, a group with an `Obs`
/// registry attached, and a group of traced passes.
pub fn run_traced(fx: &Fixture, passes: usize, deadline: Instant) -> Result<Outcome, String> {
    // A third of the passes per group, at least 2 (a single `--smoke` pass: 1).
    let group = if passes == 1 { 1 } else { (passes / 3).max(2) };
    let plain = untraced_group(fx, group, false, deadline);
    let observed = untraced_group(fx, group, true, deadline);
    let mut traced = Vec::new();
    let mut trackers = Vec::new();
    for _ in 0..group {
        // Every operation opens at most 6 spans; set-up a few per filter.
        let capacity = fx.schedule.len() * 6 + fx.filters.len() * 8 + 64;
        let mut tracker = Tracker::with_capacity(capacity);
        traced.push(run_pass(fx, &mut tracker, Obs::off()));
        trackers.push(tracker);
    }
    let peak_live = alloc::peak_live();

    let all: Vec<&PassResult> = plain.iter().chain(&observed).chain(&traced).collect();
    let (mut correct, mut failed, mut failures) = verify(&all);
    if trackers.iter().any(|t| !t.stayed_reserved()) {
        correct = false;
        failed += 1;
        failures.push("the tracker outgrew its reserved capacity; alloc.* is not exact".into());
    }

    let c = plain[0].counts;
    let table = SpanTable::quiet(&trackers);
    let stored: &[SearchRequest] = &traced[0].stored_filters;
    let m = micro::measure(fx, stored);
    let plain_ops = ops_per_s(fx, &plain)?;
    let observed_ops = ops_per_s(fx, &observed)?;
    let traced_ops = ops_per_s(fx, &traced)?;
    let median_pass = plain_ops.passes.map_or(0.0, |q| q[1]);

    let per = |(n, count, _): (u64, u64, u64)| ratio(count, n);
    let bytes_per = |(n, _, bytes): (u64, u64, u64)| ratio(bytes, n);
    let hit_allocs = table.allocs("core.search.hit");
    let update_allocs = table.allocs("core.update");
    let search: Vec<u64> = [
        table.durations("core.search.hit"),
        table.durations("core.search.miss"),
    ]
    .concat();
    let apply = table.durations("resync.apply");
    let twin_apply = table.durations("dit.apply_twin");
    let checks = c.engine.total();
    let decisions = c.decision_hits + c.decision_misses;
    let misses = c.replica.queries - c.replica.hits;

    let x = Measured::exact;
    let measured = vec![
        x("core.search_ns_mean", mean(&search)),
        x("core.update_ns_mean", mean(&table.durations("core.update"))),
        x("core.closure_ratio", table.closure_ratio()),
        x(
            "replica.try_answer_hit_ns_p50",
            table.p("replica.try_answer.hit", 0.5),
        ),
        x(
            "replica.try_answer_miss_ns_p50",
            table.p("replica.try_answer.miss", 0.5),
        ),
        x(
            "replica.cache_query_ns_p50",
            table.p("replica.cache_query", 0.5),
        ),
        x("replica.drain_ns_p50", table.p("replica.drain", 0.5)),
        x(
            "replica.drain_ns_mean",
            mean(&table.durations("replica.drain")),
        ),
        x(
            "replica.sync_self_ns_mean",
            mean(&table.selfs("replica.sync")),
        ),
        x(
            "replica.install_ns_mean",
            mean(&table.durations("replica.install")),
        ),
        x(
            "replica.hits_generalized",
            c.replica.generalized_hits as f64,
        ),
        x("replica.hits_cached", c.replica.cache_hits as f64),
        x("replica.misses", misses as f64),
        x("replica.epochs_published", c.epochs as f64),
        x("replica.entries", c.replica_entries as f64),
        x("replica.stored_filters", stored.len() as f64),
        x(
            "replica.decision_cache_hit_ratio",
            ratio(c.decision_hits, decisions),
        ),
        x(
            "containment.checks_per_query",
            ratio(checks, c.replica.queries),
        ),
        x(
            "containment.same_template_share",
            ratio(c.engine.same_template, checks),
        ),
        x("containment.check_ns_p50", m.check_ns_p50),
        x("containment.check_ns_p99", m.check_ns_p99),
        x("containment.scan_ns_per_query", m.scan_ns_per_query),
        x("ldap.parse_ns_p50", m.parse_ns_p50),
        x("ldap.prepare_ns_p50", m.prepare_ns_p50),
        x("ldap.entry_match_ns_p50", m.entry_match_ns_p50),
        x("dit.search_ns_p50", table.p("dit.search", 0.5)),
        x("dit.search_ns_p99", table.p("dit.search", 0.99)),
        x("dit.entries_per_miss", ratio(c.wan_entries, c.wan_queries)),
        x("dit.apply_ns_p50", table.p("dit.apply_twin", 0.5)),
        x("dit.load_s", mean(&table.durations("dit.load")) / 1e9),
        x("resync.apply_ns_p50", table.p("resync.apply", 0.5)),
        x("resync.apply_ns_mean", mean(&apply)),
        x(
            "resync.apply_self_ns_mean",
            (mean(&apply) - mean(&twin_apply)).max(0.0),
        ),
        x("resync.sessions", c.sessions as f64),
        x(
            "resync.routing_indexed_share",
            ratio(c.routing_indexed, c.sessions),
        ),
        x(
            "resync.flush_ns_mean",
            mean(&table.durations("resync.flush")),
        ),
        x("resync.notify_wakeups", c.notify_wakeups as f64),
        x(
            "resync.updates_per_wakeup",
            ratio(c.notify_updates, c.notify_wakeups),
        ),
        x(
            "resync.exchange_ns_mean",
            mean(&table.durations("resync.exchange")),
        ),
        x(
            "resync.full_entries_per_update",
            ratio(c.traffic.full_entries, c.updates),
        ),
        x(
            "resync.dn_only_per_update",
            ratio(c.traffic.dn_only, c.updates),
        ),
        x(
            "resync.install_exchange_ns_mean",
            ratio(
                table.durations("resync.install_exchange").iter().sum(),
                stored.len() as u64,
            ),
        ),
        x("resync.footprint_bytes", c.footprint_bytes as f64),
        x(
            "resync.shard_fanout_per_miss",
            ratio(c.fanout, c.wan_queries),
        ),
        x("net.wan_queries", c.wan_queries as f64),
        x(
            "net.wan_entries_per_miss",
            ratio(c.wan_entries, c.wan_queries),
        ),
        x("selection.select_s", fx.select_s),
        x("selection.observe_ns_p50", m.observe_ns_p50),
        x(
            "obs.on_overhead_ratio",
            observed_ops.value / plain_ops.value,
        ),
        x("alloc.count_per_hit", per(hit_allocs)),
        x("alloc.bytes_per_hit", bytes_per(hit_allocs)),
        x(
            "alloc.count_per_miss",
            per(table.allocs("core.search.miss")),
        ),
        x("alloc.count_per_update", per(update_allocs)),
        x("alloc.bytes_per_update", bytes_per(update_allocs)),
        x("alloc.count_per_drain", per(table.allocs("replica.drain"))),
        x(
            "alloc.live_after_setup_bytes",
            (plain[0].live_after_setup - plain[0].live_before) as f64,
        ),
        x("alloc.peak_live_bytes", peak_live as f64),
        x("trace.overhead_ratio", plain_ops.value / traced_ops.value),
        x(
            "noise.pass_spread",
            (plain_ops.value - median_pass).max(0.0) / plain_ops.value,
        ),
        x("workload.gen_s", fx.gen_s),
    ];

    // Where the stream's time goes, by self time.
    let rows = table.self_time_by_name();
    let total: u64 = rows.iter().map(|r| r.2).sum();
    let mut notes = vec![format!(
        "self time over the measured stream ({:.3} s in spans, {} spans):",
        total as f64 / 1e9,
        rows.iter().map(|r| r.1).sum::<usize>()
    )];
    for (name, n, ns) in &rows {
        notes.push(format!(
            "  {name:<28} {n:>8} spans {:>10.3} ms {:>6.1} %",
            *ns as f64 / 1e6,
            100.0 * ratio(*ns, total)
        ));
    }
    let sum = |name: &str| table.durations(name).iter().sum::<u64>();
    let read_path = sum("core.search.hit") + sum("core.search.miss");
    let write_path = sum("core.update") + sum("replica.sync");
    notes.push(format!(
        "containment scan + prepare = {:.1} % of a hit's try_answer p50 (replayed, no decision cache); write path (apply + flush + drain + sync) = {:.2} x read path",
        100.0 * (m.scan_hit_ns_p50 + m.prepare_ns_p50) / table.p("replica.try_answer.hit", 0.5).max(1.0),
        ratio(write_path, read_path),
    ));

    Ok(Outcome {
        measured,
        notes,
        failures,
        correct,
        attempted: plain[0].attempted,
        failed,
        passes_run: all.len(),
        content_checks: plain[0].content_checks,
        answer_checks: plain[0].answer_checks,
        spans: Some(trackers.swap_remove(0).spans().to_vec()),
    })
}
