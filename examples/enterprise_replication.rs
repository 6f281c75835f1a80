//! End-to-end enterprise scenario: generate a synthetic enterprise
//! directory (§7.1 shape), train filter selection on one day of queries,
//! then serve a second day from a remote filter-based replica — with
//! dynamic revolutions adapting the stored filter set.
//!
//! Run with: `cargo run --release --example enterprise_replication`

use fbdr_bench::experiment::{replay_filter, ReplayConfig};
use fbdr::prelude::*;
use fbdr::selection::generalize::{Identity, ValuePrefix, WidenToPresence};
use fbdr::workload::UpdateGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down model of the paper's half-million-entry directory:
    // employees flat under skewed countries, serial prefixes correlated
    // with countries, unstructured mail, departments under divisions.
    let dir_cfg = DirectoryConfig { employees: 5_000, ..DirectoryConfig::default() };
    let dir = EnterpriseDirectory::generate(dir_cfg);
    println!(
        "directory: {} entries ({} employees, {} countries, {} departments, {} locations)",
        dir.dit().len(),
        dir.employee_count(),
        dir.countries().len(),
        dir.departments().len(),
        dir.locations().len(),
    );

    // Two days of the Table 1 workload.
    let trace_cfg = TraceConfig { queries: 10_000, ..TraceConfig::default() };
    let gen = TraceGenerator::new(&dir, &trace_cfg);
    let day1 = gen.generate(&dir, &trace_cfg);
    let day2cfg = TraceConfig { seed: trace_cfg.seed + 1, ..trace_cfg.clone() };
    let day2 = gen.generate(&dir, &day2cfg);
    let updates = UpdateGenerator::new(&dir).generate(&UpdateConfig {
        ops: 500,
        ..UpdateConfig::default()
    });

    // A replica with dynamic filter selection: serial-prefix regions,
    // division-level department regions, plus a 100-query cache.
    let selector = FilterSelector::new(
        SelectorConfig {
            revolution_interval: 2_000,
            entry_budget: dir.employee_count() / 10,
            max_candidates: 8192,
        },
        vec![
            Box::new(ValuePrefix::new("serialNumber", vec![5, 4])),
            Box::new(WidenToPresence::new("dept")),
            Box::new(Identity::new()),
        ],
    );
    let mut replicator =
        Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 100).with_selector(selector);
    // The whole (tiny, hot) location tree is replicated statically.
    replicator.install_filter(SearchRequest::from_root(Filter::parse("(location=*)")?))?;

    // Day 1 trains the selector; day 2 is what we report.
    println!("\nreplaying day 1 (training)…");
    let cfg = ReplayConfig { sync_every: 500, update_every: 20 };
    let _ = replay_filter(&mut replicator, &day1, &updates, cfg);
    println!("replaying day 2 (measured)…");
    let out = replay_filter(&mut replicator, &day2, &updates, cfg);

    println!("\nday-2 results at replica size {} entries:", out.replica_entries);
    println!("  overall hit ratio : {:.3}", out.overall.hit_ratio());
    let mut kinds: Vec<(&String, &(u64, u64))> = out.per_kind.iter().collect();
    kinds.sort();
    for (kind, (q, h)) in kinds {
        println!("  {kind:<20} {:>6} queries, hit ratio {:.3}", q, *h as f64 / (*q).max(1) as f64);
    }
    println!(
        "  update traffic    : {} full entries + {} DN-only (resync), {} entries (revolutions)",
        out.resync_traffic.full_entries, out.resync_traffic.dn_only,
        out.revolution_traffic.full_entries,
    );
    println!("  revolutions       : {}", out.revolutions);
    println!(
        "  containment work  : {} checks ({} same-template, {} compiled, {} skipped, {} general)",
        out.engine.total(),
        out.engine.same_template,
        out.engine.compiled,
        out.engine.skipped_never,
        out.engine.general,
    );
    Ok(())
}
