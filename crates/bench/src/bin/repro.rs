//! `repro` — regenerates every table and figure of the paper, and the
//! extension results that are exact tables.
//!
//! ```text
//! repro [EXPERIMENT…] [--scale small|paper|large] [--json]
//!
//! EXPERIMENT: table1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 |
//!             fig9 | other-queries | sync-ablation | selection-ablation |
//!             overheads | latency | composition | recovery-cost |
//!             adaptation | all
//! ```
//!
//! `--json` emits one machine-readable document with every experiment's
//! title, headers and rows (for plotting) instead of aligned text tables.

use fbdr_bench::adaptation::{self, AdaptConfig};
use fbdr_bench::recovery::{self, RecoveryConfig};
use fbdr_bench::{hits, protocol, render_table, tables, traffic, Params, Scale};

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[&str] = &[
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "other-queries",
    "sync-ablation", "selection-ablation", "overheads", "latency", "composition",
    "recovery-cost", "adaptation",
];

/// One rendered experiment: a titled table.
struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn table(title: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) -> Table {
    Table {
        title: title.into(),
        headers: headers.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut json = false;
    let mut which: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use small|paper|large");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [EXPERIMENT…] [--scale small|paper|large] [--json]\n\
                     experiments: {} all",
                    EXPERIMENTS.join(" ")
                );
                return;
            }
            other => which.push(other.to_owned()),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    let params = Params::new(scale);
    if !json {
        println!(
            "# fbdr reproduction — scale: {:?} ({} employees, {} queries/day)",
            scale, params.dir.employees, params.day_queries
        );
    }
    let mut docs: Vec<serde_json::Value> = Vec::new();
    for w in which {
        let t = run(&w, scale, &params);
        if json {
            docs.push(serde_json::json!({
                "experiment": w,
                "title": t.title,
                "headers": t.headers,
                "rows": t.rows,
            }));
        } else {
            let headers: Vec<&str> = t.headers.iter().map(String::as_str).collect();
            print!("{}", render_table(&t.title, &headers, &t.rows));
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "scale": format!("{scale:?}"),
                "employees": params.dir.employees,
                "queries_per_day": params.day_queries,
                "experiments": docs,
            }))
            .expect("static structure serializes")
        );
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn run(which: &str, scale: Scale, params: &Params) -> Table {
    match which {
        "table1" => table(
            "Table 1: workload distribution",
            &["type of query", "paper", "measured"],
            tables::table1(params)
                .into_iter()
                .map(|(t, e, m)| vec![t, pct(e), pct(m)])
                .collect(),
        ),
        "fig2" => table(
            "Figure 2: distributed operation processing (referral costs)",
            &["scenario", "round trips", "referrals", "entries", "elapsed ms"],
            protocol::fig2()
                .into_iter()
                .map(|r| {
                    vec![
                        r.scenario,
                        r.round_trips.to_string(),
                        r.referrals.to_string(),
                        r.entries.to_string(),
                        format!("{:.0}", r.elapsed_ms),
                    ]
                })
                .collect(),
        ),
        "fig3" => table(
            "Figure 3: an example ReSync session",
            &["phase", "PDU"],
            protocol::fig3()
                .into_iter()
                .flat_map(|(phase, lines)| {
                    lines.into_iter().map(move |l| vec![phase.clone(), l])
                })
                .collect(),
        ),
        "fig4" => table(
            "Figure 4: hit ratio vs replica size (serialNumber query)",
            &["budget", "filter size", "filter hit", "subtree size", "subtree hit"],
            hits::fig4(params)
                .into_iter()
                .map(|r| {
                    vec![
                        pct(r.budget_frac),
                        pct(r.filter_size_frac),
                        f3(r.filter_hit),
                        pct(r.subtree_size_frac),
                        f3(r.subtree_hit),
                    ]
                })
                .collect(),
        ),
        "fig5" => table(
            format!(
                "Figure 5: hit ratio vs replica size (department query, R={} vs R={})",
                params.r_small, params.r_large
            ),
            &["budget", "hit R-small", "hit R-large", "subtree hit", "subtree size"],
            hits::fig5(params)
                .into_iter()
                .map(|r| {
                    vec![
                        r.budget.to_string(),
                        f3(r.hit_r_small),
                        f3(r.hit_r_large),
                        f3(r.subtree_hit),
                        r.subtree_size.to_string(),
                    ]
                })
                .collect(),
        ),
        "fig6" => table(
            "Figure 6: update traffic vs hit ratio (serialNumber query)",
            &[
                "budget",
                "filter hit",
                "filter entries",
                "filter DNs",
                "subtree hit",
                "subtree entries",
                "subtree DNs",
            ],
            traffic::fig6(params)
                .into_iter()
                .map(|r| {
                    vec![
                        pct(r.budget_frac),
                        f3(r.filter_hit),
                        r.filter_entries.to_string(),
                        r.filter_dns.to_string(),
                        f3(r.subtree_hit),
                        r.subtree_entries.to_string(),
                        r.subtree_dns.to_string(),
                    ]
                })
                .collect(),
        ),
        "fig7" => table(
            format!(
                "Figure 7: update traffic vs hit ratio (department query, R={} vs R={})",
                params.r_small, params.r_large
            ),
            &[
                "budget",
                "hit R-small",
                "traffic R-small",
                "hit R-large",
                "traffic R-large",
                "subtree traffic",
            ],
            traffic::fig7(params)
                .into_iter()
                .map(|r| {
                    vec![
                        r.budget.to_string(),
                        f3(r.hit_r_small),
                        r.traffic_r_small.to_string(),
                        f3(r.hit_r_large),
                        r.traffic_r_large.to_string(),
                        r.subtree_traffic.to_string(),
                    ]
                })
                .collect(),
        ),
        "fig8" | "fig9" => {
            let (title, rows) = if which == "fig8" {
                ("Figure 8: hit ratio vs # stored filters (serialNumber query)", hits::fig8(params))
            } else {
                ("Figure 9: hit ratio vs # stored filters (department query)", hits::fig9(params))
            };
            table(
                title,
                &["stored", "queries only", "generalized only", "both"],
                rows.into_iter()
                    .map(|r| {
                        vec![
                            r.stored.to_string(),
                            f3(r.cache_only),
                            f3(r.generalized_only),
                            f3(r.both),
                        ]
                    })
                    .collect(),
            )
        }
        "other-queries" => table(
            "§7.2(c): other query types",
            &["query type", "filters", "entries", "hit ratio", "note"],
            tables::other_queries(params)
                .into_iter()
                .map(|r| {
                    vec![
                        r.kind,
                        r.stored_filters.to_string(),
                        r.replica_entries.to_string(),
                        f3(r.hit_ratio),
                        r.note.to_owned(),
                    ]
                })
                .collect(),
        ),
        "sync-ablation" => table(
            "§5.2: filter synchronization strategies (steady-state traffic)",
            &["strategy", "full entries", "DN-only", "bytes", "diverged DNs"],
            tables::sync_ablation(params)
                .into_iter()
                .map(|r| {
                    vec![
                        r.strategy,
                        r.full_entries.to_string(),
                        r.dn_only.to_string(),
                        r.bytes.to_string(),
                        r.diverged.to_string(),
                    ]
                })
                .collect(),
        ),
        "selection-ablation" => table(
            "§6.2: selection strategies (dept query stream)",
            &["strategy", "hit ratio", "installs/revolutions", "load entries"],
            tables::selection_ablation(params)
                .into_iter()
                .map(|r| {
                    vec![
                        r.strategy,
                        f3(r.hit_ratio),
                        r.installs.to_string(),
                        r.load_entries.to_string(),
                    ]
                })
                .collect(),
        ),
        "overheads" => table(
            "§7.4: query processing overhead vs # stored filters",
            &[
                "filters", "engine ns/q", "indexed ns/q", "brute ns/q", "same-tmpl", "compiled",
                "never", "general",
            ],
            tables::overheads(params)
                .into_iter()
                .map(|r| {
                    vec![
                        r.filters.to_string(),
                        format!("{:.0}", r.engine_ns),
                        format!("{:.0}", r.indexed_ns),
                        format!("{:.0}", r.brute_ns),
                        r.same_template.to_string(),
                        r.compiled.to_string(),
                        r.skipped_never.to_string(),
                        r.general.to_string(),
                    ]
                })
                .collect(),
        ),
        "composition" => table(
            "Extension: union composition on batched OR lookups",
            &["filters", "single-filter hit", "union-composed hit"],
            tables::composition(params)
                .into_iter()
                .map(|r| vec![r.filters.to_string(), f3(r.single), f3(r.composed)])
                .collect(),
        ),
        "latency" => table(
            "Remote-user mean query latency (1 ms LAN, 50 ms WAN)",
            &["configuration", "entries", "hit ratio", "mean latency ms"],
            traffic::latency(params)
                .into_iter()
                .map(|r| {
                    vec![
                        r.config,
                        r.replica_entries.to_string(),
                        f3(r.hit_ratio),
                        format!("{:.1}", r.mean_latency_ms),
                    ]
                })
                .collect(),
        ),
        "recovery-cost" => {
            let cfg = RecoveryConfig::for_scale(scale);
            table(
                format!(
                    "Extension: session recovery cost vs divergence ({} entries, digest fpr {})",
                    cfg.entries, fbdr_resync::reconcile::DIGEST_FPR
                ),
                &[
                    "updates missed", "entries diverged", "replay B", "reconcile B",
                    "round trips", "digest B", "shipped", "deletes", "probes", "reinstall B",
                    "reinstall entries", "reinstall/reconcile",
                ],
                recovery::run(&cfg)
                    .into_iter()
                    .map(|r| {
                        vec![
                            r.divergence.to_string(),
                            r.diverged_entries.to_string(),
                            r.replay_bytes.to_string(),
                            r.reconcile_bytes.to_string(),
                            r.reconcile_round_trips.to_string(),
                            r.reconcile_digest_bytes.to_string(),
                            r.reconcile_shipped_entries.to_string(),
                            r.reconcile_deletes.to_string(),
                            r.reconcile_fallback_probes.to_string(),
                            r.reinstall_bytes.to_string(),
                            r.reinstall_entries.to_string(),
                            format!("{:.1}x", r.reinstall_over_reconcile),
                        ]
                    })
                    .collect(),
            )
        }
        "adaptation" => {
            let cfg = AdaptConfig::for_scale(scale);
            table(
                format!(
                    "Extension: adaptation under adversarial scenarios (end-state hit ratio; \
                     budget {}, revolve every {}, step every {} with <={} moves)",
                    cfg.entry_budget, cfg.revolution_interval, cfg.step_every, cfg.move_budget
                ),
                &[
                    "scenario", "periodic", "evolution", "online", "oracle", "online/oracle",
                    "installs per", "installs evo", "installs online", "load evo",
                    "load online", "max moves", "considered/candidates",
                ],
                adaptation::run(&cfg, &params.directory())
                    .into_iter()
                    .map(|s| {
                        vec![
                            s.scenario.clone(),
                            f3(s.periodic.final_hit_ratio()),
                            f3(s.evolution.final_hit_ratio()),
                            f3(s.online.final_hit_ratio()),
                            f3(s.oracle_final_hit_ratio),
                            format!("{:.2}", s.online_vs_oracle()),
                            s.periodic.installs.to_string(),
                            s.evolution.installs.to_string(),
                            s.online.installs.to_string(),
                            s.evolution.install_entries.to_string(),
                            s.online.install_entries.to_string(),
                            s.online_max_moves.to_string(),
                            format!("{}/{}", s.online_max_considered, s.online_candidates),
                        ]
                    })
                    .collect(),
            )
        }
        other => {
            eprintln!("unknown experiment {other:?}; see --help");
            std::process::exit(2);
        }
    }
}
