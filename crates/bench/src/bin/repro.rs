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

use fbdr_bench::repro::{self, EXPERIMENTS};
use fbdr_bench::{Params, Scale};

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
        print!("{}", repro::heading(scale, &params));
    }
    let mut docs: Vec<serde_json::Value> = Vec::new();
    for w in which {
        let Some(t) = repro::run(&w, scale, &params) else {
            eprintln!("unknown experiment {w:?}; see --help");
            std::process::exit(2);
        };
        if json {
            docs.push(serde_json::json!({
                "experiment": w,
                "title": t.title,
                "headers": t.headers,
                "rows": t.rows,
            }));
        } else {
            print!("{}", t.render());
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

