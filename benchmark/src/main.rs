//! `fbdr-benchmark`: the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! fbdr-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Run from the root of a checkout (it reads `BENCHMARK.json` there and
//! writes under `benchmark/out/`). Without `--workload` every workload runs
//! in turn. The last line printed for a workload is the driver's JSON
//! object; everything above it is for people. See `benchmark/README.md`.

mod alloc;
mod estimate;
mod fixture;
mod metrics;
mod micro;
mod oracle;
mod pipeline;
mod report;
mod trace;

use fixture::{Fixture, DEFAULT_SEED, SECONDS_PER_PASS, WORKLOADS};
use report::Spec;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where reports and traces are written, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| (*w).to_owned()).collect(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}`; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Passes for `seconds` of measuring: 7 at the pinned `run_seconds`. Fixed
/// by the arguments, not by the clock, so two runs of one commit take their
/// minima over equally many passes.
fn pass_count(seconds: f64) -> usize {
    ((seconds / SECONDS_PER_PASS).round() as usize).clamp(3, 15)
}

fn run_workload(name: &str, args: &Args, spec: &Spec) -> Result<bool, String> {
    let run_started = Instant::now();
    let fx =
        Fixture::build(name, args.seed, args.smoke).ok_or(format!("unknown workload `{name}`"))?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let passes = if args.smoke { 1 } else { pass_count(seconds) };
    // `--seconds` is the measuring time asked for; a run that has used a
    // quarter more than that starts no further pass.
    let deadline = run_started + std::time::Duration::from_secs_f64(seconds * 1.25);

    eprintln!(
        "[{name}] seed {} · {} entries · {} stored filters · {} background sessions · {} queries + {} updates per pass · {} passes{}",
        args.seed,
        fx.entries.len(),
        fx.filters.len(),
        fx.background.len(),
        fx.queries.len(),
        fx.updates.len(),
        passes,
        if args.trace { " split over untraced / obs-on / traced groups" } else { "" },
    );

    let outcome = if args.trace {
        metrics::run_traced(&fx, passes, deadline)?
    } else {
        metrics::run_untraced(&fx, passes, deadline)?
    };
    let defs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    report::check_names(defs, &outcome.measured)?;

    print!("{}", report::table(name, defs, &outcome.measured));
    for note in &outcome.notes {
        println!("[{name}] {note}");
    }
    for f in &outcome.failures {
        println!("[{name}] FAILED: {f}");
    }
    println!(
        "[{name}] {} passes, {:.1} s, {} content checks and {} answer checks per pass",
        outcome.passes_run,
        run_started.elapsed().as_secs_f64(),
        outcome.content_checks,
        outcome.answer_checks,
    );

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let line = report::result_line(
        defs,
        &outcome.measured,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
    );
    let suffix = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let path = format!("{OUT_DIR}/{name}-{suffix}.json");
    std::fs::write(&path, format!("{line}\n")).map_err(|e| format!("{path}: {e}"))?;
    if let Some(spans) = &outcome.spans {
        let path = format!("{OUT_DIR}/trace-{name}.jsonl");
        let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        trace::write_jsonl(spans, &mut w).map_err(|e| format!("{path}: {e}"))?;
        std::io::Write::flush(&mut w).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fbdr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the root of the checkout)"))
        .and_then(|t| Spec::parse(&t))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fbdr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for w in &args.workloads {
        match run_workload(w, &args, &spec) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("fbdr-benchmark: [{w}] {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
