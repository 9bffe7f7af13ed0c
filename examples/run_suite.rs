//! The VIBe suite runner: regenerate any (or every) table/figure of the
//! paper from the command line.
//!
//! ```text
//! cargo run --release --example run_suite -- --list
//! cargo run --release --example run_suite -- T1 F3
//! cargo run --release --example run_suite -- --all
//! cargo run --release --example run_suite -- --all --jobs 4        # 4 workers
//! VIBE_JOBS=4 cargo run --release --example run_suite -- --all    # same
//! cargo run --release --example run_suite -- --all --csv out/     # also emit CSV files
//! cargo run --release --example run_suite -- F3 --json out/       # machine-readable dumps
//! cargo run --release --example run_suite -- T1 --trace out/      # Perfetto/Chrome traces
//! VIBE_TRACE=out/ cargo run --release --example run_suite -- T1  # same
//! ```
//!
//! Worker count: `--jobs N` wins, then the `VIBE_JOBS` env var, then the
//! machine's available parallelism. `--jobs 1` (or `VIBE_JOBS=1`) runs
//! the same job plan in order on the calling thread, with no pool. A
//! figure's plan is one job per point of its sweep (`vibe::sweep`), a
//! table's one job per profile or row, so `--all` is 579 jobs at any
//! worker count. Artifact bytes are identical at any worker count; every
//! run also prints the X-PAR telemetry artifact (wall-clock, events/sec,
//! speedup, event-arena hit rates).
//!
//! Fused fast path: on by default; `--no-fuse` (or `VIBE_FUSE=0`) forces
//! every message down the general event-by-event chain. Artifact bytes
//! are identical either way — CI pins a `VIBE_FUSE=0` leg — except F5's
//! and F6's small-message bandwidth panels (≤ 1.3 %, ROADMAP item 1), and
//! the X-PAR fused-path table reports per-experiment hit rates and
//! de-fuse causes.

//!
//! A usage error (unknown id or flag, a flag without its value, a worker
//! count that is not a positive integer — on the command line or in
//! `VIBE_JOBS`) prints `run_suite: <what>` to stderr and
//! exits with status 2 before anything runs. An output directory or file
//! that cannot be written (`--csv`, `--json`, `--trace` / `VIBE_TRACE`)
//! prints `run_suite: cannot write '<path>': <io error>` and exits with
//! status 1; the directories are created before anything runs.

use std::path::{Path, PathBuf};

use vibe::runner::{parse_count, run_suite, try_default_workers};
use vibe::suite::{all_experiments, find, render_json, Category};

/// Why `run` gave up: the line for stderr and the exit status.
struct Failure {
    message: String,
    status: i32,
}

/// A usage error (every `String` error below is one).
impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { message, status: 2 }
    }
}

/// For `map_err`: the failure to create or write `path`.
fn cannot_write(path: &Path) -> impl FnOnce(std::io::Error) -> Failure + '_ {
    move |e| Failure {
        message: format!("cannot write '{}': {e}", path.display()),
        status: 1,
    }
}

fn main() {
    if let Err(failure) = run() {
        eprintln!("run_suite: {}", failure.message);
        if failure.status == 2 {
            eprintln!("(try --help)");
        }
        std::process::exit(failure.status);
    }
}

/// Everything `main` does; `Err` is for `main` to report.
fn run() -> Result<(), Failure> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: run_suite [--list | --all | <id>...] [--jobs <n>] [--no-fuse] [--csv <dir>] [--json <dir>] [--trace <dir>]");
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        println!("       ids: {}", ids.join(" "));
        println!("       --jobs <n>: worker threads (default: VIBE_JOBS env, else all cores; 1 = the calling thread)");
        println!("       --no-fuse: disable the fused message-lifecycle fast path (same as VIBE_FUSE=0; artifacts are byte-identical either way, F5/F6 small-message bandwidth excepted)");
        println!("       --trace <dir>: also write Perfetto/Chrome message-lifecycle traces (default: VIBE_TRACE env)");
        return Ok(());
    }
    let take_val = |flag: &str, args: &mut Vec<String>| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let v = args.get(i + 1).cloned();
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        args.drain(i..=i + 1);
        Ok(Some(v))
    };
    let csv_dir = take_val("--csv", &mut args)?.map(PathBuf::from);
    let json_dir = take_val("--json", &mut args)?.map(PathBuf::from);
    let trace_dir = take_val("--trace", &mut args)?
        .or_else(|| std::env::var("VIBE_TRACE").ok())
        .map(PathBuf::from);
    let workers = match take_val("--jobs", &mut args)? {
        Some(v) => parse_count("--jobs", &v)?,
        None => try_default_workers()?,
    };
    if let Some(i) = args.iter().position(|a| a == "--no-fuse") {
        args.remove(i);
        via::fastpath::set_fuse(false);
    }
    // Every flag that takes a value is consumed by now.
    let known = |a: &str| !a.starts_with("--") || a == "--all" || a == "--list";
    if let Some(flag) = args.iter().find(|a| !known(a)) {
        return Err(format!("unknown flag '{flag}'").into());
    }
    if args.iter().any(|a| a == "--list") {
        println!("{:<8}  {:<18}  title", "id", "category");
        println!("{}", "-".repeat(72));
        for e in all_experiments() {
            let cat = match e.category {
                Category::NonDataTransfer => "non-data-transfer",
                Category::DataTransfer => "data-transfer",
                Category::ProgrammingModel => "programming-model",
            };
            println!("{:<8}  {:<18}  {}", e.id, cat, e.title);
        }
        return Ok(());
    }
    let experiments: Vec<_> = if args.iter().any(|a| a == "--all") {
        all_experiments()
    } else {
        let found = args.iter().map(|id| {
            find(id).ok_or_else(|| format!("unknown experiment id '{id}' (--list prints them)"))
        });
        found.collect::<Result<_, String>>()?
    };
    for dir in [&csv_dir, &json_dir, &trace_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir).map_err(cannot_write(dir))?;
    }
    let run = run_suite(experiments, workers);
    for e in &run.experiments {
        println!();
        println!("### {} — {}", e.id, e.title);
        println!("{}", e.run_text());
        if let Some(dir) = &csv_dir {
            for (slug, csv) in e.run_csv() {
                let path = dir.join(format!("{slug}.csv"));
                std::fs::write(&path, csv).map_err(cannot_write(&path))?;
                println!("[wrote {}]", path.display());
            }
        }
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("{}.json", e.id.to_lowercase()));
            std::fs::write(&path, e.run_json()).map_err(cannot_write(&path))?;
            println!("[wrote {}]", path.display());
        }
        println!("[{} regenerated in {:.2}s]", e.id, e.wall.as_secs_f64());
    }
    if let Some(dir) = &trace_dir {
        // One Perfetto/Chrome-loadable lifecycle trace per paper profile,
        // from the same deterministic workload the X-TRACE tables use.
        let written =
            vibe::trace_bench::write_chrome_traces(dir, 4096).map_err(cannot_write(dir))?;
        for name in written {
            println!("[wrote {}]", dir.join(name).display());
        }
    }
    // The runner's own telemetry artifact (wall-clock dependent — never a
    // golden).
    let xpar = run.xpar_artifacts();
    println!();
    println!("### X-PAR — parallel-runner telemetry");
    for a in &xpar {
        println!("{}", a.render());
    }
    if let Some(dir) = &json_dir {
        let path = dir.join("x-par.json");
        let doc = render_json("X-PAR", "Parallel-runner telemetry", &xpar);
        std::fs::write(&path, doc).map_err(cannot_write(&path))?;
        println!("[wrote {}]", path.display());
    }
    // Fabric-robustness roll-up: deterministic sums, identical at any
    // worker/fuse setting — a PR diff of this line shows when the
    // suite's fault exposure changed.
    println!(
        "[fabric: storm_trips={} fault_dropped={} node_crashes={} sessions_recovered={}]",
        run.fabric_health.storm_trips,
        run.fabric_health.fault_dropped,
        run.fabric_health.node_crashes,
        run.fabric_health.sessions_recovered,
    );
    println!(
        "[suite: {} jobs on {} workers, {:.2}s wall, {:.2}s serial-equivalent, {:.2}x speedup, {:.1}M events/s]",
        run.jobs.len(),
        run.workers,
        run.wall.as_secs_f64(),
        run.serial_wall().as_secs_f64(),
        run.speedup(),
        run.total_events() as f64 / run.wall.as_secs_f64().max(1e-9) / 1e6,
    );
    Ok(())
}
