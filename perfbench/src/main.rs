//! `perfbench`: the CPU-pinned host-time benchmark of the VIBe simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --all [--seed <u64>] [--out <file>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare <a.json> <b.json>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list | --smoke | --bless
//! ```
//!
//! See `perfbench/README.md` for the method, the workloads and how the
//! per-layer metrics map onto the end-to-end ones.

mod bench_util;
mod compare;
mod probes;
mod runner;
mod spec;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bench_util::{allowed_cpus, load_average, pin_to_first_cpu, valid_name, valid_unit, Json};
use runner::{Host, Options, DEFAULT_SECONDS, DEFAULT_SEED, SMOKE_SCALE};

const USAGE: &str = "usage: perfbench --all [--seed <u64>] [--seconds <s>] [--out <file>]
       perfbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke]
       perfbench --smoke              every workload at 1/20 size, untraced and traced (< 15 s)
       perfbench --compare <baseline.json> <candidate.json>
       perfbench --list               workloads and metrics; fails if BENCHMARK.json drifted
       perfbench --bless              re-record perfbench/digests.json (default seed, full size)";

/// The crate directory at build time; the checkout the program was built
/// in is the checkout it runs in.
fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    ExitCode::from(2)
}

/// Remove `flag` and its value from `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse::<u64>(),
    };
    parsed.map_err(|_| format!("--seed must be an unsigned 64-bit integer, got '{text}'"))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&mut args, process_start) {
        Ok(code) => code,
        Err(msg) => fail(&format!("{msg}\n{USAGE}")),
    }
}

fn run(args: &mut Vec<String>, process_start: Instant) -> Result<ExitCode, String> {
    if take_flag(args, "--list") {
        return Ok(list());
    }
    if take_flag(args, "--bless") {
        let path = crate_dir().join("digests.json");
        std::fs::write(&path, format!("{}\n", runner::bless()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let [a, b] = args
            .get(i + 1..i + 3)
            .and_then(|s| <&[String; 2]>::try_from(s).ok())
            .ok_or("--compare needs two files")?;
        let load = |p: &String| -> Result<Json, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{p}: {e}"))
        };
        let (text, clean) = compare::compare(&load(a)?, &load(b)?);
        print!("{text}");
        return Ok(if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    let seed = take_value(args, "--seed")?.map_or(Ok(DEFAULT_SEED), |s| parse_seed(&s))?;
    let smoke = take_flag(args, "--smoke");
    let seconds = match take_value(args, "--seconds")? {
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && (0.0..=600.0).contains(v))
            .ok_or(format!(
                "--seconds must be a number of seconds in 0..=600, got '{s}'"
            ))?,
        None if smoke => 0.5,
        None => DEFAULT_SECONDS as f64,
    };
    let out = take_value(args, "--out")?;
    let workload = take_value(args, "--workload")?;
    // `--trace` alone, or `--trace 0|1` as the driver passes it.
    let trace = match args.iter().position(|a| a == "--trace") {
        None => false,
        Some(i) => {
            args.remove(i);
            match args.get(i).map(String::as_str) {
                Some("0") => {
                    args.remove(i);
                    false
                }
                Some("1") => {
                    args.remove(i);
                    true
                }
                _ => true,
            }
        }
    };
    let all = take_flag(args, "--all");
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument '{stray}'"));
    }

    match workload {
        Some(name) => {
            if spec::workload(&name).is_none() {
                let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!(
                    "unknown workload '{name}' (known: {})",
                    known.join(", ")
                ));
            }
            let opts = Options {
                workload: name,
                seed,
                seconds,
                scale: if smoke { SMOKE_SCALE } else { 1 },
                trace,
            };
            Ok(run_one(&opts, process_start))
        }
        None if all || smoke => run_all(seed, seconds, smoke, out.as_deref()),
        None => Err("nothing to do".to_string()),
    }
}

// ---------------------------------------------------------------------
// One workload, this process
// ---------------------------------------------------------------------

/// Run one workload. Standard output ends with two JSON lines: the detail
/// object `--all` reads, then — last — the result object with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
fn run_one(opts: &Options, process_start: Instant) -> ExitCode {
    // Pin before anything spawns a thread: threads inherit the mask. Only
    // a measuring process pins; `--all` stays wide so that its children
    // see every allowed CPU (the shard probe widens to them again).
    let allowed = allowed_cpus();
    let host = &Host {
        nproc: allowed.map_or_else(
            || std::thread::available_parallelism().map_or(1, |n| n.get()),
            |s| s.count(),
        ),
        pinned: pin_to_first_cpu(),
        loadavg: load_average(),
    };
    if host.pinned.is_none() {
        eprintln!(
            "perfbench: could not pin to one CPU; host-time numbers will carry scheduler noise"
        );
    }
    let report = if opts.trace {
        runner::run_traced(opts, host, &crate_dir().join("out"))
    } else {
        runner::run_untraced(opts, process_start)
    };
    for f in &report.failures {
        eprintln!("perfbench: FAILED CHECK {f}");
    }
    for (name, v) in &report.metrics {
        assert!(
            valid_name(name),
            "metric name '{name}' breaks the BENCHMARK.json rule"
        );
        eprintln!(
            "  {name:<44} {v:>16.6} {}",
            spec::unit_of(name).unwrap_or("?")
        );
    }
    eprintln!(
        "perfbench: {} seed={} trace={} reps={} checks={} failed={} pinned_cpu={:?} nproc={}",
        opts.workload,
        opts.seed,
        opts.trace as u8,
        report.reps,
        report.attempted,
        report.failures.len(),
        host.pinned.map(|(_, c)| c),
        host.nproc
    );
    println!("{}", report.detail_json(opts, host));
    println!("{}", report.result_json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---------------------------------------------------------------------
// --all / --smoke: one child process per workload and kind
// ---------------------------------------------------------------------

/// The last two stdout lines of a child: `(detail, result)`.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("locating the perfbench executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stderr(Stdio::null());
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or(format!(
        "{workload}: no output (exit {:?})",
        output.status.code()
    ))?;
    let detail = lines.next().ok_or(format!("{workload}: no detail line"))?;
    Ok((
        Json::parse(detail).map_err(|e| format!("{workload}: detail line: {e}"))?,
        Json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?,
    ))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// `--all`: every workload untraced (end-to-end) and traced (per-layer),
/// each in a process of its own so `setup_s` and the peak-RSS high-water
/// mark belong to that workload alone.
fn run_all(seed: u64, seconds: f64, smoke: bool, out: Option<&str>) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut any_failed = false;
    // The host as the first measuring child saw it.
    let mut host = Json::Null;
    for w in &spec::WORKLOADS {
        eprintln!("perfbench: {} (untraced, then traced)", w.name);
        let (e2e_detail, e2e) = run_child(w.name, seed, seconds, smoke, false)?;
        let (pl_detail, pl) = run_child(w.name, seed, seconds, smoke, true)?;
        if host == Json::Null {
            host = e2e_detail.get("host").cloned().unwrap_or(Json::Null);
        }
        let attempted = num(&e2e, "attempted") + num(&pl, "attempted");
        let failed = num(&e2e, "failed") + num(&pl, "failed");
        any_failed |= failed > 0.0;

        let mut end_to_end = Vec::new();
        for m in &spec::END_TO_END {
            let mut fields = vec![
                (
                    "value",
                    Json::Num(
                        e2e.get("metrics")
                            .and_then(|x| x.get(m.name))
                            .map_or(0.0, |x| num(x, "value")),
                    ),
                ),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ];
            if let Some(s) = e2e_detail.get("summaries").and_then(|s| s.get(m.name)) {
                for key in ["min", "max", "n", "samples"] {
                    if let Some(v) = s.get(key) {
                        fields.push((key, v.clone()));
                    }
                }
            }
            end_to_end.push((m.name, Json::obj(fields)));
        }
        // The two correctness figures: end-to-end in meaning, carried in
        // the per-layer list of BENCHMARK.json (see README).
        end_to_end.push((
            "failed_share",
            Json::obj([
                (
                    "value",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        0.0
                    }),
                ),
                ("unit", Json::str("ratio")),
                ("better", Json::str("lower")),
                ("bound", Json::str("any increase")),
            ]),
        ));
        let per_layer_value = |name: &str| {
            pl.get("metrics")
                .and_then(|x| x.get(name))
                .map_or(0.0, |x| num(x, "value"))
        };
        if w.name == "suite_serial" {
            end_to_end.push((
                "table1_max_err_pct",
                Json::obj([
                    ("value", Json::Num(per_layer_value("table1_max_err_pct"))),
                    ("unit", Json::str("%")),
                    ("better", Json::str("lower")),
                    ("bound", Json::str("any increase")),
                ]),
            ));
        }
        let per_layer = spec::PER_LAYER.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(per_layer_value(m.name))),
                    ("unit", Json::str(m.unit)),
                    ("kind", Json::str(m.kind.as_str())),
                ]),
            )
        });
        let failures: Vec<Json> = [&e2e_detail, &pl_detail]
            .iter()
            .filter_map(|d| d.get("failures").and_then(Json::as_arr))
            .flatten()
            .cloned()
            .collect();
        workloads.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                (
                    "validation",
                    // Only the suite has a published reference.
                    Json::str(if w.name == "suite_serial" { "paper Table 1 (table1_max_err_pct); 12 committed goldens" } else { "unvalidated: no published reference; checked against recorded digests and conservation oracles" }),
                ),
                ("reps", Json::Num(num(&e2e_detail, "reps"))),
                ("traced_wall_s", pl_detail.get("summaries").and_then(|s| s.get("traced_wall_s")).cloned().unwrap_or(Json::Null)),
                ("checks", Json::obj([("attempted", Json::Num(attempted)), ("failed", Json::Num(failed)), ("failures", Json::Arr(failures))])),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
                ("digests", e2e_detail.get("digests").cloned().unwrap_or(Json::Null)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::str("vibe-perfbench/1")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("scale", Json::Num(if smoke { SMOKE_SCALE as f64 } else { 1.0 })),
        ("method", Json::str("closed loop, one benchmark thread, process pinned to one CPU; median of the measured repetitions of identical generated input (n per metric; too few for any percentile beyond the median); per-layer metrics from a separate traced run")),
        ("host", host),
        ("workloads", Json::obj(workloads)),
    ]);
    print_table(&doc);
    let text = format!("{doc}\n");
    match out {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(if any_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Human table of an `--all` document, on standard error.
fn print_table(doc: &Json) {
    let Some(workloads) = doc.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    for (name, w) in workloads {
        eprintln!();
        eprintln!(
            "== {name}  ({})",
            w.get("validation").and_then(Json::as_str).unwrap_or("")
        );
        let ivcsw = w
            .get("per_layer")
            .and_then(|p| p.get("simkit.process.ivcsw"))
            .map_or(0.0, |m| num(m, "value"));
        for (metric, m) in w.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
            let range = match (m.get("min"), m.get("max"), m.get("n")) {
                (Some(lo), Some(hi), Some(n)) => format!(
                    "  [min {:.6}  max {:.6}  n={}  ivcsw/rep {ivcsw}]",
                    lo.as_f64().unwrap_or(0.0),
                    hi.as_f64().unwrap_or(0.0),
                    n.as_f64().unwrap_or(0.0)
                ),
                _ => String::new(),
            };
            eprintln!(
                "  {metric:<44} {:>16.6} {:<6}{range}",
                num(m, "value"),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        for (metric, m) in w.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]) {
            eprintln!(
                "  {metric:<44} {:>16.6} {:<6}  ({})",
                num(m, "value"),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                m.get("kind").and_then(Json::as_str).unwrap_or("")
            );
        }
        let failures = w
            .get("checks")
            .and_then(|c| c.get("failures"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for f in failures.iter().filter_map(Json::as_str) {
            eprintln!("  FAILED CHECK {f}");
        }
    }
}

// ---------------------------------------------------------------------
// --list and the drift check
// ---------------------------------------------------------------------

/// Every way `BENCHMARK.json` (`doc`) disagrees with `spec.rs`.
pub fn drift_against(doc: &Json) -> Vec<String> {
    let mut drift = Vec::new();
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    // Render each entry of a section to one line on both sides; whatever
    // line is on one side only is drift.
    let mut section = |key: &str, listed: &dyn Fn(&Json) -> String, coded: Vec<String>| {
        let listed: Vec<String> = doc
            .get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().map(listed).collect())
            .unwrap_or_default();
        for x in listed.iter().filter(|x| !coded.contains(x)) {
            drift.push(format!("{key}: only in BENCHMARK.json: {x}"));
        }
        for x in coded.iter().filter(|x| !listed.contains(x)) {
            drift.push(format!("{key}: only in code: {x}"));
        }
    };
    section(
        "workloads",
        &|w| format!("{}: {}", text(w, "name"), text(w, "why")),
        spec::WORKLOADS
            .iter()
            .map(|w| format!("{}: {}", w.name, w.why))
            .collect(),
    );
    section(
        "end_to_end",
        &|m| {
            let (name, unit, better) = (text(m, "name"), text(m, "unit"), text(m, "better"));
            format!("{name} [{unit}] {better} bound {}", num(m, "bound"))
        },
        spec::END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{} [{}] {} bound {}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    section(
        "per_layer",
        &|m| {
            format!(
                "{} [{}] {}",
                text(m, "name"),
                text(m, "unit"),
                text(m, "better")
            )
        },
        spec::PER_LAYER
            .iter()
            .map(|m| format!("{} [{}] {}", m.name, m.unit, m.better.as_str()))
            .collect(),
    );

    if num(doc, "run_seconds") != DEFAULT_SECONDS as f64 {
        drift.push(format!(
            "run_seconds: BENCHMARK.json has {}, code has {DEFAULT_SECONDS}",
            num(doc, "run_seconds")
        ));
    }
    let paths = doc.get("paths").and_then(Json::as_arr);
    if paths.map(|p| p.iter().filter_map(Json::as_str).collect::<Vec<_>>())
        != Some(vec!["perfbench"])
    {
        drift.push("paths: expected [\"perfbench\"]".to_string());
    }
    drift
}

/// Print the vocabulary; non-zero if `BENCHMARK.json` disagrees with it.
fn list() -> ExitCode {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end_to_end:");
    for m in &spec::END_TO_END {
        assert!(valid_name(m.name) && valid_unit(m.unit));
        println!(
            "  {:<44} {:<6} {:<7} bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per_layer:");
    for m in &spec::PER_LAYER {
        assert!(valid_name(m.name) && valid_unit(m.unit));
        println!(
            "  {:<44} {:<6} {:<7} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.kind.as_str()
        );
    }
    let path: PathBuf = crate_dir().join("../BENCHMARK.json");
    let doc = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(doc) => doc,
        Err(e) => return fail(&format!("{}: {e}", path.display())),
    };
    let drift = drift_against(&doc);
    if drift.is_empty() {
        println!("BENCHMARK.json: in step with the code");
        ExitCode::SUCCESS
    } else {
        for d in &drift {
            eprintln!("perfbench: drift: {d}");
        }
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argument_helpers() {
        let mut args: Vec<String> = ["--seed", "0x5EED", "--all", "--out", "x.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            take_value(&mut args, "--seed").unwrap().as_deref(),
            Some("0x5EED")
        );
        assert!(take_flag(&mut args, "--all"));
        assert!(!take_flag(&mut args, "--all"));
        assert_eq!(
            take_value(&mut args, "--out").unwrap().as_deref(),
            Some("x.json")
        );
        assert!(args.is_empty());
        assert!(take_value(&mut vec!["--seed".to_string()], "--seed").is_err());
        assert_eq!(parse_seed("0x5EED"), Ok(0x5EED));
        assert_eq!(parse_seed("24301"), Ok(24301));
        assert!(parse_seed("-1").is_err() && parse_seed("seed").is_err());
        assert_eq!(DEFAULT_SEED, 0x5EED);
    }

    #[test]
    fn drift_is_reported_per_entry() {
        let doc = Json::parse(
            r#"{"paths":["perfbench"],"run_seconds":1,"workloads":[],
                "end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.5}],
                "per_layer":[{"name":"made.up","unit":"ns","better":"lower"}]}"#,
        )
        .unwrap();
        let drift = drift_against(&doc).join("\n");
        for needle in [
            "workloads:",
            "only in BENCHMARK.json: wall_s [s] lower bound 0.5",
            "only in code: wall_s",
            "only in BENCHMARK.json: made.up",
            "run_seconds",
        ] {
            assert!(drift.contains(needle), "missing '{needle}' in:\n{drift}");
        }
    }
}
