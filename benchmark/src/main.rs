//! The repository's benchmark: five workloads over the public API of the
//! crates, each run in its own process, measured end to end with tracing
//! off and layer by layer in a separate traced run.
//!
//! ```text
//! rpki-benchmark --workload <name|all> [--seed N] [--seconds S]
//!                [--trace 0|1] [--quick] [--bless]
//! rpki-benchmark --selfcheck [RUNS]
//! ```
//!
//! A single-workload run prints one `row` line per metric and, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `benchmark/README.md`.

mod frames;
mod metrics;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads {
    pub mod fleet_delta;
    pub mod fleet_reset;
    pub mod grid;
    pub mod repro_paper;
}

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Ctx, Measured, DEFAULT_SEED};

/// What the command line asked for.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    bless: bool,
    selfcheck: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload <{}|all>] [--seed N] [--seconds S] [--trace [0|1]] \
         [--quick] [--bless] | --selfcheck [RUNS]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        quick: false,
        bless: false,
        selfcheck: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        // A flag's value, when the next argument parses as one.
        let mut value = |parse: &dyn Fn(&str) -> bool| -> Option<String> {
            match argv.peek() {
                Some(next) if parse(next) => argv.next(),
                _ => None,
            }
        };
        match arg.as_str() {
            "--workload" => args.workload = value(&|_| true).unwrap_or_else(|| usage()),
            "--seed" => {
                args.seed = value(&|v| v.parse::<u64>().is_ok())
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("checked")
            }
            "--seconds" => {
                let s: f64 = value(&|v| v.parse::<f64>().is_ok_and(|s| s > 0.0 && s <= 60.0))
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("checked");
                args.seconds = Some(s);
            }
            // `--trace` alone means a traced run; the driver passes 0 or 1.
            "--trace" => {
                args.trace = Some(value(&|v| v == "0" || v == "1").is_none_or(|v| v == "1"))
            }
            "--quick" => args.quick = true,
            "--bless" => args.bless = true,
            "--selfcheck" => {
                args.selfcheck = Some(
                    value(&|v| v.parse::<usize>().is_ok_and(|n| n >= 2))
                        .map_or(10, |v| v.parse().expect("checked")),
                )
            }
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

/// Worker threads of the crates' parallel paths: `min(cpus, 4)`.
fn pin_threads() -> usize {
    let threads = sys::cpus().min(4);
    // Set before any thread exists; the crates read it on every fan-out.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    threads
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Writes `out/<workload>.trace.json`.
fn write_trace(ctx: &Ctx, workload: &str, spans: &[trace::Span]) {
    let dir = ctx.bench_dir.join("out");
    let context = [
        ("workload", workload.to_string()),
        ("seed", ctx.seed.to_string()),
        ("commit", commit()),
    ];
    let path = dir.join(format!("{workload}.trace.json"));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::render_json(spans, &context)))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn commit() -> String {
    std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())
}

/// The metrics of one finished run, in registry order.
fn metric_rows(ctx: &Ctx, m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    if !ctx.trace {
        let ops_ok = (m.attempted - m.failed) as f64;
        let values = [
            m.setup_s,
            stats::median(&m.round_s) * 1e3,
            ops_ok / m.wall_s,
            m.cpu_s * 1e3 / m.attempted as f64,
            sys::peak_rss_mb(),
        ];
        return END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, v, e.unit))
            .collect();
    }
    let (q1, q3) = stats::quartiles(&m.round_s);
    let own = [
        ("bench.wall_s", m.wall_s),
        ("bench.rounds", m.round_s.len() as f64),
        ("bench.traced_rounds", m.traced_round_s.len() as f64),
        ("bench.round_q1_ms", q1 * 1e3),
        ("bench.round_q3_ms", q3 * 1e3),
        ("bench.trace_overhead_share", m.trace_overhead_share()),
    ];
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = own
                .iter()
                .chain(m.layer.iter())
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, value, *unit)
        })
        .collect()
}

/// Runs one workload in this process and prints its result.
fn run_workload(args: &Args, threads: usize) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 1.0 } else { 15.0 }),
        threads,
        trace: args.trace.unwrap_or(false),
        quick: args.quick,
        bless: args.bless,
        bench_dir: bench_dir(),
    };
    let mut m = match args.workload.as_str() {
        "repro_paper" => workloads::repro_paper::run(&ctx),
        "attack_grid" => workloads::grid::run_attack_grid(&ctx),
        "internet_trials" => workloads::grid::run_internet_trials(&ctx),
        "rtr_fleet_delta" => workloads::fleet_delta::run(&ctx),
        "rtr_fleet_reset" => workloads::fleet_reset::run(&ctx),
        _ => unreachable!("validated by parse_args"),
    };
    let unregistered: Vec<&str> = m
        .layer
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !metrics::is_per_layer(name))
        .collect();
    m.check(unregistered.is_empty(), || {
        format!("per-layer metrics missing from the registry: {unregistered:?}")
    });
    m.check(m.attempted >= 1, || "no operation was attempted".into());
    m.attempted = m.attempted.max(1);
    if ctx.trace {
        write_trace(&ctx, &args.workload, &m.spans);
    }
    let rows = metric_rows(&ctx, &m);
    for (name, value, _) in &rows {
        if !value.is_finite() {
            m.errors.push(format!("{name} is not a finite number"));
        }
    }
    let correct = m.errors.is_empty() && m.failed == 0;
    for e in &m.errors {
        eprintln!("CHECK FAILED [{}]: {e}", args.workload);
    }

    let context = format!(
        "threads={threads} cpus={} seed={} commit={} tmpfs={} loopback={} trace={} quick={}",
        sys::cpus(),
        ctx.seed,
        commit(),
        u8::from(m.files_on_tmpfs),
        u8::from(m.loopback),
        u8::from(ctx.trace),
        u8::from(ctx.quick),
    );
    let mut json = String::new();
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        println!("row {} {name} {value} {unit} {context}", args.workload);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "row {} ops_attempted {} count {context}\nrow {} ops_failed {} count {context}",
        args.workload, m.attempted, args.workload, m.failed
    );
    if !ctx.trace {
        let (q1, q3) = stats::quartiles(&m.round_s);
        println!(
            "note {} round quartiles {:.4}..{:.4} ms over n={} rounds, timed region {:.3} s",
            args.workload,
            q1 * 1e3,
            q3 * 1e3,
            m.round_s.len(),
            m.wall_s
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        m.attempted, m.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run; returns its `row` lines as `(name, value)` when it
/// exited cleanly.
fn child(workload: &str, extra: &[String], show: bool) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .arg("--workload")
        .arg(workload)
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if show {
        for line in stdout
            .lines()
            .filter(|l| l.starts_with("row ") || l.starts_with("note "))
        {
            println!("{line}");
        }
    }
    if !output.status.success() {
        eprintln!(
            "workload {workload} {extra:?} exited with {}",
            output.status
        );
        return None;
    }
    Some(
        stdout
            .lines()
            .filter_map(|l| {
                let mut f = l.strip_prefix("row ")?.split_whitespace().skip(1);
                Some((f.next()?.to_string(), f.next()?.parse().ok()?))
            })
            .collect(),
    )
}

/// Runs every workload, each in its own process, end to end and traced.
fn run_all(args: &Args) -> bool {
    let mut extra = vec!["--seed".to_string(), args.seed.to_string()];
    if let Some(s) = args.seconds {
        extra.extend(["--seconds".to_string(), s.to_string()]);
    }
    if args.quick {
        extra.push("--quick".into());
    }
    if args.bless {
        extra.push("--bless".into());
    }
    let traces = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for &trace in &traces {
            let mut extra = extra.clone();
            extra.extend(["--trace".to_string(), u8::from(trace).to_string()]);
            ok &= child(workload, &extra, true).is_some();
        }
    }
    if ok {
        println!("all workloads correct");
    } else {
        eprintln!("at least one workload failed its output checks");
    }
    ok
}

/// Two sets of end-to-end runs of the same code, compared by the rule
/// the benchmark's acceptance uses, then one quick run off the blessed
/// seed to show the oracles hold there too.
fn selfcheck(runs: usize, seconds: Option<f64>) -> ExitCode {
    let mut ok = true;
    // (set, workload, metric) → one value per clean run.
    let mut values: BTreeMap<(usize, &str, String), Vec<f64>> = BTreeMap::new();
    for set in 0..2 {
        for workload in WORKLOADS {
            for i in 0..runs {
                let mut extra = vec![
                    "--seed".to_string(),
                    (DEFAULT_SEED + i as u64).to_string(),
                    "--trace".to_string(),
                    "0".to_string(),
                ];
                if let Some(s) = seconds {
                    extra.extend(["--seconds".to_string(), s.to_string()]);
                }
                match child(workload, &extra, false) {
                    Some(rows) => {
                        for (name, value) in rows {
                            values.entry((set, workload, name)).or_default().push(value);
                        }
                    }
                    None => ok = false,
                }
                eprintln!(
                    "selfcheck: set {} {workload} run {}/{runs} done",
                    set + 1,
                    i + 1
                );
            }
        }
    }
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "spread1", "spread2", "bound"
    );
    for workload in WORKLOADS {
        for e in &END_TO_END {
            let of_set = |set: usize| -> Vec<f64> {
                values
                    .get(&(set, workload, e.name.to_string()))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (of_set(0), of_set(1));
            if a.len() < 2 || b.len() < 2 {
                println!("{workload:<16} {:<14} too few clean runs", e.name);
                ok = false;
                continue;
            }
            let list = |xs: &[f64]| {
                let shown: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
                shown.join(" ")
            };
            println!(
                "runs {workload} {} set1: {} | set2: {}",
                e.name,
                list(&a),
                list(&b)
            );
            let (m1, m2) = (stats::median(&a), stats::median(&b));
            let (s1, s2) = (stats::spread_share(&a), stats::spread_share(&b));
            let worse = match e.better {
                Better::Lower => m2 / m1 - 1.0,
                Better::Higher => 1.0 - m2 / m1,
            };
            // Set-up time is exempt from the spread rule, not from the
            // median rule.
            let steady = e.name == "setup_s" || (s1 <= e.bound && s2 <= e.bound);
            let agree = steady && worse <= e.bound;
            ok &= agree;
            println!(
                "{workload:<16} {:<14} {m1:>12.4} {m2:>12.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                e.name,
                s1 * 100.0,
                s2 * 100.0,
                e.bound * 100.0,
                if agree { "agree" } else { "unresolved" }
            );
        }
    }
    eprintln!(
        "selfcheck: quick run at seed {} (goldens skipped, oracles on)",
        DEFAULT_SEED + 1
    );
    let quick = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED + 1,
        seconds: None,
        trace: None,
        quick: true,
        bless: false,
        selfcheck: None,
    };
    ok &= run_all(&quick);
    if ok {
        println!("selfcheck: every end-to-end metric agrees on every workload");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: unresolved metrics or failed runs above");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let threads = pin_threads();
    if let Some(runs) = args.selfcheck {
        return selfcheck(runs, args.seconds);
    }
    if args.workload == "all" {
        return if run_all(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    run_workload(&args, threads)
}
