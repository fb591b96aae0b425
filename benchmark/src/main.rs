//! `pds2-benchmark`: one end-to-end marketplace benchmark.
//!
//! With `--workload W` it runs that workload in this process and prints
//! every metric by name, then one JSON result line (the contract the
//! repository's `BENCHMARK.json` describes). Without it, it runs every
//! workload, each in a child process of its own so peak memory, the
//! signature cache and the metrics registry start clean. See README.md.

mod adapter;
mod clock;
mod common;
mod replay;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use common::RunCfg;
use report::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::Stages;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check: bool,
    spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        check: false,
        spec: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where trace files and reports go: `benchmark/out` of the checkout the
/// program is run from, else next to the package's manifest.
fn out_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload here and prints its metrics and the result line.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            0.4
        } else {
            spec::RUN_SECONDS as f64
        }),
        smoke: args.smoke,
    };
    // Read before the run holds the worker pool to one thread.
    let defaults = adapter::runtime_defaults();
    let mut stages = Stages::new(args.trace);
    let Some(report) = workloads::run(name, &cfg, &mut stages) else {
        eprintln!("unknown workload {name}; one of:");
        spec::WORKLOADS
            .iter()
            .for_each(|w| eprintln!("  {}", w.name));
        return ExitCode::from(2);
    };
    print_report(name, &cfg, &defaults, &report);
    if args.trace {
        let path = out_dir().join(format!("trace_{name}.json"));
        match stages.write_trace(&path, name) {
            Ok(()) => println!(
                "info trace_file {} ({} spans)",
                path.display(),
                stages.span_count()
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    let metrics: Vec<String> = if args.trace {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    report.layers.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(v)
                )
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let (v, _) = report.e2e.get(m.name).copied().unwrap_or_else(|| {
                    panic!(
                        "workload {name} did not report end-to-end metric {}",
                        m.name
                    )
                });
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(name: &str, cfg: &RunCfg, defaults: &[(&str, String)], report: &Report) {
    println!(
        "workload {name} seed {} seconds {} smoke {}",
        cfg.seed, cfg.seconds, cfg.smoke
    );
    for (k, v) in defaults {
        println!("info runtime.default.{k} {v}");
    }
    println!("info runtime.threads_in_effect 1");
    let readings = clock::readings();
    println!(
        "info clock.kernel_us reference {} this run: fastest {:.1} median {:.1} slowest {:.1} n={}",
        clock::REFERENCE_KERNEL_US,
        stats::percentile(&readings, 0.0),
        stats::median(&readings),
        stats::percentile(&readings, 100.0),
        readings.len()
    );
    println!(
        "info clock.wall_per_calibrated {:.4}",
        clock::wall_per_calibrated()
    );
    for (k, v) in &report.info {
        println!("info {k} {v}");
    }
    for m in spec::END_TO_END {
        if let Some((v, n)) = report.e2e.get(m.name) {
            println!(
                "metric {} {v} {} n={n} better={} bound={}",
                m.name, m.unit, m.better, m.bound
            );
        }
    }
    for m in spec::PER_LAYER {
        if let Some(v) = report.layers.get(m.name) {
            println!("layer {} {v} {} better={}", m.name, m.unit, m.better);
        }
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "metric failed_share {share} ratio n={} better=lower bound=exact",
        report.attempted
    );
    for v in &report.violations {
        println!("VIOLATION {v}");
    }
}

/// End-to-end metrics of one child run, read back from its `metric` lines.
type Metrics = BTreeMap<String, f64>;

fn run_child(workload: &str, args: &Args, seed: u64) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return Err(format!("workload {workload} exited with {}", out.status));
    }
    Ok(stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect())
}

fn host_fingerprint() -> Vec<(String, String)> {
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = vec![
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("cpu".to_string(), cpu),
        ("rustc".to_string(), first_line("rustc", &["--version"])),
        (
            "git_commit".to_string(),
            first_line("git", &["rev-parse", "HEAD"]),
        ),
    ];
    out.extend(
        adapter::runtime_defaults()
            .into_iter()
            .map(|(k, v)| (format!("runtime.{k}"), v)),
    );
    out
}

/// Runs every workload in a child process each; with `--check`, runs the
/// set twice and fails if any end-to-end metric moved by more than its
/// bound in its worse direction.
fn run_all(args: &Args) -> ExitCode {
    let started = std::time::Instant::now();
    for (k, v) in host_fingerprint() {
        println!("host {k} {v}");
    }
    let mut ok = true;
    let mut sets: Vec<BTreeMap<&str, Metrics>> = Vec::new();
    for _ in 0..if args.check { 2 } else { 1 } {
        let mut set = BTreeMap::new();
        for w in spec::WORKLOADS {
            match run_child(w.name, args, args.seed) {
                Ok(metrics) => {
                    set.insert(w.name, metrics);
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        sets.push(set);
    }
    if let [first, second] = sets.as_slice() {
        for w in spec::WORKLOADS {
            let (Some(a), Some(b)) = (first.get(w.name), second.get(w.name)) else {
                continue;
            };
            for m in spec::END_TO_END {
                let (Some(a), Some(b)) = (a.get(m.name), b.get(m.name)) else {
                    continue;
                };
                let worse = if m.better == "lower" {
                    b / a - 1.0
                } else {
                    a / b - 1.0
                };
                let verdict = if worse.abs() <= m.bound {
                    "ok"
                } else {
                    "MOVED"
                };
                println!(
                    "check {} {} first={a} second={b} moved={:.4} bound={} {verdict}",
                    w.name, m.name, worse, m.bound
                );
                ok &= worse.abs() <= m.bound;
            }
        }
    }
    println!("total_s {:.1}", started.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: pds2-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]] \
                 [--smoke] [--check] [--spec]"
            );
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}
