//! The repo's benchmark: real SCHEDULE / SWEEP jobs through a real
//! `commsched serve`, SUBMIT to result, with a per-layer breakdown.
//! `benchmark/run.sh` builds both binaries and runs this one; see
//! `benchmark/README.md` for every workload and metric.

mod check;
mod daemon;
mod drive;
mod json;
mod measure;
mod probe;
mod replay;
mod report;
mod span;
mod stats;
mod workload;

use json::Json;
use measure::{run_end_to_end, run_per_layer, RunConfig, RunOutcome};
use report::{Env, Metrics, Report, WorkloadReport, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Spec, WORKLOADS};

const USAGE: &str = "\
usage: benchmark/run.sh [--seed S] [--only WORKLOAD] [--smoke] [--repeat K] [--out DIR]
           all workloads, end-to-end then per-layer; writes <out>/result.json
       benchmark/run.sh --spread A.json B.json ...
           no run: spread of the end-to-end metrics over result files
       benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
           one run of one workload; the last stdout line is its JSON result
workloads: paper_warm large_warm large_cold sweep_sim";

#[derive(Debug)]
struct Args {
    daemon_bin: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    seconds: Option<f64>,
    workload: Option<String>,
    trace: Option<bool>,
    only: Option<String>,
    smoke: bool,
    repeat: usize,
    /// Result files to compare instead of running anything.
    spread: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        daemon_bin: PathBuf::from("target/release/commsched"),
        out_dir: PathBuf::from("benchmark/out"),
        seed: 1,
        seconds: None,
        workload: None,
        trace: None,
        only: None,
        smoke: false,
        repeat: 1,
        spread: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--daemon" => a.daemon_bin = value()?.into(),
            "--out" => a.out_dir = value()?.into(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--workload" => a.workload = Some(value()?),
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0|1)")),
                })
            }
            "--only" => a.only = Some(value()?),
            "--smoke" => a.smoke = true,
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|_| "bad --repeat")?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--spread" => {
                a.spread = it.by_ref().map(PathBuf::from).collect();
                if a.spread.len() < 2 {
                    return Err("--spread needs at least two result files".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    for name in a.workload.iter().chain(&a.only) {
        if workload::find(name).is_none() {
            return Err(format!("unknown workload '{name}'"));
        }
    }
    Ok(a)
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("  {title}");
    for (name, m) in metrics {
        match m.value {
            Some(v) => println!("    {name:<36} {v:>14.4} {:<7} (n={})", m.unit, m.samples),
            None => println!(
                "    {name:<36} {:>14} {:<7} ({})",
                "null",
                m.unit,
                m.reason.as_deref().unwrap_or("")
            ),
        }
    }
}

fn print_spans(outcome: &RunOutcome) {
    println!("  spans of the traced window and the replay (self = duration minus children)");
    for s in &outcome.span_totals {
        println!(
            "    {:<36} n={:<6} total {:>12.3} ms  self {:>12.3} ms",
            s.name, s.count, s.total_ms, s.self_ms
        );
    }
}

fn print_failures(outcome: &RunOutcome) {
    println!(
        "  attempted {} failed {} failed_share {:.4}",
        outcome.attempted,
        outcome.failures.len(),
        outcome.failures.len() as f64 / outcome.attempted.max(1) as f64
    );
    for why in outcome.failures.iter().take(5) {
        println!("    FAILED {why}");
    }
}

/// One run of one workload for the driver. The last line printed is the
/// result object; a metric that does not apply to the workload reads 0
/// there (`result.json` has `null` and the reason).
fn driver_run(spec: &Spec, cfg: &RunConfig, trace: bool) -> Result<(), String> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        cfg.seed,
        cfg.seconds,
        u8::from(trace)
    );
    let outcome = if trace {
        run_per_layer(spec, cfg)?
    } else {
        run_end_to_end(spec, cfg)?
    };
    print_metrics(
        if trace { "per-layer" } else { "end-to-end" },
        &outcome.metrics,
    );
    if trace {
        print_spans(&outcome);
    }
    print_failures(&outcome);
    let metrics = Json::obj(outcome.metrics.iter().map(|(name, m)| {
        (
            name.clone(),
            Json::obj([
                ("value", Json::Num(m.value.unwrap_or(0.0))),
                ("unit", Json::str(&m.unit)),
            ]),
        )
    }));
    let line = Json::obj([
        (
            "correct",
            Json::Bool(outcome.failures.is_empty() && outcome.attempted > 0),
        ),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failures.len() as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// One full set: every selected workload, end-to-end then per-layer.
fn run_set(args: &Args, cfg: &RunConfig) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut workloads = Vec::new();
    for spec in WORKLOADS
        .iter()
        .filter(|w| args.only.as_deref().is_none_or(|only| only == w.name))
    {
        println!(
            "== {} ({}) — {}",
            spec.name,
            if spec.gated {
                "gated"
            } else {
                "measured, not gated"
            },
            spec.why
        );
        let e2e = run_end_to_end(spec, cfg)?;
        print_metrics("end-to-end (tracing off)", &e2e.metrics);
        print_failures(&e2e);
        let layers = run_per_layer(spec, cfg)?;
        print_metrics(
            "per-layer (probes, scrapes, traced window, replay)",
            &layers.metrics,
        );
        print_spans(&layers);
        print_failures(&layers);
        let mut failures = e2e.failures;
        failures.extend(layers.failures);
        let failed = failures.len();
        failures.truncate(20);
        workloads.push(WorkloadReport {
            name: spec.name.into(),
            why: spec.why.into(),
            gated: spec.gated,
            attempted: e2e.attempted + layers.attempted,
            failed,
            failures,
            end_to_end: e2e.metrics,
            per_layer: layers.metrics,
            netsim_digests: layers.netsim_digests,
            spans: layers.span_totals,
        });
    }
    let (git_rev, git_dirty) = report::git_state();
    Ok(Report {
        env: Env {
            git_rev,
            git_dirty,
            nproc: nproc(),
            rustc: report::rustc_version(),
            state_fs: report::fs_type(&cfg.out_dir),
            daemon_flags: format!(
                "serve {} --state-dir <fresh>",
                daemon::SERVE_FLAGS.join(" ")
            ),
            seed: cfg.seed,
            seconds: cfg.seconds,
            smoke: args.smoke,
            wall_s: t0.elapsed().as_secs_f64(),
        },
        workloads,
    })
}

fn print_env(env: &Env) {
    println!(
        "env: git_rev {}{} nproc {} {} state_fs {} seed {} seconds {} smoke {} wall_s {:.1}",
        env.git_rev,
        if env.git_dirty { "+dirty" } else { "" },
        env.nproc,
        env.rustc,
        env.state_fs,
        env.seed,
        env.seconds,
        env.smoke,
        env.wall_s
    );
    println!("env: daemon {}", env.daemon_flags);
}

fn write_report(report: &Report, path: &Path) -> Result<(), String> {
    std::fs::write(path, report.to_json().pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Per workload × end-to-end metric over the sets: the median, the
/// interquartile spread the driver computes (meaningful from four sets
/// up) and the gap between the best and the worst set, as shares of the
/// median, against the metric's bound.
fn print_spread(sets: &[Report]) {
    println!("== spread over {} sets (shares of the median)", sets.len());
    println!(
        "  {:<11} {:<14} {:<6} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "better", "median", "iqr", "gap", "bound"
    );
    let Some(first) = sets.first() else { return };
    for (w, workload) in first.workloads.iter().enumerate() {
        for def in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| {
                    let metrics = &set.workloads.get(w)?.end_to_end;
                    metrics.iter().find(|(n, _)| n == def.name)?.1.value
                })
                .collect();
            let Some(med) = stats::median(&values) else {
                continue;
            };
            let iqr = (values.len() >= 4)
                .then(|| stats::rel_spread(&values))
                .flatten();
            let gap = (values.iter().copied().fold(f64::MIN, f64::max)
                - values.iter().copied().fold(f64::MAX, f64::min))
                / med.abs();
            let bound = def.bound.expect("end-to-end metrics are bounded");
            println!(
                "  {:<11} {:<14} {:<6} {:>12.4} {:>8} {:>8.4} {:>6.2}{}",
                workload.name,
                def.name,
                def.better.as_str(),
                med,
                iqr.map_or("-".to_string(), |v| format!("{v:.4}")),
                gap,
                bound,
                if iqr.unwrap_or(gap) > bound {
                    "  EXCEEDS"
                } else {
                    ""
                }
            );
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if !args.spread.is_empty() {
        let sets = args
            .spread
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                Report::from_json(&json::parse(&text)?)
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        print_spread(&sets);
        return Ok(());
    }
    if nproc() < 2 {
        return Err(format!(
            "refusing to run on {} core: two closed-loop clients, two workers and the event loop need at least 2",
            nproc()
        ));
    }
    if !args.daemon_bin.is_file() {
        return Err(format!(
            "daemon binary {} not found (benchmark/run.sh builds it)",
            args.daemon_bin.display()
        ));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut cfg = RunConfig {
        daemon_bin: args.daemon_bin.clone(),
        out_dir: args.out_dir.clone(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 3.0 } else { 20.0 }),
        max_setups: if args.smoke { 1 } else { 15 },
        max_replay_jobs: if args.smoke { 2 } else { usize::MAX },
    };
    if let Some(name) = &args.workload {
        let spec = workload::find(name).expect("validated by parse_args");
        let trace = args.trace.ok_or("--workload needs --trace 0|1")?;
        return driver_run(spec, &cfg, trace);
    }
    let mut sets = Vec::new();
    for k in 0..args.repeat {
        if args.repeat > 1 {
            println!("==== set {} of {}", k + 1, args.repeat);
        }
        cfg.seed = args.seed;
        let report = run_set(&args, &cfg)?;
        print_env(&report.env);
        if args.repeat > 1 {
            write_report(
                &report,
                &args.out_dir.join(format!("result-{}.json", k + 1)),
            )?;
        }
        sets.push(report);
    }
    write_report(
        sets.last().expect("at least one set"),
        &args.out_dir.join("result.json"),
    )?;
    if sets.len() > 1 {
        print_spread(&sets);
    }
    let failed: usize = sets
        .iter()
        .flat_map(|s| &s.workloads)
        .map(|w| w.failed)
        .sum();
    if failed > 0 {
        return Err(format!("{failed} jobs failed their checks"));
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("commsched-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_suite_flags_parse() {
        let a = args(&[
            "--workload",
            "sweep_sim",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("sweep_sim"), 9, Some(20.0), Some(true))
        );
        let a = args(&[
            "--smoke",
            "--only",
            "paper_warm",
            "--repeat",
            "2",
            "--out",
            "x",
        ])
        .unwrap();
        assert!(a.smoke && a.repeat == 2 && a.out_dir == Path::new("x"));
        assert!(args(&["--workload", "nope", "--trace", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--repeat", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
