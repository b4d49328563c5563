//! The names every later performance claim is made in: the metric
//! tables, the `result.json` schema and the environment block.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition. `bound` (end-to-end only) is the share of
/// the parent's median by which it may worsen before a change counts as
/// a regression. `BENCHMARK.json` lists exactly these, in this order.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the daemon sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 3] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("result_min_ms", "ms", Lower, 0.25),
    gated("fg_mean", "ratio", Lower, 0.25),
];

/// Single layers, from the layer replay and from live probes and
/// scrapes. No bounds: they explain a movement, they do not gate one.
pub const PER_LAYER: [MetricDef; 46] = [
    // What a user sees but the shared reference box cannot hold steady
    // (README, "Demotions"): reported, not gating.
    layer("jobs_per_s", "jobs/s", Higher),
    layer("result_p50_ms", "ms", Lower),
    layer("result_p90_ms", "ms", Lower),
    layer("ack_p50_ms", "ms", Lower),
    layer("peak_rss_mb", "MB", Lower),
    // Layer replay.
    layer("topology.parse_ms", "ms", Lower),
    layer("routing.build_ms", "ms", Lower),
    layer("distance.build_ms", "ms", Lower),
    layer("distance.pairs_per_s", "1/s", Higher),
    layer("search.flat_ms", "ms", Lower),
    layer("search.multilevel_ms", "ms", Lower),
    layer("search.evals_per_job", "count", Lower),
    layer("search.evals_per_s", "1/s", Higher),
    layer("core.quality_ms", "ms", Lower),
    layer("netsim.sweep_ms", "ms", Lower),
    layer("netsim.cycles_per_s.low", "1/s", Higher),
    layer("netsim.cycles_per_s.sat", "1/s", Higher),
    layer("netsim.flits_per_s.sat", "1/s", Higher),
    layer("netsim.digest_match", "ratio", Higher),
    layer("service.persist.accept_append_us", "us", Lower),
    layer("service.persist.cache_record_ms", "ms", Lower),
    // Live probes and scrapes.
    layer("net.ping_us", "us", Lower),
    layer("service.noop_ack_us", "us", Lower),
    layer("service.noop_result_us", "us", Lower),
    layer("service.queue.wait_ms_mean", "ms", Lower),
    layer("service.run_ms_mean", "ms", Lower),
    layer("service.worker_busy_share", "ratio", Higher),
    layer("service.cache.hit_share", "ratio", Higher),
    layer("service.persist.snapshot_ms_last", "ms", Lower),
    layer("service.persist.state_mb", "MB", Lower),
    layer("distance.builds", "count", Lower),
    layer("search.tabu_iterations_per_job", "count", Lower),
    layer("netsim.cycles_per_job", "count", Lower),
    layer("net.frames_per_job", "count", Lower),
    layer("net.bytes_per_job", "count", Lower),
    layer("client.overhead_ms_mean", "ms", Lower),
    layer("client.result_p99_ms", "ms", Lower),
    // How the layers add up.
    layer("result_p50_ms.untraced", "ms", Lower),
    layer("result_p50_ms.traced", "ms", Lower),
    layer("trace_overhead_share", "ratio", Lower),
    layer("layer_cover_share", "ratio", Higher),
    layer("share.search", "ratio", Lower),
    layer("share.netsim", "ratio", Lower),
    layer("share.persist", "ratio", Lower),
    layer("share.distance", "ratio", Lower),
    layer("setup_s.traced_run", "s", Lower),
];

/// One measured value. `value` is `None` when the metric does not apply
/// to the workload or the program does not expose the cell; `reason`
/// then says which.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: Option<f64>,
    pub unit: String,
    /// How many samples the value summarizes (jobs, probes, replays).
    pub samples: usize,
    pub reason: Option<String>,
}

impl Metric {
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::num(self.value)),
            ("unit", Json::str(&self.unit)),
            ("samples", Json::Num(self.samples as f64)),
        ];
        if let Some(r) = &self.reason {
            pairs.push(("reason", Json::str(r)));
        }
        Json::obj(pairs)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(Self {
            value: j.get("value").and_then(Json::as_f64),
            unit: field_str(j, "unit")?,
            samples: field_f64(j, "samples")? as usize,
            reason: j.get("reason").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// The metrics of one run, in table order.
pub type Metrics = Vec<(String, Metric)>;

fn metrics_to_json(m: &Metrics) -> Json {
    Json::obj(m.iter().map(|(k, v)| (k.clone(), v.to_json())))
}

fn metrics_from_json(j: Option<&Json>) -> Result<Metrics, String> {
    j.and_then(Json::as_obj)
        .ok_or("metrics object missing")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), Metric::from_json(v)?)))
        .collect()
}

/// All spans of one name in a traced run. A span's self time is its
/// duration minus what its children cover, so `job`'s self time is the
/// client-side slack no child span explains.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    pub name: String,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// One workload's section of `result.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: String,
    pub why: String,
    /// Whether `BENCHMARK.json` lists the workload.
    pub gated: bool,
    pub attempted: usize,
    pub failed: usize,
    /// First few failure reasons, for a reader of the file.
    pub failures: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Digests of the pinned simulator cases (sweep workloads only).
    pub netsim_digests: Vec<(String, String)>,
    pub spans: Vec<SpanTotal>,
}

/// Where and how the numbers were taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    pub git_rev: String,
    pub git_dirty: bool,
    pub nproc: usize,
    pub rustc: String,
    /// Filesystem type under the daemon's state directory: the cost of
    /// an fsync depends on it.
    pub state_fs: String,
    pub daemon_flags: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Wall time of the whole run, builds excluded.
    pub wall_s: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub env: Env,
    pub workloads: Vec<WorkloadReport>,
}

fn field_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn field_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

fn field_bool(j: &Json, key: &str) -> Result<bool, String> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing bool '{key}'"))
}

impl Report {
    pub fn to_json(&self) -> Json {
        let e = &self.env;
        Json::obj([
            ("schema", Json::Num(1.0)),
            (
                "env",
                Json::obj([
                    ("git_rev", Json::str(&e.git_rev)),
                    ("git_dirty", Json::Bool(e.git_dirty)),
                    ("nproc", Json::Num(e.nproc as f64)),
                    ("rustc", Json::str(&e.rustc)),
                    ("state_fs", Json::str(&e.state_fs)),
                    ("daemon_flags", Json::str(&e.daemon_flags)),
                    ("seed", Json::Num(e.seed as f64)),
                    ("seconds", Json::Num(e.seconds)),
                    ("smoke", Json::Bool(e.smoke)),
                    ("wall_s", Json::Num(e.wall_s)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::str(&w.name)),
                                ("why", Json::str(&w.why)),
                                ("gated", Json::Bool(w.gated)),
                                ("attempted", Json::Num(w.attempted as f64)),
                                ("failed", Json::Num(w.failed as f64)),
                                (
                                    "failures",
                                    Json::Arr(w.failures.iter().map(Json::str).collect()),
                                ),
                                ("end_to_end", metrics_to_json(&w.end_to_end)),
                                ("per_layer", metrics_to_json(&w.per_layer)),
                                (
                                    "netsim_digests",
                                    Json::obj(
                                        w.netsim_digests
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::str(v))),
                                    ),
                                ),
                                (
                                    "spans",
                                    Json::Arr(
                                        w.spans
                                            .iter()
                                            .map(|s| {
                                                Json::obj([
                                                    ("name", Json::str(&s.name)),
                                                    ("count", Json::Num(s.count as f64)),
                                                    ("total_ms", Json::Num(s.total_ms)),
                                                    ("self_ms", Json::Num(s.self_ms)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// # Errors
    /// Names the first field that is missing or has the wrong type.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        if field_f64(j, "schema")? != 1.0 {
            return Err("unknown result.json schema".into());
        }
        let e = j.get("env").ok_or("missing 'env'")?;
        let env = Env {
            git_rev: field_str(e, "git_rev")?,
            git_dirty: field_bool(e, "git_dirty")?,
            nproc: field_f64(e, "nproc")? as usize,
            rustc: field_str(e, "rustc")?,
            state_fs: field_str(e, "state_fs")?,
            daemon_flags: field_str(e, "daemon_flags")?,
            seed: field_f64(e, "seed")? as u64,
            seconds: field_f64(e, "seconds")?,
            smoke: field_bool(e, "smoke")?,
            wall_s: field_f64(e, "wall_s")?,
        };
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing 'workloads'")?
            .iter()
            .map(|w| {
                Ok(WorkloadReport {
                    name: field_str(w, "name")?,
                    why: field_str(w, "why")?,
                    gated: field_bool(w, "gated")?,
                    attempted: field_f64(w, "attempted")? as usize,
                    failed: field_f64(w, "failed")? as usize,
                    failures: w
                        .get("failures")
                        .and_then(Json::as_arr)
                        .ok_or("missing 'failures'")?
                        .iter()
                        .filter_map(|f| f.as_str().map(str::to_string))
                        .collect(),
                    end_to_end: metrics_from_json(w.get("end_to_end"))?,
                    per_layer: metrics_from_json(w.get("per_layer"))?,
                    netsim_digests: w
                        .get("netsim_digests")
                        .and_then(Json::as_obj)
                        .ok_or("missing 'netsim_digests'")?
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                        .collect(),
                    spans: w
                        .get("spans")
                        .and_then(Json::as_arr)
                        .ok_or("missing 'spans'")?
                        .iter()
                        .map(|s| {
                            Ok(SpanTotal {
                                name: field_str(s, "name")?,
                                count: field_f64(s, "count")? as usize,
                                total_ms: field_f64(s, "total_ms")?,
                                self_ms: field_f64(s, "self_ms")?,
                            })
                        })
                        .collect::<Result<_, String>>()?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { env, workloads })
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(revision, dirty)` of the checkout; `("unknown", false)` outside a
/// git repository (the driver's checkouts are plain directories).
pub fn git_state() -> (String, bool) {
    match command_line("git", &["rev-parse", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty =
                command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        _ => ("unknown".to_string(), false),
    }
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    fs_type_from_mountinfo(&info, &abs).unwrap_or_else(|| "unknown".to_string())
}

fn fs_type_from_mountinfo(info: &str, abs: &Path) -> Option<String> {
    info.lines()
        .filter_map(|line| {
            // `<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> ...`
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            abs.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_report() -> Report {
        let metric = |value, unit: &str, samples, reason: Option<&str>| Metric {
            value,
            unit: unit.to_string(),
            samples,
            reason: reason.map(str::to_string),
        };
        Report {
            env: Env {
                git_rev: "cdbd016".into(),
                git_dirty: true,
                nproc: 2,
                rustc: "rustc 1.0".into(),
                state_fs: "ext4".into(),
                daemon_flags: "--workers 2".into(),
                seed: 7,
                seconds: 20.0,
                smoke: false,
                wall_s: 123.456,
            },
            workloads: vec![WorkloadReport {
                name: "paper_warm".into(),
                why: "front end \"dominates\"".into(),
                gated: false,
                attempted: 10,
                failed: 1,
                failures: vec!["job 3: cluster 0 holds 7".into()],
                end_to_end: vec![("result_p50_ms".into(), metric(Some(3.25), "ms", 9, None))],
                per_layer: vec![
                    ("net.ping_us".into(), metric(Some(41.5), "us", 200, None)),
                    (
                        "netsim.sweep_ms".into(),
                        metric(None, "ms", 0, Some("workload runs no sweep")),
                    ),
                ],
                netsim_digests: vec![("paper24".into(), "00ff".into())],
                spans: vec![SpanTotal {
                    name: "client.wait".into(),
                    count: 9,
                    total_ms: 30.5,
                    self_ms: 30.5,
                }],
            }],
        }
    }

    #[test]
    fn result_json_round_trips_through_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let back = Report::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        // A null value keeps its reason and stays null.
        assert!(text.contains("\"value\": null"));
        assert!(text.contains("workload runs no sweep"));
    }

    #[test]
    fn schema_errors_name_the_missing_field() {
        let mut j = sample_report().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "env");
        }
        assert!(Report::from_json(&j).unwrap_err().contains("env"));
        assert!(Report::from_json(&Json::obj([("schema", Json::Num(2.0))])).is_err());
    }

    #[test]
    fn metric_names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let j = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        field_str(m, "name").unwrap(),
                        field_str(m, "unit").unwrap(),
                        field_str(m, "better").unwrap(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|m| {
                    (
                        m.name.into(),
                        m.unit.into(),
                        m.better.as_str().into(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let names: Vec<String> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field_str(w, "name").unwrap())
            .collect();
        let specs: Vec<&str> = crate::workload::WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names, specs);
    }

    #[test]
    fn mountinfo_longest_prefix_wins() {
        let info = "22 1 8:1 / / rw - ext4 /dev/sda1 rw\n30 22 0:25 / /tmp rw - tmpfs tmpfs rw\n";
        let fs = |p: &str| fs_type_from_mountinfo(info, Path::new(p));
        assert_eq!(fs("/tmp/x/y").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/home/u").as_deref(), Some("ext4"));
    }
}
