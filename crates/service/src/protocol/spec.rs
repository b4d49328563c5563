//! What a job is and how it is spelled: [`TopoRef`], [`JobKind`],
//! [`JobSpec`], the `SUBMIT` argument grammar in both directions, and the
//! size limits a spec must respect when it arrives off the wire.

use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::{rngs::StdRng, SeedableRng};

/// How a job names its network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoRef {
    /// A topology previously uploaded with `ADDTOPO`, by fingerprint.
    Registered(u64),
    /// The paper's designed 24-switch network (four rings of six).
    Paper24,
    /// `ring:<switches>:<hosts_per_switch>`.
    Ring {
        /// Switch count.
        switches: usize,
        /// Workstations per switch.
        hosts: usize,
    },
    /// `random:<switches>:<degree>:<hosts_per_switch>:<seed>`.
    Random {
        /// Switch count.
        switches: usize,
        /// Inter-switch degree.
        degree: usize,
        /// Workstations per switch.
        hosts: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// Tabu-search a balanced workload; report partition and quality.
    Schedule {
        /// Number of equal applications.
        clusters: usize,
        /// Search seed.
        seed: u64,
    },
    /// Schedule, then run the paper's S1..S9 load sweep on the mapping.
    Sweep {
        /// Number of equal applications.
        clusters: usize,
        /// Search seed.
        seed: u64,
        /// Simulation points.
        points: usize,
    },
    /// Do nothing and complete immediately. Exists so load generators
    /// can exercise the protocol/queue/WAL path without the cost of a
    /// schedule; `topo=` defaults to `paper24` and is never resolved.
    Noop,
}

/// A fully parsed job request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// The network to work on.
    pub topo: TopoRef,
    /// Up*/down* root (the only routing parameter the protocol exposes;
    /// `shortest` selects shortest-path routing instead).
    pub routing: crate::cache::RoutingSpec,
    /// Mapping pipeline: the paper's flat tabu (`strategy=flat`, the
    /// default) or the coarsen→map→refine pipeline
    /// (`strategy=multilevel`).
    pub strategy: commsched_search::MapStrategy,
    /// The computation.
    pub kind: JobKind,
}

impl Default for JobSpec {
    /// The spec `SUBMIT NOOP` parses to: every key at its documented
    /// default. Construction sites override the fields they care about.
    fn default() -> Self {
        Self {
            topo: TopoRef::Paper24,
            routing: crate::cache::RoutingSpec::UpDown { root: 0 },
            strategy: commsched_search::MapStrategy::Flat,
            kind: JobKind::Noop,
        }
    }
}

/// Most switches a builtin `topo=ring:…|random:…` spelling may ask the
/// daemon to generate: the largest network this repository measures. An
/// *uploaded* network is bounded by the frame-payload cap instead.
pub const MAX_WIRE_SWITCHES: usize = 4096;
/// Most workstations per switch (and most inter-switch links per switch)
/// a builtin spelling may ask for.
pub const MAX_WIRE_FANOUT: usize = 64;
/// Most simulation points one `SWEEP` may ask for (each is a full run).
pub const MAX_WIRE_POINTS: usize = 64;

fn within(what: &str, value: usize, max: usize) -> Result<(), String> {
    if value > max {
        return Err(format!("limit-exceeded: {what} {value} > {max}"));
    }
    Ok(())
}

impl TopoRef {
    /// Build the network a builtin spelling names: the one constructor
    /// site under the daemon's topology resolution and the CLI's local runs.
    ///
    /// # Errors
    /// The shape is infeasible, or `self` is a fingerprint (that names a
    /// daemon's registry entry, not a constructor).
    pub fn build(&self) -> Result<Topology, String> {
        match *self {
            TopoRef::Registered(fp) => Err(format!("unknown-topology {}", format_fingerprint(fp))),
            TopoRef::Paper24 => Ok(designed::paper_24_switch()),
            TopoRef::Ring { switches, hosts } => {
                designed::try_ring(switches, hosts).map_err(|e| e.to_string())
            }
            TopoRef::Random {
                switches,
                degree,
                hosts,
                seed,
            } => {
                let cfg = RandomTopologyConfig {
                    degree,
                    hosts_per_switch: hosts,
                    ..RandomTopologyConfig::paper(switches)
                };
                random_regular(cfg, &mut StdRng::seed_from_u64(seed)).map_err(|e| e.to_string())
            }
        }
    }

    /// Refuse a builtin spelling whose generated network a client sized
    /// freely (`ring:10^9:1` would allocate the network, then an N² table,
    /// inside a worker). Applied where requests enter from the wire, not
    /// in [`parse_job_spec`]: a record an older daemon logged must still
    /// recover.
    ///
    /// # Errors
    /// `limit-exceeded: <what> <value> > <max>`.
    pub fn check_wire_limits(&self) -> Result<(), String> {
        let (switches, degree, hosts) = match *self {
            TopoRef::Registered(_) | TopoRef::Paper24 => return Ok(()),
            TopoRef::Ring { switches, hosts } => (switches, 2, hosts),
            TopoRef::Random {
                switches,
                degree,
                hosts,
                ..
            } => (switches, degree, hosts),
        };
        within("switches", switches, MAX_WIRE_SWITCHES)?;
        within("degree", degree, MAX_WIRE_FANOUT)?;
        within("hosts", hosts, MAX_WIRE_FANOUT)
    }
}

impl JobSpec {
    /// The single door for a job off the wire — a `SUBMIT` line, an
    /// `OP_REQ` frame, a batch entry: parse the argument words, refuse
    /// a retired key that asks for something, then apply the wire
    /// limits. ([`parse_job_spec`] is the log's door: no limits, and a
    /// retired key an older daemon logged is ignored.)
    ///
    /// # Errors
    /// The parse error; `unsupported: <key> <value> (<why>)` for a
    /// non-zero `approx-eps` or `mem`, or any `deadline-ms`; or
    /// `limit-exceeded: <what> <value> > <max>`.
    pub fn from_wire(words: &[&str]) -> Result<Self, String> {
        let (spec, refusal) = parse_submit(words)?;
        if let Some(refusal) = refusal {
            return Err(refusal);
        }
        spec.check_wire_limits()?;
        Ok(spec)
    }

    /// [`TopoRef::check_wire_limits`] plus the `points=` cap of a sweep.
    ///
    /// # Errors
    /// `limit-exceeded: <what> <value> > <max>`.
    pub fn check_wire_limits(&self) -> Result<(), String> {
        self.topo.check_wire_limits()?;
        match self.kind {
            JobKind::Sweep { points, .. } => within("points", points, MAX_WIRE_POINTS),
            JobKind::Schedule { .. } | JobKind::Noop => Ok(()),
        }
    }
}

/// Render a fingerprint the way the protocol spells it (16 hex digits).
pub fn format_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parse a protocol-spelled fingerprint.
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

pub(super) fn parse_topo_ref(value: &str) -> Result<TopoRef, String> {
    let mut parts = value.split(':');
    let head = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let num = |s: &str, what: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad {what} in topo '{value}'"))
    };
    match (head, rest.as_slice()) {
        ("paper24", []) => Ok(TopoRef::Paper24),
        ("fp", [hex]) => parse_fingerprint(hex)
            .map(TopoRef::Registered)
            .ok_or_else(|| format!("bad fingerprint '{hex}'")),
        ("ring", [s, h]) => Ok(TopoRef::Ring {
            switches: num(s, "switches")?,
            hosts: num(h, "hosts")?,
        }),
        ("random", [s, d, h, seed]) => Ok(TopoRef::Random {
            switches: num(s, "switches")?,
            degree: num(d, "degree")?,
            hosts: num(h, "hosts")?,
            seed: seed
                .parse()
                .map_err(|_| format!("bad seed in topo '{value}'"))?,
        }),
        _ => Err(format!("unknown topo '{value}'")),
    }
}

/// Why the wire refuses a well-formed value of a retired key, or `None`
/// when the value asks for nothing: an approximate table (a non-zero
/// `approx-eps`), a deadline (any `deadline-ms`) or a memory charge (a
/// non-zero `mem`).
fn retired_key_refusal(key: &str, value: &str) -> Result<Option<&'static str>, String> {
    let bad = || format!("bad {key} '{value}'");
    if key == "approx-eps" {
        let eps: f64 = value.parse().map_err(|_| bad())?;
        if !eps.is_finite() || eps < 0.0 {
            return Err(bad());
        }
        return Ok((eps != 0.0).then_some("tables are exact"));
    }
    let n: u64 = value.parse().map_err(|_| bad())?;
    let asks = key == "deadline-ms" || n != 0;
    Ok(asks.then_some("the daemon does no online placement"))
}

/// The spec, and the `unsupported:` refusal of the first retired key it
/// named with a value that asks for something: the log's door ignores
/// it, the wire's returns it. Older daemons logged all three retired
/// keys.
fn parse_submit(words: &[&str]) -> Result<(JobSpec, Option<String>), String> {
    let Some((&kind_word, kv)) = words.split_first() else {
        return Err("SUBMIT needs a job type".into());
    };
    let mut topo = None;
    let mut routing = crate::cache::RoutingSpec::UpDown { root: 0 };
    let mut strategy = commsched_search::MapStrategy::Flat;
    let mut refusal = None;
    let mut clusters = 4usize;
    let mut seed = 42u64;
    let mut points = 9usize;
    for &word in kv {
        let Some((key, value)) = word.split_once('=') else {
            return Err(format!("expected key=value, got '{word}'"));
        };
        match key {
            "topo" => topo = Some(parse_topo_ref(value)?),
            "routing" => routing = value.parse()?,
            "strategy" => strategy = value.parse()?,
            "clusters" => {
                clusters = value
                    .parse()
                    .map_err(|_| format!("bad clusters '{value}'"))?;
            }
            "seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "points" => points = value.parse().map_err(|_| format!("bad points '{value}'"))?,
            "approx-eps" | "deadline-ms" | "mem" => {
                if let Some(why) = retired_key_refusal(key, value)? {
                    if refusal.is_none() {
                        refusal = Some(format!("unsupported: {key} {value} ({why})"));
                    }
                }
            }
            other => return Err(format!("unknown key '{other}'")),
        }
    }
    let kind = match kind_word {
        "SCHEDULE" => JobKind::Schedule { clusters, seed },
        "SWEEP" => JobKind::Sweep {
            clusters,
            seed,
            points,
        },
        "NOOP" => JobKind::Noop,
        other => return Err(format!("unknown job type '{other}'")),
    };
    // NOOP never touches its topology, so the reference may be omitted.
    let topo = match (topo, &kind) {
        (Some(t), _) => t,
        (None, JobKind::Noop) => TopoRef::Paper24,
        (None, _) => return Err("SUBMIT needs topo=...".into()),
    };
    let spec = JobSpec {
        topo,
        routing,
        strategy,
        kind,
    };
    Ok((spec, refusal))
}

/// Render a [`TopoRef`] the way `SUBMIT`'s `topo=` argument spells it
/// ([`parse_job_spec`] round-trips it).
pub fn format_topo_ref(topo: &TopoRef) -> String {
    match topo {
        TopoRef::Registered(fp) => format!("fp:{}", format_fingerprint(*fp)),
        TopoRef::Paper24 => "paper24".to_string(),
        TopoRef::Ring { switches, hosts } => format!("ring:{switches}:{hosts}"),
        TopoRef::Random {
            switches,
            degree,
            hosts,
            seed,
        } => format!("random:{switches}:{degree}:{hosts}:{seed}"),
    }
}

/// Render a [`JobSpec`] as the argument words of a `SUBMIT` request,
/// every parameter spelled explicitly. The WAL persists jobs in this
/// spelling, so a state directory stays readable with the protocol
/// docs in hand.
pub fn format_job_spec(spec: &JobSpec) -> String {
    let topo = format_topo_ref(&spec.topo);
    let routing = spec.routing;
    let strategy = spec.strategy;
    match spec.kind {
        JobKind::Schedule { clusters, seed } => format!(
            "SCHEDULE topo={topo} routing={routing} strategy={strategy} \
             clusters={clusters} seed={seed}"
        ),
        JobKind::Sweep {
            clusters,
            seed,
            points,
        } => format!(
            "SWEEP topo={topo} routing={routing} strategy={strategy} \
             clusters={clusters} seed={seed} points={points}"
        ),
        JobKind::Noop => format!("NOOP topo={topo} routing={routing}"),
    }
}

/// Parse the argument words of a `SUBMIT` request (the job-spec half of
/// the line, without the `SUBMIT` verb). Inverse of [`format_job_spec`].
/// A well-formed retired key an older daemon logged (`approx-eps`, which
/// it wrote into every spec, `deadline-ms`, `mem`) is accepted and
/// ignored: the job runs on the exact table, admitted by the queue bound
/// alone.
///
/// # Errors
/// Returns a human-readable message on malformed input.
pub fn parse_job_spec(text: &str) -> Result<JobSpec, String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    parse_submit(&words).map(|(spec, _)| spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_keys_are_ignored_from_the_log_and_refused_from_the_wire() {
        let wire = |text: &str| JobSpec::from_wire(&text.split_whitespace().collect::<Vec<_>>());
        let plain = "SCHEDULE topo=paper24 strategy=multilevel clusters=4 seed=7";
        let with = |keys: &str| plain.replace("clusters", &format!("{keys} clusters"));
        let spec = parse_job_spec(plain).unwrap();
        let placement = "the daemon does no online placement";
        // Keys that ask for something, and the wire's refusal of each:
        // the first such key a spec names is the one refused.
        for (keys, refusal) in [
            (
                "approx-eps=0.05",
                "approx-eps 0.05 (tables are exact)".into(),
            ),
            (
                "deadline-ms=60000",
                format!("deadline-ms 60000 ({placement})"),
            ),
            ("deadline-ms=0", format!("deadline-ms 0 ({placement})")),
            ("mem=1", format!("mem 1 ({placement})")),
            (
                "approx-eps=0 mem=0 deadline-ms=5 mem=9",
                format!("deadline-ms 5 ({placement})"),
            ),
        ] {
            // The log's door: an older daemon's record runs as the same
            // job, on the exact table, admitted by the queue bound alone.
            assert_eq!(parse_job_spec(&with(keys)), Ok(spec), "{keys}");
            assert_eq!(
                wire(&with(keys)),
                Err(format!("unsupported: {refusal}")),
                "{keys}"
            );
        }
        // Asking for nothing is not refused, and nothing is spelled back.
        assert_eq!(wire(&with("approx-eps=0 mem=0")), Ok(spec));
        for key in ["approx-eps", "deadline-ms", "mem="] {
            assert!(!format_job_spec(&spec).contains(key));
        }
        for (key, bad) in [
            ("approx-eps", "-0.5"),
            ("approx-eps", "nan"),
            ("approx-eps", "inf"),
            ("approx-eps", "five"),
            ("deadline-ms", "soon"),
            ("deadline-ms", "-1"),
            ("mem", "lots"),
            ("mem", "-4"),
        ] {
            let want = Err(format!("bad {key} '{bad}'"));
            assert_eq!(parse_job_spec(&with(&format!("{key}={bad}"))), want);
            assert_eq!(wire(&with(&format!("{key}={bad}"))), want);
        }
    }
}
