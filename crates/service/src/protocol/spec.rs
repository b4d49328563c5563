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
    /// Soft completion deadline in milliseconds from acceptance, from
    /// `deadline-ms=<u64>`; `None` (the default) means no deadline. The
    /// service reports attainment, it does not kill late jobs.
    pub deadline_ms: Option<u64>,
    /// Aggregate memory demand in bytes, from `mem=<u64>`. Admission
    /// charges it against the topology's per-switch memory capacities;
    /// 0 (the default) bypasses capacity accounting entirely.
    pub mem: u64,
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
            deadline_ms: None,
            mem: 0,
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
    /// an approximate table, then apply the wire limits.
    /// ([`parse_job_spec`] is the log's door: no limits, and an
    /// `approx-eps` an older daemon logged is ignored.)
    ///
    /// # Errors
    /// The parse error, `unsupported: approx-eps <x> (tables are exact)`
    /// for a non-zero `approx-eps`, or `limit-exceeded: <what> <value> >
    /// <max>`.
    pub fn from_wire(words: &[&str]) -> Result<Self, String> {
        let (spec, approx_eps) = parse_submit(words)?;
        if let Some(eps) = approx_eps {
            return Err(format!("unsupported: approx-eps {eps} (tables are exact)"));
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

/// `Some(value)` for the non-zero relative-error budget an approximate
/// table was once built at, `None` for zero.
fn parse_approx_eps(value: &str) -> Result<Option<&str>, String> {
    let eps: f64 = value
        .parse()
        .map_err(|_| format!("bad approx-eps '{value}'"))?;
    if !eps.is_finite() || eps < 0.0 {
        return Err(format!("bad approx-eps '{value}'"));
    }
    Ok((eps != 0.0).then_some(value))
}

/// The spec, and the non-zero `approx-eps` value it named, if any: the
/// log's door ignores it, the wire's refuses it.
fn parse_submit<'a>(words: &[&'a str]) -> Result<(JobSpec, Option<&'a str>), String> {
    let Some((&kind_word, kv)) = words.split_first() else {
        return Err("SUBMIT needs a job type".into());
    };
    let mut topo = None;
    let mut routing = crate::cache::RoutingSpec::UpDown { root: 0 };
    let mut strategy = commsched_search::MapStrategy::Flat;
    let mut approx_eps = None;
    let mut clusters = 4usize;
    let mut seed = 42u64;
    let mut points = 9usize;
    let mut deadline_ms: Option<u64> = None;
    let mut mem = 0u64;
    for &word in kv {
        let Some((key, value)) = word.split_once('=') else {
            return Err(format!("expected key=value, got '{word}'"));
        };
        match key {
            "topo" => topo = Some(parse_topo_ref(value)?),
            "routing" => routing = value.parse()?,
            "strategy" => strategy = value.parse()?,
            "approx-eps" => approx_eps = parse_approx_eps(value)?,
            "clusters" => {
                clusters = value
                    .parse()
                    .map_err(|_| format!("bad clusters '{value}'"))?;
            }
            "seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "points" => points = value.parse().map_err(|_| format!("bad points '{value}'"))?,
            "deadline-ms" => {
                deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad deadline-ms '{value}'"))?,
                );
            }
            "mem" => mem = value.parse().map_err(|_| format!("bad mem '{value}'"))?,
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
        deadline_ms,
        mem,
        kind,
    };
    Ok((spec, approx_eps))
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
    let mut out = match spec.kind {
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
    };
    // Spelled only when set so existing WAL records and tooling that
    // compare spellings byte-for-byte keep their pre-deadline shape.
    if let Some(ms) = spec.deadline_ms {
        out.push_str(&format!(" deadline-ms={ms}"));
    }
    if spec.mem != 0 {
        out.push_str(&format!(" mem={}", spec.mem));
    }
    out
}

/// Parse the argument words of a `SUBMIT` request (the job-spec half of
/// the line, without the `SUBMIT` verb). Inverse of [`format_job_spec`].
/// A well-formed `approx-eps` key, which an older daemon wrote into every
/// logged spec, is accepted and ignored: the job runs on the exact table.
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
    fn approx_eps_is_ignored_from_the_log_and_refused_from_the_wire() {
        let wire = |text: &str| JobSpec::from_wire(&text.split_whitespace().collect::<Vec<_>>());
        let plain = "SCHEDULE topo=paper24 strategy=multilevel clusters=4 seed=7";
        let with = |eps: &str| plain.replace("clusters", &format!("approx-eps={eps} clusters"));
        let spec = parse_job_spec(plain).unwrap();
        // The log's door: an older daemon's record runs on the exact table.
        assert_eq!(parse_job_spec(&with("0.05")), Ok(spec));
        assert!(!format_job_spec(&spec).contains("approx-eps"));
        // The wire's door: asking for an approximate table is refused,
        // asking for none is not.
        assert_eq!(
            wire(&with("0.05")),
            Err("unsupported: approx-eps 0.05 (tables are exact)".to_string())
        );
        assert_eq!(wire(&with("0")), Ok(spec));
        for bad in ["-0.5", "nan", "inf", "five"] {
            let want = Err(format!("bad approx-eps '{bad}'"));
            assert_eq!(parse_job_spec(&with(bad)), want);
            assert_eq!(wire(&with(bad)), want);
        }
    }
}
