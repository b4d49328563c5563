//! The deterministic discrete-event scenario engine.
//!
//! Virtual time is in microseconds. Every event (arrival, finish) is
//! keyed `(time, sequence)` in a binary heap, so ties break in push
//! order and a run is a pure function of `(config, trace)` — including
//! the tabu thread count, because the search pool merges restarts in
//! seed order.
//!
//! ## Placement and speed model
//!
//! A job with `T` tasks needs `w = ceil(T / hosts_per_switch)` switches.
//! Admission carves the first `w` idle switches in index order
//! (first-fit — deliberately fragmenting, like a real free-list under
//! churn) subject to per-switch memory capacities: each occupied switch
//! commits `ceil(total_mem / w)` bytes. Tasks map round-robin onto the
//! job's sorted switch list; the job then runs at
//!
//! ```text
//! speed = 1 / (1 + β · W̄),   W̄ = Σ vol(a,b)·D(sw(a), sw(b)) / (Σ vol · D_max)
//! ```
//!
//! so a compact placement runs near speed 1 and a scattered one is
//! stretched by up to `1 + β`.
//!
//! ## Migration
//!
//! Under [`MigrationPolicy::Threshold`], every arrival and departure
//! triggers a warm-started remap ([`commsched_search::warm_remap`]):
//! the current job→switch clustering (plus one idle cluster) seeds the
//! tabu search, and the proposal is accepted iff the relative `F_G` gain
//! clears the cost bar
//!
//! ```text
//! (F_G_before − F_G_after) / F_G_before  ≥  X · cost / (bytes_resident · D_max)
//! ```
//!
//! where `cost = Σ bytes_moved · D(from, nearest new switch)` charges
//! every byte a *resident* job would have to ship (the job being placed
//! right now moves for free — its data has not landed yet). Proposals
//! that would overflow a switch's memory capacity are rejected outright.

use crate::report::SloReport;
use crate::trace::JobArrival;
use commsched_core::Partition;
use commsched_distance::{equivalent_distance_table, DistanceTable};
use commsched_routing::UpDownRouting;
use commsched_search::{warm_remap, TabuParams, TabuSearch};
use commsched_topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;

/// When (and whether) the engine may move running jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationPolicy {
    /// Static mapping: place once at admission, never remap. The
    /// baseline the SLO report compares against.
    Off,
    /// Remap on every arrival and departure; accept a proposal iff its
    /// relative `F_G` gain is at least `X` times the normalized
    /// migration cost.
    Threshold(f64),
}

impl MigrationPolicy {
    /// Parse the CLI spelling: `off` or `threshold:X`.
    ///
    /// # Errors
    /// A message naming the bad spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "off" {
            return Ok(Self::Off);
        }
        if let Some(x) = s.strip_prefix("threshold:") {
            let x: f64 = x
                .parse()
                .map_err(|_| format!("bad migration threshold '{x}'"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!("migration threshold must be >= 0, got {x}"));
            }
            return Ok(Self::Threshold(x));
        }
        Err(format!(
            "bad migration policy '{s}' (expected off | threshold:X)"
        ))
    }
}

impl fmt::Display for MigrationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Off => write!(f, "off"),
            Self::Threshold(x) => write!(f, "threshold:{x}"),
        }
    }
}

/// Everything that determines a scenario run besides the trace itself.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The network the jobs run on (capacitated or not).
    pub topology: Topology,
    /// Migration policy.
    pub migration: MigrationPolicy,
    /// Master seed: remap seeds derive from it deterministically.
    pub seed: u64,
    /// Tabu worker threads (0 = one per CPU; the result is identical
    /// for every value).
    pub threads: usize,
    /// Tabu restarts per warm remap. 1 means "warm descent only", which
    /// is the point of warm starting; more buys insurance at cost.
    pub remap_seeds: usize,
    /// Restarts for the cold reference search when [`Self::compare_cold`]
    /// is on (the budget a from-scratch mapping would use).
    pub cold_seeds: usize,
    /// Communication slowdown weight β in the speed model.
    pub beta: f64,
    /// Also run a cold (unseeded) search at every remap point and
    /// accumulate its iterations, for the warm-vs-cold benchmark gate.
    pub compare_cold: bool,
}

impl ScenarioConfig {
    /// Defaults for a given topology: migration off, seed 0, 1 thread,
    /// warm descent only, β = 3.
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            migration: MigrationPolicy::Off,
            seed: 0,
            threads: 1,
            remap_seeds: 1,
            cold_seeds: TabuParams::default().seeds,
            beta: 3.0,
            compare_cold: false,
        }
    }
}

/// Why a scenario could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The topology has no valid up*/down* routing (disconnected).
    Routing(String),
    /// The equivalent-distance table could not be built.
    Table(String),
    /// The trace is internally inconsistent.
    Trace(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Routing(e) => write!(f, "routing: {e}"),
            Self::Table(e) => write!(f, "distance table: {e}"),
            Self::Trace(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrival { job: usize },
    Finish { job: usize, version: u64 },
}

#[derive(Debug)]
struct Active {
    t_arrive: u64,
    switches: Vec<usize>,
    share: u64,
    remaining: f64,
    speed: f64,
    last_update: u64,
    version: u64,
}

struct Engine<'a> {
    cfg: &'a ScenarioConfig,
    trace: &'a [JobArrival],
    table: DistanceTable,
    max_d: f64,
    hosts: usize,
    caps: Option<Vec<u64>>,
    owner: Vec<Option<usize>>,
    committed: Vec<u64>,
    active: BTreeMap<usize, Active>,
    queue: VecDeque<usize>,
    heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    remap_count: u64,
    events: Vec<String>,
    responses: Vec<u64>,
    report: SloReport,
}

/// Run one scenario to completion and produce its SLO report. The run
/// is deterministic: same `(cfg, trace)` (including `cfg.threads` = any
/// value) ⇒ byte-identical event log and report.
///
/// # Errors
/// [`ScenarioError`] if the topology cannot be routed/tabled or the
/// trace is inconsistent with it.
pub fn run_scenario(
    cfg: &ScenarioConfig,
    trace: &[JobArrival],
) -> Result<SloReport, ScenarioError> {
    for (i, j) in trace.iter().enumerate() {
        j.validate()
            .map_err(|e| ScenarioError::Trace(format!("arrival {i}: {e}")))?;
    }
    let routing =
        UpDownRouting::new(&cfg.topology, 0).map_err(|e| ScenarioError::Routing(e.to_string()))?;
    let table = equivalent_distance_table(&cfg.topology, &routing)
        .map_err(|e| ScenarioError::Table(e.to_string()))?;
    let n = cfg.topology.num_switches();
    let max_d = table.max_distance().max(f64::MIN_POSITIVE);
    let mut eng = Engine {
        cfg,
        trace,
        table,
        max_d,
        hosts: cfg.topology.hosts_per_switch().max(1),
        caps: cfg.topology.mem_capacities().map(<[u64]>::to_vec),
        owner: vec![None; n],
        committed: vec![0; n],
        active: BTreeMap::new(),
        queue: VecDeque::new(),
        heap: BinaryHeap::new(),
        seq: 0,
        remap_count: 0,
        events: Vec::new(),
        responses: Vec::new(),
        report: SloReport::new(&cfg.migration.to_string()),
    };
    for (i, j) in trace.iter().enumerate() {
        eng.push(j.t_us, Ev::Arrival { job: i });
    }
    eng.run();
    Ok(eng.finish())
}

impl Engine<'_> {
    fn push(&mut self, t: u64, ev: Ev) {
        self.heap.push(Reverse((t, self.seq, ev)));
        self.seq += 1;
    }

    fn log(&mut self, line: String) {
        self.events.push(line);
    }

    fn width(&self, job: usize) -> usize {
        self.trace[job].mem.len().div_ceil(self.hosts)
    }

    fn share(&self, job: usize) -> u64 {
        let w = self.width(job) as u64;
        self.trace[job].total_mem().div_ceil(w)
    }

    /// Speed of `job` when its tasks are spread round-robin over
    /// `switches` (sorted): `1 / (1 + β·W̄)`.
    fn speed_of(&self, job: usize, switches: &[usize]) -> f64 {
        let arrival = &self.trace[job];
        let vol: u64 = arrival.total_volume();
        if vol == 0 || switches.len() < 2 {
            return 1.0;
        }
        let w = switches.len();
        let mut weighted = 0.0;
        for &(a, b, v) in &arrival.edges {
            weighted += v as f64 * self.table.get(switches[a % w], switches[b % w]);
        }
        let norm = weighted / (vol as f64 * self.max_d);
        1.0 / (1.0 + self.cfg.beta * norm)
    }

    /// A job no placement can ever satisfy (too wide, or its per-switch
    /// share exceeds every capacity).
    fn unsatisfiable(&self, job: usize) -> bool {
        let w = self.width(job);
        if w > self.owner.len() {
            return true;
        }
        match &self.caps {
            Some(caps) => {
                let share = self.share(job);
                caps.iter().filter(|&&c| c >= share).count() < w
            }
            None => false,
        }
    }

    /// First-fit admission: the lowest-index idle switches with room
    /// for the job's share. `None` if fewer than `w` qualify right now.
    fn try_admit(&mut self, job: usize, now: u64) -> bool {
        let w = self.width(job);
        let share = self.share(job);
        let mut picked = Vec::with_capacity(w);
        for s in 0..self.owner.len() {
            if self.owner[s].is_some() {
                continue;
            }
            if let Some(caps) = &self.caps {
                if self.committed[s] + share > caps[s] {
                    continue;
                }
            }
            picked.push(s);
            if picked.len() == w {
                break;
            }
        }
        if picked.len() < w {
            return false;
        }
        for &s in &picked {
            self.owner[s] = Some(job);
            self.committed[s] += share;
        }
        let speed = self.speed_of(job, &picked);
        let arrival = &self.trace[job];
        let a = Active {
            t_arrive: arrival.t_us,
            switches: picked,
            share,
            remaining: arrival.base_us as f64,
            speed,
            last_update: now,
            version: 0,
        };
        self.log(format!(
            "{now} admit job={job} w={w} share={share} sw={:?} speed={:.6}",
            a.switches, a.speed
        ));
        self.active.insert(job, a);
        self.schedule_finish(job, now);
        true
    }

    fn schedule_finish(&mut self, job: usize, now: u64) {
        let a = &self.active[&job];
        let dt = if a.remaining <= 0.0 {
            0
        } else {
            (a.remaining / a.speed).ceil() as u64
        };
        let version = a.version;
        self.push(now + dt, Ev::Finish { job, version });
    }

    fn advance(&mut self, job: usize, now: u64) {
        let a = self.active.get_mut(&job).expect("active job");
        if now > a.last_update {
            a.remaining -= (now - a.last_update) as f64 * a.speed;
            if a.remaining < 0.0 {
                a.remaining = 0.0;
            }
            a.last_update = now;
        }
    }

    fn run(&mut self) {
        while let Some(Reverse((t, _, ev))) = self.heap.pop() {
            match ev {
                Ev::Arrival { job } => self.on_arrival(job, t),
                Ev::Finish { job, version } => self.on_finish(job, version, t),
            }
        }
        debug_assert!(self.queue.is_empty(), "queued jobs never drained");
    }

    fn on_arrival(&mut self, job: usize, now: u64) {
        self.report.arrivals += 1;
        crate::metrics().arrivals.inc();
        let arrival = &self.trace[job];
        self.log(format!(
            "{now} arrive job={job} tasks={} mem={} vol={} base={}",
            arrival.mem.len(),
            arrival.total_mem(),
            arrival.total_volume(),
            arrival.base_us,
        ));
        if self.unsatisfiable(job) {
            self.report.rejected += 1;
            self.log(format!("{now} reject job={job} reason=unsatisfiable"));
            return;
        }
        if self.try_admit(job, now) {
            self.remap(now, "arrival", &[job]);
        } else {
            self.report.queued += 1;
            self.queue.push_back(job);
            self.log(format!("{now} queue job={job} depth={}", self.queue.len()));
        }
    }

    fn on_finish(&mut self, job: usize, version: u64, now: u64) {
        let Some(a) = self.active.get(&job) else {
            return; // stale event for a job that already completed
        };
        if a.version != version {
            return; // placement changed; a fresher finish event exists
        }
        self.advance(job, now);
        let a = self.active.remove(&job).expect("active job");
        for &s in &a.switches {
            self.owner[s] = None;
            self.committed[s] = self.committed[s].saturating_sub(a.share);
        }
        let response = now - a.t_arrive;
        self.responses.push(response);
        self.report.completed += 1;
        let deadline = match self.trace[job].deadline_us {
            Some(d) => {
                self.report.deadline_total += 1;
                if now <= d {
                    self.report.deadline_met += 1;
                    "met"
                } else {
                    self.report.deadline_missed += 1;
                    crate::metrics().deadline_miss.inc();
                    "miss"
                }
            }
            None => "none",
        };
        if now > self.report.makespan_us {
            self.report.makespan_us = now;
        }
        self.log(format!(
            "{now} finish job={job} response={response} deadline={deadline}"
        ));
        // Strict FIFO retry: admit from the head for as long as it fits.
        let mut admitted_now = Vec::new();
        while let Some(&head) = self.queue.front() {
            if self.try_admit(head, now) {
                self.queue.pop_front();
                admitted_now.push(head);
            } else {
                break;
            }
        }
        self.remap(now, "departure", &admitted_now);
    }

    /// One warm-started remap round. `free_jobs` move without charge
    /// (their data has not landed yet).
    fn remap(&mut self, now: u64, kind: &str, free_jobs: &[usize]) {
        let MigrationPolicy::Threshold(threshold) = self.cfg.migration else {
            return;
        };
        let job_ids: Vec<usize> = self.active.keys().copied().collect();
        let idle: usize = self.owner.iter().filter(|o| o.is_none()).count();
        let clusters = job_ids.len() + usize::from(idle > 0);
        if clusters < 2 {
            return;
        }
        let cluster_of_job: BTreeMap<usize, usize> =
            job_ids.iter().enumerate().map(|(c, &j)| (j, c)).collect();
        let idle_cluster = clusters - 1;
        let assign: Vec<usize> = self
            .owner
            .iter()
            .map(|o| o.map_or(idle_cluster, |j| cluster_of_job[&j]))
            .collect();
        let mut sizes = vec![0usize; clusters];
        for &c in &assign {
            sizes[c] += 1;
        }
        let prev = Partition::new(assign, clusters).expect("carved partition is well-formed");
        let n = self.owner.len();
        let params = TabuParams {
            seeds: self.cfg.remap_seeds.max(1),
            threads: self.cfg.threads,
            ..TabuParams::scaled(n)
        };
        let remap_seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.remap_count);
        self.remap_count += 1;
        let rep = warm_remap(&self.table, &sizes, &prev, params, remap_seed);
        self.report.remaps += 1;
        self.report.remap_iterations += rep.iterations as u64;
        crate::metrics().remap_iters.record(rep.iterations as u64);
        if self.cfg.compare_cold {
            let cold = TabuParams {
                seeds: self.cfg.cold_seeds.max(1),
                threads: self.cfg.threads,
                ..TabuParams::scaled(n)
            };
            let mut rng = StdRng::seed_from_u64(remap_seed);
            let (_, trace) = TabuSearch::new(cold).search_traced(&self.table, &sizes, &mut rng);
            let iters = trace.events.iter().map(|e| e.iteration).max().unwrap_or(0);
            self.report.cold_iterations += iters as u64;
        }
        // Proposed placement per job, and the migration bill for it.
        let proposed = rep.partition.clusters();
        let mut moves: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new(); // (job, from, to)
        let mut cost = 0.0f64;
        let mut moved_switches = 0u64;
        for (&job, &c) in &cluster_of_job {
            let mut to = proposed[c].clone();
            to.sort_unstable();
            let from = &self.active[&job].switches;
            if &to == from {
                continue;
            }
            let share = self.active[&job].share;
            let free = free_jobs.contains(&job);
            for &s in from {
                if to.contains(&s) {
                    continue;
                }
                moved_switches += 1;
                if !free {
                    let d = to
                        .iter()
                        .map(|&t2| self.table.get(s, t2))
                        .fold(f64::INFINITY, f64::min);
                    cost += share as f64 * d;
                }
            }
            moves.push((job, from.clone(), to));
        }
        if moves.is_empty() {
            return; // the warm seed was already the proposal
        }
        let resident: u64 = self.committed.iter().sum();
        let cost_rel = if resident == 0 {
            0.0
        } else {
            cost / (resident as f64 * self.max_d)
        };
        let gain = rep.fg_gain();
        let gain_rel = if rep.fg_before > 0.0 {
            gain / rep.fg_before
        } else {
            0.0
        };
        // Feasibility: the proposal must respect per-switch capacities.
        let mut feasible = true;
        if let Some(caps) = &self.caps {
            let mut next = vec![0u64; self.owner.len()];
            for (&job, &c) in &cluster_of_job {
                for &s in &proposed[c] {
                    next[s] += self.active[&job].share;
                }
            }
            feasible = next.iter().zip(caps).all(|(&used, &cap)| used <= cap);
        }
        let profitable = gain > 1e-12 && gain_rel + 1e-12 >= threshold * cost_rel;
        let accept = feasible && profitable;
        let paid = moves.iter().any(|(job, _, _)| !free_jobs.contains(job));
        self.log(format!(
            "{now} remap kind={kind} fg_before={:.6} fg_after={:.6} moved={moved_switches} \
             cost={cost:.3} accept={}",
            rep.fg_before,
            rep.fg_after,
            if accept {
                "yes"
            } else if feasible {
                "no"
            } else {
                "no-capacity"
            },
        ));
        if !accept {
            if paid {
                self.report.migrations_rejected += 1;
            }
            return;
        }
        if paid {
            self.report.migrations_accepted += 1;
            self.report.switches_moved += moved_switches;
            self.report.migration_cost += cost;
            crate::metrics().migrations.inc();
        }
        // Apply: refresh each moved job's progress, speed, and finish
        // event, then rebuild ownership wholesale — jobs may have
        // exchanged switches, so incremental clear-then-set would let a
        // later job's clear clobber an earlier job's new claim.
        for (job, from, to) in &moves {
            self.log(format!("{now} migrate job={job} from={from:?} to={to:?}"));
            self.advance(*job, now);
            let speed = self.speed_of(*job, to);
            let a = self.active.get_mut(job).expect("active job");
            a.switches = to.clone();
            a.speed = speed;
            a.version += 1;
            self.schedule_finish(*job, now);
        }
        self.owner.fill(None);
        self.committed.fill(0);
        let placements: Vec<(usize, Vec<usize>, u64)> = self
            .active
            .iter()
            .map(|(&job, a)| (job, a.switches.clone(), a.share))
            .collect();
        for (job, switches, share) in placements {
            for s in switches {
                self.owner[s] = Some(job);
                self.committed[s] += share;
            }
        }
    }

    fn finish(mut self) -> SloReport {
        self.responses.sort_unstable();
        let pick = |q: f64, v: &[u64]| -> u64 {
            if v.is_empty() {
                0
            } else {
                v[((v.len() - 1) as f64 * q).round() as usize]
            }
        };
        self.report.response_p50_us = pick(0.50, &self.responses);
        self.report.response_p99_us = pick(0.99, &self.responses);
        self.report.response_mean_us = if self.responses.is_empty() {
            0
        } else {
            self.responses.iter().sum::<u64>() / self.responses.len() as u64
        };
        self.report.event_digest = fnv1a(&self.events);
        self.report.events = self.events;
        self.report
    }
}

/// FNV-1a over the event log, line-separated — the run's identity
/// fingerprint for determinism checks.
fn fnv1a(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{poisson_trace, WorkloadShape};
    use commsched_topology::designed;

    fn small_trace() -> Vec<JobArrival> {
        poisson_trace(80.0, 1_000_000, 11, &WorkloadShape::skewed(24, 1))
    }

    #[test]
    fn every_admitted_job_completes_and_queue_drains() {
        let cfg = ScenarioConfig::new(designed::paper_24_switch());
        let report = run_scenario(&cfg, &small_trace()).unwrap();
        assert_eq!(report.arrivals as usize, small_trace().len());
        assert_eq!(report.completed + report.rejected, report.arrivals);
        assert!(report.makespan_us > 0);
        assert!(report.response_p50_us <= report.response_p99_us);
        assert!(!report.events.is_empty());
    }

    #[test]
    fn migration_policy_parses_and_rejects() {
        assert_eq!(MigrationPolicy::parse("off").unwrap(), MigrationPolicy::Off);
        assert_eq!(
            MigrationPolicy::parse("threshold:0.25").unwrap(),
            MigrationPolicy::Threshold(0.25)
        );
        for bad in ["threshold:x", "threshold:-1", "sometimes", ""] {
            assert!(MigrationPolicy::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn static_and_migrating_runs_differ_only_in_policy_effects() {
        let trace = small_trace();
        let topo = designed::paper_24_switch();
        let mut cfg = ScenarioConfig::new(topo.clone());
        let st = run_scenario(&cfg, &trace).unwrap();
        cfg.migration = MigrationPolicy::Threshold(0.1);
        let dy = run_scenario(&cfg, &trace).unwrap();
        assert_eq!(st.arrivals, dy.arrivals);
        assert_eq!(st.remaps, 0);
        assert!(dy.remaps > 0);
        assert!(dy.remap_iterations > 0);
        // The migrating run must not lose completions.
        assert_eq!(dy.completed + dy.rejected, dy.arrivals);
        // Migration cost is only charged when something actually moved.
        if dy.migrations_accepted == 0 {
            assert_eq!(dy.switches_moved, 0);
        }
    }

    #[test]
    fn capacities_bound_admission_and_survive_migration() {
        // Two tiny switches: share of a 2-task job is 64, capacity 100
        // fits exactly one job per switch at a time.
        let topo = commsched_topology::TopologyBuilder::new(4, 1)
            .link(0, 1)
            .link(1, 2)
            .link(2, 3)
            .uniform_mem_capacity(100)
            .build()
            .unwrap();
        let mut cfg = ScenarioConfig::new(topo);
        cfg.migration = MigrationPolicy::Threshold(0.0);
        let trace = vec![
            JobArrival {
                t_us: 0,
                mem: vec![64, 64],
                edges: vec![(0, 1, 1024)],
                base_us: 10_000,
                deadline_us: None,
            },
            JobArrival {
                t_us: 1,
                mem: vec![64, 64],
                edges: vec![(0, 1, 1024)],
                base_us: 10_000,
                deadline_us: None,
            },
            // Over-wide share: 300 bytes on one switch never fits.
            JobArrival {
                t_us: 2,
                mem: vec![300],
                edges: vec![],
                base_us: 1_000,
                deadline_us: None,
            },
        ];
        let report = run_scenario(&cfg, &trace).unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 2);
        assert!(report
            .events
            .iter()
            .any(|l| l.contains("reject job=2 reason=unsatisfiable")));
    }

    #[test]
    fn fixed_seed_runs_are_bit_identical() {
        let trace = small_trace();
        let mut cfg = ScenarioConfig::new(designed::paper_24_switch());
        cfg.migration = MigrationPolicy::Threshold(0.1);
        cfg.seed = 7;
        let a = run_scenario(&cfg, &trace).unwrap();
        let b = run_scenario(&cfg, &trace).unwrap();
        assert_eq!(a.event_digest, b.event_digest);
        assert_eq!(a.events, b.events);
    }
}
