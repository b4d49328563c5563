//! The table of equivalent distances (the paper's `T_N`).

use crate::resistance::{effective_resistance_weighted, ResistanceError, SolverKind, Workspace};
use commsched_routing::Routing;
use commsched_telemetry as telemetry;
use commsched_topology::{LinkId, SwitchId, Topology};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A cheaply clonable, immutable handle to a finished table.
///
/// Long-running consumers (the `commsched-service` distance-table cache)
/// key finished tables by topology fingerprint and hand them to
/// concurrent jobs; sharing an `Arc` makes each hand-off a pointer bump
/// instead of an `N²` copy.
pub type SharedDistanceTable = std::sync::Arc<DistanceTable>;

/// A symmetric `N × N` table of internode distances with zero diagonal.
///
/// `T[i][j]` is the equivalent distance between switches `i` and `j`. The
/// table "does not satisfy the triangular inequality, and thus it does not
/// define a metric space" (§3) — it is a cost measurement, not a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceTable {
    n: usize,
    /// Row-major full matrix (kept symmetric by construction).
    data: Vec<f64>,
}

impl DistanceTable {
    /// Build from a closure giving the distance for each unordered pair
    /// `i < j`.
    pub fn from_fn<F: FnMut(SwitchId, SwitchId) -> f64>(n: usize, mut f: F) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f(i, j);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        Self { n, data }
    }

    /// Number of switches.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between `i` and `j`.
    #[inline]
    pub fn get(&self, i: SwitchId, j: SwitchId) -> f64 {
        self.data[i * self.n + j]
    }

    /// Squared distance between `i` and `j` (the quality functions work on
    /// squared distances throughout).
    #[inline]
    pub fn get_sq(&self, i: SwitchId, j: SwitchId) -> f64 {
        let d = self.get(i, j);
        d * d
    }

    /// Sum of squared distances over all unordered pairs.
    pub fn total_square(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                acc += self.get_sq(i, j);
            }
        }
        acc
    }

    /// Quadratic average over all unordered pairs: `Σ T²_{ij} / (N(N-1)/2)`
    /// — the normalization denominator of the paper's Eq. 2 and Eq. 5.
    ///
    /// Returns 0 for `n < 2`.
    pub fn mean_square(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.total_square() / (self.n * (self.n - 1) / 2) as f64
    }

    /// Maximum off-diagonal entry (0 for `n < 2`).
    pub fn max_distance(&self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                best = best.max(self.get(i, j));
            }
        }
        best
    }

    /// Row `i` of the table.
    pub fn row(&self, i: SwitchId) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Wrap the finished table in a [`SharedDistanceTable`] handle.
    pub fn into_shared(self) -> SharedDistanceTable {
        std::sync::Arc::new(self)
    }

    /// Overwrite the symmetric pair `(i, j)` — the repair path's patch
    /// primitive.
    pub(crate) fn set_pair(&mut self, i: SwitchId, j: SwitchId, d: f64) {
        self.data[i * self.n + j] = d;
        self.data[j * self.n + i] = d;
    }

    /// Triples `(i, j, k)` with `i < k` violating the triangle inequality
    /// (`T[i][k] > T[i][j] + T[j][k] + tol`).
    ///
    /// The paper remarks (§3) that the table of equivalent distances "does
    /// not satisfy the triangular inequality, and thus it does not define
    /// a metric space" — because every pair's resistance is computed on a
    /// *different* sub-network. This diagnostic makes that concrete; an
    /// up*/down*-routed ring exhibits violations (e.g. the forbidden-turn
    /// detour pair). The table is symmetric, so the mirrored triple
    /// `(k, j, i)` would repeat the same fact; restricting to `i < k`
    /// reports each violation exactly once.
    ///
    /// The scan is `O(N³)` and a large table can violate the inequality
    /// almost everywhere, so the report is capped at
    /// [`TRIANGLE_REPORT_CAP`] triples — diagnostics must not allocate
    /// `O(N³)` memory on a 4096-switch build. Use
    /// [`DistanceTable::triangle_violation_count`] for the exact total
    /// without any allocation.
    pub fn triangle_violations(&self, tol: f64) -> Vec<(SwitchId, SwitchId, SwitchId)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for k in (i + 1)..self.n {
                let direct = self.get(i, k);
                for j in 0..self.n {
                    if j == i || j == k {
                        continue;
                    }
                    if direct > self.get(i, j) + self.get(j, k) + tol {
                        out.push((i, j, k));
                        if out.len() >= TRIANGLE_REPORT_CAP {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }

    /// Exact count of triangle violations (same predicate as
    /// [`DistanceTable::triangle_violations`]) with `O(1)` memory: the
    /// streaming form for large tables where materializing triples would
    /// dominate the build itself.
    pub fn triangle_violation_count(&self, tol: f64) -> u64 {
        let mut count = 0u64;
        for i in 0..self.n {
            for k in (i + 1)..self.n {
                let direct = self.get(i, k);
                for j in 0..self.n {
                    if j != i && j != k && direct > self.get(i, j) + self.get(j, k) + tol {
                        count += 1;
                    }
                }
            }
        }
        count
    }
}

/// Upper bound on the triples materialized by
/// [`DistanceTable::triangle_violations`].
pub const TRIANGLE_REPORT_CAP: usize = 4096;

/// Errors from table construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// Topology and routing disagree on the switch count.
    SizeMismatch {
        /// Switches in the topology.
        topology: usize,
        /// Switches in the router.
        routing: usize,
    },
    /// The resistance solver failed for a pair.
    Resistance {
        /// Source switch.
        src: SwitchId,
        /// Destination switch.
        dst: SwitchId,
        /// Underlying error.
        error: ResistanceError,
    },
    /// Incremental repair got a previous table whose size does not match
    /// the post-fault topology.
    RepairSize {
        /// Switches in the previous table.
        prev: usize,
        /// Switches in the topology.
        topology: usize,
    },
    /// Incremental repair was asked to recompute a pair outside the table.
    BadRepairPair {
        /// Source switch.
        src: SwitchId,
        /// Destination switch.
        dst: SwitchId,
        /// Switches in the table.
        n: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::SizeMismatch { topology, routing } => {
                write!(f, "topology has {topology} switches, routing {routing}")
            }
            TableError::Resistance { src, dst, error } => {
                write!(f, "resistance failed for pair ({src}, {dst}): {error}")
            }
            TableError::RepairSize { prev, topology } => {
                write!(f, "previous table has {prev} switches, topology {topology}")
            }
            TableError::BadRepairPair { src, dst, n } => {
                write!(
                    f,
                    "repair pair ({src}, {dst}) out of range for {n} switches"
                )
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Knobs of the table builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOptions {
    /// Linear solver for the per-pair resistance. Default: the sparse
    /// SPD Cholesky fast path; [`SolverKind::DenseGaussian`] keeps the
    /// original dense elimination as the correctness oracle.
    pub solver: SolverKind,
    /// Worker threads pulling source rows off the shared queue (0 = one
    /// per available CPU). Results are bit-identical for every count.
    pub threads: usize,
    /// Share the compacted circuit between pairs whose minimal-route
    /// link sets hash identically (sparse solver only). Never changes
    /// results — a hit restores byte-for-byte what compaction would
    /// rebuild — only how often the node/edge compaction reruns.
    pub memoize: bool,
    /// Relative-error budget of [`SolverKind::Approximate`] in millionths
    /// (`50_000` = 5%). Kept integral so `TableOptions` stays `Eq` and
    /// can key the service cache. Ignored by the exact solvers.
    pub approx_eps_micros: u32,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            solver: SolverKind::default(),
            threads: 1,
            memoize: true,
            approx_eps_micros: DEFAULT_APPROX_EPS_MICROS,
        }
    }
}

impl TableOptions {
    /// Options for the certified approximate build with relative-error
    /// budget `eps` (e.g. `0.05` for 5%).
    pub fn approximate(eps: f64) -> Self {
        Self {
            solver: SolverKind::Approximate,
            approx_eps_micros: eps_to_micros(eps),
            ..Self::default()
        }
    }

    /// The approximation budget as a plain fraction.
    pub fn approx_eps(&self) -> f64 {
        f64::from(self.approx_eps_micros) / 1e6
    }
}

/// How a table's equivalent distances are solved, as a hashable value:
/// the table half of a cache key. An approximate table is a *different
/// artifact* than the exact one — a job asking for `approx-eps=0.05`
/// must never be served an entry built at a different eps (or vice
/// versa), so the eps budget is part of the value. Spelled `exact` /
/// `approx:<micros>` in logs and spill-file names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableSpec {
    /// Exact envelope-LDLᵀ solve of every pair (the oracle).
    #[default]
    Exact,
    /// Certified-interval approximation with the given relative-error
    /// budget in micro-units (`eps = eps_micros / 1e6`).
    Approx {
        /// Error budget × 1e6 (kept integral so the key stays `Eq`).
        eps_micros: u32,
    },
}

impl TableSpec {
    /// The spec an `approx-eps` parameter selects: 0 keeps the exact
    /// solver, anything else the certified approximation.
    pub fn from_eps_micros(eps_micros: u32) -> Self {
        if eps_micros == 0 {
            TableSpec::Exact
        } else {
            TableSpec::Approx { eps_micros }
        }
    }

    /// The builder options that produce this spec's table on `threads`
    /// workers.
    pub fn options(self, threads: usize) -> TableOptions {
        match self {
            TableSpec::Exact => TableOptions {
                threads,
                ..TableOptions::default()
            },
            TableSpec::Approx { eps_micros } => TableOptions {
                solver: SolverKind::Approximate,
                approx_eps_micros: eps_micros,
                threads,
                ..TableOptions::default()
            },
        }
    }
}

impl std::fmt::Display for TableSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableSpec::Exact => write!(f, "exact"),
            TableSpec::Approx { eps_micros } => write!(f, "approx:{eps_micros}"),
        }
    }
}

impl std::str::FromStr for TableSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "exact" {
            return Ok(TableSpec::Exact);
        }
        if let Some(micros) = s.strip_prefix("approx:") {
            return micros
                .parse()
                .map(|eps_micros| TableSpec::Approx { eps_micros })
                .map_err(|_| format!("bad eps in table spec '{s}'"));
        }
        Err(format!("unknown table spec '{s}'"))
    }
}

/// Default approximation budget: 5% relative error.
pub const DEFAULT_APPROX_EPS_MICROS: u32 = 50_000;

/// Convert a relative-error fraction to the integral micros
/// representation used by [`TableOptions::approx_eps_micros`] (and the
/// service cache key). Saturates at `u32::MAX` micros (≈4300× error —
/// far past any useful budget).
pub fn eps_to_micros(eps: f64) -> u32 {
    let micros = (eps * 1e6).round();
    if micros <= 0.0 {
        0
    } else if micros >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        micros as u32
    }
}

/// What the approximate build actually did: the budget, the worst
/// certified relative error among approximated pairs, and how many pairs
/// were answered by bounds vs. escalated to the exact solver.
///
/// The measured error of every approximated entry against the exact
/// table is `≤ err_max` *by construction*: each approximated pair's
/// estimate is the midpoint of a certified interval `[lo, hi]` that
/// contains the exact value, so its true relative error is at most
/// `(hi − lo) / (2·lo)` — exactly the quantity `err_max` maximizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxReport {
    /// The requested budget (fraction, e.g. 0.05).
    pub eps: f64,
    /// Worst certified relative error over all approximated pairs
    /// (0 when every pair was exact).
    pub err_max: f64,
    /// Pairs answered from the certified interval.
    pub pairs_approximated: u64,
    /// Pairs whose interval was too wide and ran the exact solver.
    pub pairs_escalated: u64,
}

/// Telemetry handles for the table builder, resolved once per process.
/// Workers tally locally (plain `u64`s in [`PairTally`]) and flush the
/// totals here when they finish, so the per-pair hot path never touches
/// an atomic.
struct BuildMetrics {
    builds: telemetry::Counter,
    build_ms: telemetry::Histo,
    rows: telemetry::Counter,
    pairs: telemetry::Counter,
    series_path: telemetry::Counter,
    memo_hits: telemetry::Counter,
    memo_misses: telemetry::Counter,
    dense_solves: telemetry::Counter,
    approx_pairs: telemetry::Counter,
    approx_escalations: telemetry::Counter,
    approx_err_max_micros: telemetry::Gauge,
}

fn build_metrics() -> &'static BuildMetrics {
    static METRICS: OnceLock<BuildMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = telemetry::global();
        BuildMetrics {
            builds: r.counter(
                "distance_builds_total",
                "Distance-table builds completed (all solver kinds)",
            ),
            build_ms: r.histogram(
                "distance_build_ms",
                "Wall time of one distance-table build, milliseconds",
            ),
            rows: r.counter(
                "distance_rows_total",
                "Source rows whose route link sets were batch-extracted",
            ),
            pairs: r.counter(
                "distance_pairs_total",
                "Switch pairs whose equivalent distance was computed",
            ),
            series_path: r.counter(
                "distance_series_path_total",
                "Pairs answered by the series-path scan (no linear solve)",
            ),
            memo_hits: r.counter(
                "distance_memo_hits_total",
                "Pairs whose compacted circuit was found in a worker memo",
            ),
            memo_misses: r.counter(
                "distance_memo_misses_total",
                "Pairs that ran circuit compaction + LDL^T solve",
            ),
            dense_solves: r.counter(
                "distance_dense_solves_total",
                "Pairs solved by the dense Gaussian baseline",
            ),
            approx_pairs: r.counter(
                "distance_approx_pairs_total",
                "Pairs answered from a certified resistance interval",
            ),
            approx_escalations: r.counter(
                "distance_approx_escalations_total",
                "Approximate-build pairs escalated to the exact solver",
            ),
            approx_err_max_micros: r.gauge(
                "distance_approx_err_max_micros",
                "Worst certified relative error of the last approximate build, millionths",
            ),
        }
    })
}

/// Per-worker resolution tallies, flushed to [`BuildMetrics`] once per
/// worker (not per pair).
#[derive(Default)]
struct PairTally {
    rows: u64,
    pairs: u64,
    series_path: u64,
    memo_hits: u64,
    memo_misses: u64,
    dense_solves: u64,
    approx_pairs: u64,
    approx_escalations: u64,
    /// Worst certified relative error among this worker's approximated
    /// pairs (not a counter; merged by max across workers).
    approx_err_max: f64,
}

impl PairTally {
    fn flush(&self) {
        if self.pairs == 0 && self.rows == 0 {
            return;
        }
        let m = build_metrics();
        m.rows.add(self.rows);
        m.pairs.add(self.pairs);
        m.series_path.add(self.series_path);
        m.memo_hits.add(self.memo_hits);
        m.memo_misses.add(self.memo_misses);
        m.dense_solves.add(self.dense_solves);
        m.approx_pairs.add(self.approx_pairs);
        m.approx_escalations.add(self.approx_escalations);
    }
}

/// Per-worker cap on memoized circuits. Networks whose pairs all have
/// distinct route sets would otherwise hold one circuit per pair; beyond
/// the cap new sets are solved without being retained. Purely a memory
/// bound — hit or miss, the computed values are identical.
const MEMO_CAP: usize = 1024;

/// A compacted resistor circuit as captured from [`Workspace::circuit`]:
/// the memo value shared between pairs with identical route-link sets.
/// Also the value type of the cross-epoch repair memo (`crate::repair`).
pub(crate) struct CompactCircuit {
    pub(crate) nodes: Vec<SwitchId>,
    pub(crate) edges: Vec<(usize, usize, f64)>,
}

/// Per-switch stamps for the single-scan series-path test.
#[derive(Default)]
pub(crate) struct PathScan {
    stamp: Vec<u32>,
    deg: Vec<u32>,
    mark: u32,
}

/// One scan over `links`: if the route sub-network is a simple path with
/// the terminals at its ends, its resistance is just the series sum of
/// the link resistances — no circuit assembly or solve at all. Returns
/// `None` for any other shape (including empty link sets).
///
/// The tree test `nodes == links + 1` is sound because a minimal-route
/// union is always connected (every link lies on some `a`→`b` route, so
/// every link reaches `a`); a connected graph with that edge count and
/// maximum degree 2 is exactly a simple path. Most up*/down* route
/// unions have this shape, which makes this the hot path of the build.
pub(crate) fn try_series_path(
    topo: &Topology,
    scan: &mut PathScan,
    links: &[LinkId],
    a: SwitchId,
    b: SwitchId,
) -> Option<f64> {
    if links.is_empty() {
        return None;
    }
    let n = topo.num_switches();
    if scan.stamp.len() < n {
        scan.stamp.resize(n, 0);
        scan.deg.resize(n, 0);
    }
    if scan.mark == u32::MAX {
        scan.stamp[..n].fill(0);
        scan.mark = 0;
    }
    scan.mark += 1;
    let mark = scan.mark;
    let mut nodes = 0usize;
    let mut sum_r = 0.0f64;
    let mut path_like = true;
    for &l in links {
        let link = topo.link(l);
        // Heterogeneous link speeds: a slower link resists more.
        sum_r += f64::from(topo.link_slowdown(l));
        for end in [link.a, link.b] {
            if scan.stamp[end] != mark {
                scan.stamp[end] = mark;
                scan.deg[end] = 0;
                nodes += 1;
            }
            scan.deg[end] += 1;
            if scan.deg[end] > 2 {
                path_like = false;
            }
        }
    }
    let terminals_are_endpoints =
        scan.stamp[a] == mark && scan.stamp[b] == mark && scan.deg[a] == 1 && scan.deg[b] == 1;
    if path_like && nodes == links.len() + 1 && terminals_are_endpoints {
        Some(sum_r)
    } else {
        None
    }
}

/// Reusable scratch for the certified resistance interval of
/// [`SolverKind::Approximate`]: stamped global→compact node maps plus
/// BFS/Dijkstra buffers, all reused across pairs so the hot loop never
/// allocates per pair.
#[derive(Default)]
struct ApproxScratch {
    /// Global switch id → stamp of the pair that last touched it.
    stamp: Vec<u32>,
    /// Global switch id → compact index (valid when stamped).
    index: Vec<usize>,
    mark: u32,
    /// Compact adjacency: `adj[u] = (v, resistance, edge index)`. Only
    /// the first `nodes` rows are live for the current pair.
    adj: Vec<Vec<(usize, f64, u32)>>,
    /// Edges consumed by an already-extracted route (route stripping).
    eused: Vec<bool>,
    /// Dijkstra predecessor: `(node, edge index)` on the cheapest route.
    prev: Vec<(usize, u32)>,
    /// BFS level per compact node.
    level: Vec<u32>,
    queue: Vec<usize>,
    /// Dijkstra tentative distances and settled flags.
    dist: Vec<f64>,
    done: Vec<bool>,
    /// Dijkstra frontier, reused across routes and pairs.
    heap: std::collections::BinaryHeap<Frontier>,
    /// Conductance (Σ 1/r) of the BFS cut between levels `d` and `d+1`.
    cut_cond: Vec<f64>,
}

/// Route-stripping cap for the upper bound: paper-style networks are
/// 3-regular, so a terminal has at most 3 edge-disjoint routes; a
/// couple extra passes cover heterogeneous cases without letting a
/// pathological pair spin.
const APPROX_MAX_ROUTES: usize = 6;

/// Dijkstra frontier entry ordered as a min-heap by tentative distance.
#[derive(PartialEq)]
struct Frontier(f64, usize);
impl Eq for Frontier {}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the nearest node.
        other.0.total_cmp(&self.0)
    }
}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl ApproxScratch {
    /// Certified interval `[lo, hi]` bracketing the effective resistance
    /// between `a` and `b` on the sub-network `links`, in
    /// `O(k · E log V)` for `k ≤ APPROX_MAX_ROUTES` routes:
    ///
    /// * `hi` — Rayleigh monotonicity plus node splitting: keep only a
    ///   set of *edge-disjoint* `a`→`b` routes (dropping edges raises
    ///   resistance), then split any shared internal nodes (un-shorting
    ///   also raises it); what is left is `k` parallel resistors, so
    ///   `R ≤ 1 / Σ_i (1 / route_res_i)`. Routes are stripped cheapest
    ///   first (Dijkstra over link resistances, previously used edges
    ///   removed), and stripping stops as soon as the interval already
    ///   satisfies `eps` — the common case pays one Dijkstra.
    /// * `lo` — Nash–Williams: the BFS level cuts `δ(level d → d+1)` are
    ///   edge-disjoint separators of `a` from `b` (an edge never spans
    ///   two BFS levels; same-level edges sit in no cut), so
    ///   `R ≥ Σ_d 1/(Σ_{e ∈ cut_d} 1/r_e)`. Both endpoints' BFS trees
    ///   give valid cuts; the larger bound wins.
    ///
    /// Returns `None` when a terminal is missing or unreachable (the
    /// caller escalates to the exact solver, which reports the error).
    fn pair_bounds(
        &mut self,
        topo: &Topology,
        links: &[LinkId],
        a: SwitchId,
        b: SwitchId,
        eps: f64,
    ) -> Option<(f64, f64)> {
        if links.is_empty() {
            return None;
        }
        let n = topo.num_switches();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.index.resize(n, 0);
        }
        if self.mark == u32::MAX {
            self.stamp[..n].fill(0);
            self.mark = 0;
        }
        self.mark += 1;
        let mark = self.mark;
        let mut nodes = 0usize;
        let mut touch = |scratch: &mut Self, s: SwitchId| -> usize {
            if scratch.stamp[s] == mark {
                scratch.index[s]
            } else {
                scratch.stamp[s] = mark;
                scratch.index[s] = nodes;
                if scratch.adj.len() <= nodes {
                    scratch.adj.push(Vec::new());
                } else {
                    scratch.adj[nodes].clear();
                }
                nodes += 1;
                nodes - 1
            }
        };
        let mut r_min = f64::INFINITY;
        for (e, &l) in links.iter().enumerate() {
            let link = topo.link(l);
            let u = touch(self, link.a);
            let v = touch(self, link.b);
            // Heterogeneous link speeds: a slower link resists more.
            let r = f64::from(topo.link_slowdown(l));
            r_min = r_min.min(r);
            let e = u32::try_from(e).expect("sub-network link count fits u32");
            self.adj[u].push((v, r, e));
            self.adj[v].push((u, r, e));
        }
        if self.stamp[a] != mark || self.stamp[b] != mark {
            return None;
        }
        let (ca, cb) = (self.index[a], self.index[b]);

        // Lower bound: series-compose the BFS level-cut conductances
        // from `a`; the second BFS (from `b`) is deferred until the
        // first route needs it — most pairs bail before then.
        let mut lo = self.level_cut_bound(nodes, ca, cb)?;
        let hops = f64::from(self.level[cb]);
        let max_routes = APPROX_MAX_ROUTES.min(self.adj[ca].len().min(self.adj[cb].len()));

        // Heuristic pre-filter (spends accuracy never, only time): the
        // final upper bound cannot drop below `hops · r_min / max_routes`
        // (every route costs at least the hop distance times the
        // cheapest link, and at most `max_routes` compose in parallel).
        // When even that optimistic interval misses `eps` against this
        // side's cut bound, skip route stripping — the exact solver is
        // barely more expensive than the Dijkstras we avoid. A rare pair
        // the other side's cut bound would have certified escalates too:
        // that costs speed only, never the certificate's honesty.
        let optimistic = (hops * r_min / max_routes as f64).max(lo);
        if (optimistic - lo) / (2.0 * lo) > eps {
            return None;
        }

        // Upper bound: parallel-compose edge-disjoint cheapest routes,
        // stripped one at a time, stopping once `eps` is satisfied.
        self.eused.clear();
        self.eused.resize(links.len(), false);
        let mut cond = 0.0f64;
        let mut hi = f64::INFINITY;
        for route in 0..max_routes {
            let Some(res) = self.strip_cheapest_route(nodes, ca, cb) else {
                break;
            };
            cond += 1.0 / res;
            hi = (1.0 / cond).max(lo);
            if (hi - lo) / (2.0 * lo) <= eps {
                break;
            }
            if route == 0 {
                // Feasibility bail. Later routes are never cheaper than
                // the first (Dijkstra over a shrinking edge set), and at
                // most `min degree` edge-disjoint routes exist, so the
                // final upper bound cannot drop below `res / max_routes`.
                // If even that cannot close the interval to `eps` —
                // with the stronger of both terminals' cut bounds — the
                // certificate is unreachable: escalate without paying
                // for more route stripping.
                let second = self.level_cut_bound(nodes, cb, ca)?;
                lo = lo.max(second);
                hi = hi.max(lo);
                if (hi - lo) / (2.0 * lo) <= eps {
                    break;
                }
                let best = (res / max_routes as f64).max(lo);
                if (best - lo) / (2.0 * lo) > eps {
                    break;
                }
            }
        }
        if !hi.is_finite() {
            return None;
        }
        Some((lo, hi))
    }

    /// Nash–Williams bound from one BFS tree: `Σ_d 1/(Σ_{cut_d} 1/r)`.
    /// `None` when the terminals are disconnected or coincide.
    fn level_cut_bound(&mut self, nodes: usize, from: usize, to: usize) -> Option<f64> {
        const UNSEEN: u32 = u32::MAX;
        self.level.clear();
        self.level.resize(nodes, UNSEEN);
        self.queue.clear();
        self.level[from] = 0;
        self.queue.push(from);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &(v, _, _) in &self.adj[u] {
                if self.level[v] == UNSEEN {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v);
                }
            }
        }
        let lb = self.level[to];
        if lb == UNSEEN || lb == 0 {
            return None;
        }
        self.cut_cond.clear();
        self.cut_cond.resize(lb as usize, 0.0);
        for u in 0..nodes {
            for &(v, r, _) in &self.adj[u] {
                if u < v && self.level[u].abs_diff(self.level[v]) == 1 {
                    let d = self.level[u].min(self.level[v]);
                    if d < lb {
                        self.cut_cond[d as usize] += 1.0 / r;
                    }
                }
            }
        }
        Some(self.cut_cond.iter().map(|&c| 1.0 / c).sum())
    }

    /// Dijkstra over the not-yet-used edges; on success marks the
    /// cheapest route's edges used and returns its summed resistance.
    fn strip_cheapest_route(&mut self, nodes: usize, from: usize, to: usize) -> Option<f64> {
        self.dist.clear();
        self.dist.resize(nodes, f64::INFINITY);
        self.done.clear();
        self.done.resize(nodes, false);
        self.prev.clear();
        self.prev.resize(nodes, (usize::MAX, 0));
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        self.dist[from] = 0.0;
        heap.push(Frontier(0.0, from));
        while let Some(Frontier(d, u)) = heap.pop() {
            if self.done[u] {
                continue;
            }
            self.done[u] = true;
            if u == to {
                break;
            }
            for &(v, r, e) in &self.adj[u] {
                if self.eused[e as usize] {
                    continue;
                }
                let nd = d + r;
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.prev[v] = (u, e);
                    heap.push(Frontier(nd, v));
                }
            }
        }
        self.heap = heap;
        let res = self.dist[to];
        if !res.is_finite() {
            return None;
        }
        let mut u = to;
        while u != from {
            let (p, e) = self.prev[u];
            self.eused[e as usize] = true;
            u = p;
        }
        Some(res)
    }
}

/// One worker's solver state: reusable scratch, the route-set memo, and
/// the current source row's batched link sets.
struct PairSolver<'a> {
    topo: &'a Topology,
    routing: &'a dyn Routing,
    options: TableOptions,
    ws: Workspace,
    scan: PathScan,
    approx: ApproxScratch,
    memo: HashMap<Vec<LinkId>, CompactCircuit>,
    edges: Vec<(SwitchId, SwitchId, f64)>,
    row_links: Vec<Vec<LinkId>>,
    tally: PairTally,
}

impl<'a> PairSolver<'a> {
    fn new(topo: &'a Topology, routing: &'a dyn Routing, options: TableOptions) -> Self {
        Self {
            topo,
            routing,
            options,
            ws: Workspace::new(),
            scan: PathScan::default(),
            approx: ApproxScratch::default(),
            memo: HashMap::new(),
            edges: Vec::new(),
            row_links: Vec::new(),
            tally: PairTally::default(),
        }
    }

    /// Called once per claimed source row. The sparse path extracts the
    /// minimal-route link sets for every destination in one batched pass
    /// (a single forward BFS serves the whole row, into reused buffers);
    /// the dense baseline keeps its original per-pair extraction.
    fn begin_row(&mut self, i: SwitchId) {
        if self.options.solver != SolverKind::DenseGaussian {
            self.routing.minimal_route_links_row(i, &mut self.row_links);
            self.tally.rows += 1;
        }
    }

    fn solve(&mut self, i: SwitchId, j: SwitchId) -> Result<f64, TableError> {
        self.tally.pairs += 1;
        if self.options.solver == SolverKind::DenseGaussian {
            self.tally.dense_solves += 1;
            return pair_resistance(self.topo, self.routing, i, j);
        }
        // Simple-path sub-networks (the common case) are answered by one
        // scan, bypassing the memo: the lookup would cost more than the
        // sum. Memoization stays value-neutral — path pairs skip it in
        // both modes.
        if let Some(r) = try_series_path(self.topo, &mut self.scan, &self.row_links[j], i, j) {
            self.tally.series_path += 1;
            return Ok(r);
        }
        if self.options.solver == SolverKind::Approximate {
            let eps = self.options.approx_eps();
            if let Some((lo, hi)) =
                self.approx
                    .pair_bounds(self.topo, &self.row_links[j], i, j, eps)
            {
                // The exact value is inside [lo, hi]; the midpoint's true
                // relative error is therefore at most (hi - lo) / (2 lo).
                let err = (hi - lo) / (2.0 * lo);
                if err <= eps {
                    self.tally.approx_pairs += 1;
                    if err > self.tally.approx_err_max {
                        self.tally.approx_err_max = err;
                    }
                    return Ok(0.5 * (lo + hi));
                }
            }
            // Interval too wide (or degenerate sub-network): run the
            // exact path below, which keeps the reported bound honest.
            self.tally.approx_escalations += 1;
        }
        let wrap = |error| TableError::Resistance {
            src: i,
            dst: j,
            error,
        };
        let links = &self.row_links[j];
        if self.options.memoize {
            if let Some(c) = self.memo.get(links.as_slice()) {
                self.tally.memo_hits += 1;
                self.ws.load_circuit(&c.nodes, &c.edges);
                return self.ws.solve_compacted(i, j).map_err(wrap);
            }
        }
        self.tally.memo_misses += 1;
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        edges.extend(links.iter().map(|&l| {
            let link = self.topo.link(l);
            // Heterogeneous link speeds: a slower link resists more.
            (link.a, link.b, f64::from(self.topo.link_slowdown(l)))
        }));
        self.ws.compact(&edges);
        self.edges = edges;
        if self.options.memoize && self.memo.len() < MEMO_CAP {
            let (nodes, edges) = self.ws.circuit();
            self.memo.insert(
                links.clone(),
                CompactCircuit {
                    nodes: nodes.to_vec(),
                    edges: edges.to_vec(),
                },
            );
        }
        self.ws.solve_compacted(i, j).map_err(wrap)
    }
}

pub(crate) fn pair_resistance(
    topo: &Topology,
    routing: &dyn Routing,
    i: SwitchId,
    j: SwitchId,
) -> Result<f64, TableError> {
    let links = routing.minimal_route_links(i, j);
    let edges: Vec<(SwitchId, SwitchId, f64)> = links
        .iter()
        .map(|&l| {
            let link = topo.link(l);
            // Heterogeneous link speeds: a slower link resists more.
            (link.a, link.b, f64::from(topo.link_slowdown(l)))
        })
        .collect();
    effective_resistance_weighted(&edges, i, j).map_err(|error| TableError::Resistance {
        src: i,
        dst: j,
        error,
    })
}

fn resolve_threads(threads: usize, units: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    t.clamp(1, units.max(1))
}

/// Build the table of equivalent distances for `topo` under `routing`
/// with explicit [`TableOptions`] (§3 of the paper): for each pair, the
/// links on minimal legal routes form a resistor network whose effective
/// resistance is the entry.
///
/// Workers pull source rows off a shared atomic counter (work stealing),
/// since per-row cost varies with both the row's pair count and the
/// route sub-network sizes. A claimed row `i` extracts the link sets for
/// every destination at once (one BFS per source instead of one scan per
/// pair) and then solves the pairs `(i, j)` for `j > i`. The per-pair
/// computation is deterministic and independent of which worker runs it,
/// so the result is bit-identical across thread counts — and identical
/// whether or not memoization is on.
///
/// # Errors
/// See [`TableError`]. When several pairs fail, the error of the
/// lexicographically lowest pair is returned (matching what a serial
/// scan would hit first).
pub fn equivalent_distance_table_with(
    topo: &Topology,
    routing: &dyn Routing,
    options: TableOptions,
) -> Result<DistanceTable, TableError> {
    equivalent_distance_table_with_report(topo, routing, options).map(|(table, _)| table)
}

/// Shared write target for the build workers: row `i`'s pairs `(i, j)`,
/// `j > i`, are written only by the worker that claimed row `i`, so the
/// unsynchronized stores never alias. Workers write straight into the
/// final upper triangle — no per-worker `O(pairs)` scratch vectors, which
/// at N = 4096 would be ~200 MB of transient entry triples.
struct PairSink {
    ptr: *mut f64,
    n: usize,
}

unsafe impl Sync for PairSink {}

impl PairSink {
    /// # Safety
    /// `(i, j)` must be claimed by exactly one worker for this build.
    unsafe fn set_upper(&self, i: SwitchId, j: SwitchId, d: f64) {
        unsafe { *self.ptr.add(i * self.n + j) = d };
    }
}

/// [`equivalent_distance_table_with`] plus the approximation report:
/// `Some` when `options.solver` is [`SolverKind::Approximate`] (even if
/// every pair ended up exact), `None` for the exact solvers.
///
/// # Errors
/// See [`TableError`].
pub fn equivalent_distance_table_with_report(
    topo: &Topology,
    routing: &dyn Routing,
    options: TableOptions,
) -> Result<(DistanceTable, Option<ApproxReport>), TableError> {
    check_sizes(topo, routing)?;
    let _span = telemetry::Span::enter("distance.build");
    let t0 = Instant::now();
    let n = topo.num_switches();
    // Row n-1 has no pairs `j > i`, so there are n-1 work units.
    let rows = n.saturating_sub(1);
    let threads = resolve_threads(options.threads, rows);

    type Failure = ((SwitchId, SwitchId), TableError);
    /// First (lexicographic) failure plus the worker's approximation
    /// tallies: (err_max, pairs approximated, pairs escalated).
    type WorkerOut = (Option<Failure>, (f64, u64, u64));
    let mut data = vec![0.0f64; n * n];
    let sink = PairSink {
        ptr: data.as_mut_ptr(),
        n,
    };
    let cursor = AtomicUsize::new(0);
    let worker = || -> WorkerOut {
        let mut solver = PairSolver::new(topo, routing, options);
        let mut first_err: Option<Failure> = None;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= rows {
                break;
            }
            solver.begin_row(i);
            for j in (i + 1)..n {
                match solver.solve(i, j) {
                    // Safety: this worker claimed row i; no other worker
                    // touches (i, j) for j > i.
                    Ok(d) => unsafe { sink.set_upper(i, j, d) },
                    Err(e) => {
                        if first_err.as_ref().is_none_or(|&(p, _)| (i, j) < p) {
                            first_err = Some(((i, j), e));
                        }
                    }
                }
            }
        }
        let approx = (
            solver.tally.approx_err_max,
            solver.tally.approx_pairs,
            solver.tally.approx_escalations,
        );
        solver.tally.flush();
        (first_err, approx)
    };

    let results: Vec<WorkerOut> = if threads == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };

    let mut fail: Option<Failure> = None;
    let mut err_max = 0.0f64;
    let mut pairs_approximated = 0u64;
    let mut pairs_escalated = 0u64;
    for (err, (worker_err_max, approximated, escalated)) in results {
        if let Some((pair, e)) = err {
            if fail.as_ref().is_none_or(|&(p, _)| pair < p) {
                fail = Some((pair, e));
            }
        }
        err_max = err_max.max(worker_err_max);
        pairs_approximated += approximated;
        pairs_escalated += escalated;
    }
    // Mirror the upper triangle (workers only wrote j > i).
    for i in 0..n {
        for j in (i + 1)..n {
            data[j * n + i] = data[i * n + j];
        }
    }
    let m = build_metrics();
    m.builds.inc();
    m.build_ms.record(t0.elapsed().as_millis() as u64);
    let report = (options.solver == SolverKind::Approximate).then(|| {
        m.approx_err_max_micros.set((err_max * 1e6) as i64);
        ApproxReport {
            eps: options.approx_eps(),
            err_max,
            pairs_approximated,
            pairs_escalated,
        }
    });
    match fail {
        Some((_, e)) => Err(e),
        None => Ok((DistanceTable { n, data }, report)),
    }
}

/// Build the table of equivalent distances with the default options
/// (sparse solver, memoization, one thread).
///
/// # Errors
/// See [`TableError`].
pub fn equivalent_distance_table(
    topo: &Topology,
    routing: &dyn Routing,
) -> Result<DistanceTable, TableError> {
    equivalent_distance_table_with(topo, routing, TableOptions::default())
}

/// Parallel variant of [`equivalent_distance_table`]: `threads` workers
/// pull source rows off a shared work-stealing queue. Produces
/// bit-identical results to the serial build.
///
/// # Errors
/// See [`TableError`].
pub fn equivalent_distance_table_parallel(
    topo: &Topology,
    routing: &dyn Routing,
    threads: usize,
) -> Result<DistanceTable, TableError> {
    equivalent_distance_table_with(
        topo,
        routing,
        TableOptions {
            threads: threads.max(1),
            ..Default::default()
        },
    )
}

/// Plain hop-distance table under the same routing algorithm (the ablation
/// baseline: what you get if you skip the electrical model and use legal
/// route length directly).
pub fn hop_distance_table(routing: &dyn Routing) -> DistanceTable {
    let n = routing.num_switches();
    DistanceTable::from_fn(n, |i, j| f64::from(routing.route_distance(i, j)))
}

fn check_sizes(topo: &Topology, routing: &dyn Routing) -> Result<(), TableError> {
    if topo.num_switches() != routing.num_switches() {
        return Err(TableError::SizeMismatch {
            topology: topo.num_switches(),
            routing: routing.num_switches(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_routing::{ShortestPathRouting, UpDownRouting};
    use commsched_topology::designed;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn shared_handle_is_a_cheap_alias() {
        let t = designed::line(3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let shared = equivalent_distance_table(&t, &r).unwrap().into_shared();
        let other = std::sync::Arc::clone(&shared);
        assert!(std::sync::Arc::ptr_eq(&shared, &other));
        // Deref gives the full table API.
        assert_close(other.get(0, 2), 2.0);
    }

    #[test]
    fn line_distances_are_hop_counts() {
        // A line has unique paths: equivalent distance == hop distance.
        let t = designed::line(5, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert_close(table.get(i, j), (i as f64 - j as f64).abs());
            }
        }
    }

    #[test]
    fn parallel_paths_reduce_distance() {
        // Even ring antipodes: two parallel arcs halve the resistance.
        let t = designed::ring(4, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        // 0 <-> 2: two 2-hop arcs in parallel -> 1.
        assert_close(table.get(0, 2), 1.0);
        // Adjacent: single minimal path (the direct link) -> 1.
        assert_close(table.get(0, 1), 1.0);
    }

    #[test]
    fn updown_detour_is_costlier() {
        let t = designed::ring(6, 1);
        let ud = UpDownRouting::new(&t, 0).unwrap();
        let sp = ShortestPathRouting::new(&t).unwrap();
        let t_ud = equivalent_distance_table(&t, &ud).unwrap();
        let t_sp = equivalent_distance_table(&t, &sp).unwrap();
        // The forbidden turn forces 2->4 over the root: 4 series links.
        assert_close(t_ud.get(2, 4), 4.0);
        assert_close(t_sp.get(2, 4), 2.0);
        // Routing constraints can only remove links, never add shorter ones.
        for i in 0..6 {
            for j in 0..6 {
                assert!(t_ud.get(i, j) >= t_sp.get(i, j) - 1e-9);
            }
        }
    }

    #[test]
    fn table_is_symmetric_with_zero_diagonal() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        for i in 0..24 {
            assert_eq!(table.get(i, i), 0.0);
            for j in 0..24 {
                assert_close(table.get(i, j), table.get(j, i));
            }
        }
    }

    #[test]
    fn resistance_bounded_by_route_distance() {
        let t = designed::mesh(3, 3, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        for i in 0..9 {
            for j in 0..9 {
                if i != j {
                    let d = f64::from(r.route_distance(i, j));
                    assert!(table.get(i, j) <= d + 1e-9);
                    assert!(table.get(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let serial = equivalent_distance_table(&t, &r).unwrap();
        for threads in [1, 2, 7, 64] {
            let par = equivalent_distance_table_parallel(&t, &r, threads).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn hop_table_matches_routing() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = hop_distance_table(&r);
        assert_close(table.get(2, 4), 4.0);
        assert_close(table.get(1, 2), 1.0);
    }

    #[test]
    fn mean_square_normalization() {
        // 3-node line: distances 1, 1, 2 -> squares 1, 1, 4 -> mean 2.
        let t = designed::line(3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        assert_close(table.total_square(), 6.0);
        assert_close(table.mean_square(), 2.0);
        assert_close(table.max_distance(), 2.0);
    }

    #[test]
    fn size_mismatch_detected() {
        let t = designed::ring(6, 1);
        let other = designed::ring(5, 1);
        let r = ShortestPathRouting::new(&other).unwrap();
        assert!(matches!(
            equivalent_distance_table(&t, &r),
            Err(TableError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn updown_table_is_not_a_metric() {
        // §3: the ring's forbidden-turn detour makes T(2,4) = 4 while
        // T(2,3) + T(3,4) = 2 — a triangle violation, reported once as
        // (2, 3, 4) (not also as its mirror (4, 3, 2)).
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let violations = table.triangle_violations(1e-9);
        assert!(
            violations.contains(&(2, 3, 4)),
            "expected the (2,3,4) violation, got {violations:?}"
        );
        assert!(
            !violations.contains(&(4, 3, 2)),
            "mirrored duplicate reported: {violations:?}"
        );
    }

    #[test]
    fn triangle_violations_reported_once() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let violations = table.triangle_violations(1e-9);
        assert!(!violations.is_empty());
        let mut seen = std::collections::HashSet::new();
        for &(i, j, k) in &violations {
            assert!(i < k, "unordered endpoints in ({i}, {j}, {k})");
            // Canonical endpoint order means no triple can recur.
            assert!(seen.insert((i, j, k)), "duplicate ({i}, {j}, {k})");
        }
    }

    #[test]
    fn solver_variants_agree() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let default = equivalent_distance_table(&t, &r).unwrap();
        let dense = equivalent_distance_table_with(
            &t,
            &r,
            TableOptions {
                solver: SolverKind::DenseGaussian,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..24 {
            for j in 0..24 {
                assert_close(default.get(i, j), dense.get(i, j));
            }
        }
        // Memoization is a pure cache: switching it off is bit-identical.
        let unmemoized = equivalent_distance_table_with(
            &t,
            &r,
            TableOptions {
                memoize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(default, unmemoized);
    }

    #[test]
    fn unconstrained_tree_table_is_a_metric() {
        // Without routing constraints on a tree, T = hop distance, which
        // IS a metric: no violations.
        let t = designed::line(6, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        assert!(table.triangle_violations(1e-9).is_empty());
    }

    #[test]
    fn approximate_solver_respects_its_certificate() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let exact = equivalent_distance_table(&t, &r).unwrap();
        for eps in [0.0, 0.05, 0.25, 1.0] {
            let (approx, report) =
                equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(eps))
                    .unwrap();
            let report = report.expect("approximate build reports");
            assert!(report.err_max <= eps + 1e-15, "eps {eps}: {report:?}");
            let mut measured = 0.0f64;
            for i in 0..24 {
                for j in (i + 1)..24 {
                    let rel = (approx.get(i, j) - exact.get(i, j)).abs() / exact.get(i, j);
                    measured = measured.max(rel);
                }
            }
            assert!(
                measured <= report.err_max + 1e-12,
                "eps {eps}: measured {measured} > reported {}",
                report.err_max
            );
            assert!(
                report.pairs_approximated + report.pairs_escalated > 0,
                "non-path pairs exist on the paper network"
            );
        }
        // eps = 0 escalates everything: bit-identical to the exact build.
        let (tight, _) =
            equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(0.0)).unwrap();
        assert_eq!(tight, exact);
    }

    #[test]
    fn approximate_bounds_bracket_parallel_arcs() {
        // Even ring antipodes: two 2-hop arcs in parallel, true R = 1.
        // A loose budget is satisfied by the first stripped route alone
        // (interval [1, 2], midpoint 1.5); a tighter one forces the
        // second route, which closes the interval to [1, 1] — the
        // midpoint *is* the exact value, and nothing escalates.
        let t = designed::ring(4, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let (coarse, rep) =
            equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(0.5)).unwrap();
        assert_close(coarse.get(0, 2), 1.5);
        assert!(rep.unwrap().pairs_approximated >= 2, "both antipode pairs");
        let (fine, rep) =
            equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(0.25)).unwrap();
        assert_close(fine.get(0, 2), 1.0);
        let rep = rep.unwrap();
        assert!(rep.pairs_approximated >= 2, "route stripping tightens");
        assert_eq!(rep.pairs_escalated, 0, "no pair needs the exact solver");
    }

    #[test]
    fn approximate_build_is_thread_deterministic() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let build = |threads| {
            equivalent_distance_table_with_report(
                &t,
                &r,
                TableOptions {
                    threads,
                    ..TableOptions::approximate(0.25)
                },
            )
            .unwrap()
        };
        let (serial, serial_report) = build(1);
        for threads in [2, 7, 64] {
            let (par, report) = build(threads);
            assert_eq!(serial, par, "threads = {threads}");
            assert_eq!(serial_report, report, "threads = {threads}");
        }
    }

    #[test]
    fn eps_micros_conversions() {
        assert_eq!(eps_to_micros(0.05), 50_000);
        assert_eq!(eps_to_micros(0.0), 0);
        assert_eq!(eps_to_micros(-1.0), 0);
        assert_eq!(eps_to_micros(1e12), u32::MAX);
        let opts = TableOptions::approximate(0.05);
        assert_eq!(opts.solver, SolverKind::Approximate);
        assert!((opts.approx_eps() - 0.05).abs() < 1e-12);
        // A table spec maps to exactly those options (plus the thread
        // count) and round-trips through its log spelling.
        let spec = TableSpec::from_eps_micros(50_000);
        assert_eq!(spec, TableSpec::Approx { eps_micros: 50_000 });
        assert_eq!(spec.options(1), opts);
        assert_eq!(TableSpec::from_eps_micros(0), TableSpec::Exact);
        let exact = TableSpec::Exact.options(3);
        assert_eq!((exact.solver, exact.threads), (SolverKind::default(), 3));
        for spec in [spec, TableSpec::Exact] {
            assert_eq!(spec.to_string().parse(), Ok(spec));
        }
        assert!("approx:x".parse::<TableSpec>().is_err());
    }

    #[test]
    fn triangle_scan_capped_and_counted() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let listed = table.triangle_violations(1e-9);
        assert_eq!(listed.len() as u64, table.triangle_violation_count(1e-9));
        assert!(listed.len() <= TRIANGLE_REPORT_CAP);
        // A metric table counts zero.
        let line = designed::line(6, 1);
        let sp = ShortestPathRouting::new(&line).unwrap();
        let metric = equivalent_distance_table(&line, &sp).unwrap();
        assert_eq!(metric.triangle_violation_count(1e-9), 0);
    }

    #[test]
    fn build_flushes_telemetry_tallies() {
        let m = build_metrics();
        let builds0 = m.builds.get();
        let pairs0 = m.pairs.get();
        let rows0 = m.rows.get();
        let t = designed::ring(8, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let _ = equivalent_distance_table(&t, &r).unwrap();
        // Other tests run builds concurrently, so assert monotone floors
        // against the snapshot, not exact deltas.
        assert!(m.builds.get() > builds0);
        assert!(m.pairs.get() >= pairs0 + 28, "C(8,2) pairs tallied");
        assert!(m.rows.get() >= rows0 + 7, "n-1 rows extracted");
        assert!(m.build_ms.count() >= 1);
    }

    #[test]
    fn row_accessor() {
        let t = designed::line(3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        assert_eq!(table.row(0), &[0.0, 1.0, 2.0]);
    }
}
