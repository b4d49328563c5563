//! Building a whole table: the row fan-out, the shared write target,
//! the telemetry cells and the public entry points.

use super::solve::{PairSolver, PairTally};
use super::spec::{ApproxReport, TableError, TableOptions};
use super::DistanceTable;
use commsched_routing::Routing;
use commsched_telemetry as telemetry;
use commsched_topology::{SwitchId, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Telemetry handles of the distance layer, resolved once per process.
/// Workers tally locally (plain `u64`s in [`PairTally`]); a build or a
/// repair flushes the merged totals here when it finishes, so the
/// per-pair hot path never touches an atomic.
struct BuildMetrics {
    builds: telemetry::Counter,
    build_ms: telemetry::Histo,
    rows: telemetry::Counter,
    pairs: telemetry::Counter,
    series_path: telemetry::Counter,
    route_walks: telemetry::Counter,
    dense_solves: telemetry::Counter,
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
                "Source rows scanned (one forward route search each)",
            ),
            pairs: r.counter(
                "distance_pairs_total",
                "Switch pairs whose equivalent distance was computed, by a build or a repair",
            ),
            series_path: r.counter(
                "distance_series_path_total",
                "Pairs with one minimal route, answered by the row scan (no link set, no solve)",
            ),
            route_walks: r.counter(
                "distance_route_walks_total",
                "Pairs whose route link set was extracted",
            ),
            dense_solves: r.counter(
                "distance_dense_solves_total",
                "Pairs solved by the dense Gaussian baseline",
            ),
        }
    })
}

impl PairTally {
    /// Add the tallies of one finished build or repair to the
    /// `distance_*_total` cells. `distance_builds_total` and
    /// `distance_build_ms` are the build's own and not touched here.
    pub(crate) fn flush(&self) {
        let m = build_metrics();
        m.rows.add(self.rows);
        m.pairs.add(self.pairs);
        m.series_path.add(self.series_path);
        m.route_walks.add(self.route_walks);
        m.dense_solves.add(self.dense_solves);
    }
}

/// Run `per_unit` once for each of `units` work units on up to `threads`
/// workers (0 = one per available CPU, never more than there are units)
/// and return every worker's state. Workers claim units off a shared
/// cursor (work stealing: per-unit cost varies), each on a state of its
/// own made by `new_worker`; one worker runs on the calling thread.
pub(crate) fn fan_out<W: Send>(
    units: usize,
    threads: usize,
    new_worker: impl Fn() -> W + Sync,
    per_unit: impl Fn(&mut W, usize) + Sync,
) -> Vec<W> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    }
    .clamp(1, units.max(1));
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut state = new_worker();
        loop {
            let unit = cursor.fetch_add(1, Ordering::Relaxed);
            if unit >= units {
                break state;
            }
            per_unit(&mut state, unit);
        }
    };
    if threads == 1 {
        return vec![worker()];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("distance worker panicked"))
            .collect()
    })
}

/// The failure a serial scan would hit first: of every failed pair
/// noted, the lexicographically lowest, whichever worker met it when.
#[derive(Default)]
pub(crate) struct FirstFailure(Option<((SwitchId, SwitchId), TableError)>);

impl FirstFailure {
    pub(crate) fn note(&mut self, pair: (SwitchId, SwitchId), error: TableError) {
        if self.0.as_ref().is_none_or(|&(first, _)| pair < first) {
            self.0 = Some((pair, error));
        }
    }

    pub(crate) fn merge(&mut self, other: FirstFailure) {
        if let Some((pair, error)) = other.0 {
            self.note(pair, error);
        }
    }

    pub(crate) fn into_result(self) -> Result<(), TableError> {
        self.0.map_or(Ok(()), |(_, error)| Err(error))
    }
}

/// Shared write target for the build workers: the pair `{i, j}`, `j > i`,
/// belongs to the worker that claimed row `i`, which writes both of its
/// cells. Workers write straight into the final matrix — no per-worker
/// `O(pairs)` scratch vectors, which at N = 4096 would be ~200 MB of
/// transient entry triples, and no mirroring pass after the join.
struct PairSink {
    ptr: *mut f64,
    n: usize,
}

// SAFETY: the pointer is only written through `set_pair`, whose contract
// gives every cell to one worker — `(i, j)` and `(j, i)` are the cells of
// one unordered pair, and no other pair has either; nothing reads it
// until the workers joined.
unsafe impl Sync for PairSink {}

impl PairSink {
    /// # Safety
    /// The unordered pair `{i, j}` must be claimed by exactly one worker
    /// for this build.
    unsafe fn set_pair(&self, i: SwitchId, j: SwitchId, d: f64) {
        unsafe {
            *self.ptr.add(i * self.n + j) = d;
            *self.ptr.add(j * self.n + i) = d;
        }
    }
}

/// Build the table of equivalent distances for `topo` under `routing`
/// with explicit [`TableOptions`] (§3 of the paper): for each pair, the
/// links on minimal legal routes form a resistor network whose effective
/// resistance is the entry.
///
/// Workers pull source rows off a shared atomic counter (work stealing),
/// since per-row cost varies with both the row's pair count and the
/// route sub-network sizes. A claimed row `i` is scanned once (one BFS
/// per source, which answers every pair with a single minimal route) and
/// then resolves the pairs `(i, j)` for `j > i`, extracting a link set
/// only for the pairs it has to solve. The per-pair
/// computation is deterministic and independent of which worker runs it,
/// so the result is bit-identical across thread counts.
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
    check_sizes(topo, routing)?;
    let _span = telemetry::Span::enter("distance.build");
    let t0 = Instant::now();
    let n = topo.num_switches();
    let mut data = vec![0.0f64; n * n];
    let sink = PairSink {
        ptr: data.as_mut_ptr(),
        n,
    };
    // Row n-1 has no pairs `j > i`, so there are n-1 work units.
    let workers = fan_out(
        n.saturating_sub(1),
        options.threads,
        || {
            (
                PairSolver::new(topo, routing, options),
                FirstFailure::default(),
            )
        },
        |(solver, failure), i| {
            solver.begin_row(i);
            for j in (i + 1)..n {
                match solver.solve(i, j) {
                    // SAFETY: this worker claimed row i; no other worker
                    // resolves a pair {i, j} with j > i.
                    Ok(d) => unsafe { sink.set_pair(i, j, d) },
                    Err(e) => failure.note((i, j), e),
                }
            }
        },
    );
    let mut failure = FirstFailure::default();
    let mut tally = PairTally::default();
    for (solver, worker_failure) in workers {
        failure.merge(worker_failure);
        tally.merge(&solver.tally);
    }
    tally.flush();
    let m = build_metrics();
    m.builds.inc();
    m.build_ms.record(t0.elapsed().as_millis() as u64);
    failure.into_result()?;
    Ok(DistanceTable { n, data })
}

/// [`equivalent_distance_table_with`] and the report an approximate
/// build made. Every build is exact, so the report is always `None`
/// ([`ApproxReport`] has no values).
///
/// # Errors
/// See [`TableError`].
pub fn equivalent_distance_table_with_report(
    topo: &Topology,
    routing: &dyn Routing,
    options: TableOptions,
) -> Result<(DistanceTable, Option<ApproxReport>), TableError> {
    equivalent_distance_table_with(topo, routing, options).map(|table| (table, None))
}

/// Build the table of equivalent distances with the default options
/// (sparse solver, one thread).
///
/// # Errors
/// See [`TableError`].
pub fn equivalent_distance_table(
    topo: &Topology,
    routing: &dyn Routing,
) -> Result<DistanceTable, TableError> {
    equivalent_distance_table_with(topo, routing, TableOptions::default())
}

pub(crate) fn check_sizes(topo: &Topology, routing: &dyn Routing) -> Result<(), TableError> {
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

    #[test]
    fn fan_out_visits_every_unit_once_on_no_more_workers_than_units() {
        for threads in [0usize, 1, 2, 7] {
            for units in [0usize, 1, 5] {
                let workers = fan_out(units, threads, Vec::new, |seen, unit| seen.push(unit));
                let mut visited: Vec<usize> = workers.iter().flatten().copied().collect();
                visited.sort_unstable();
                let want: Vec<usize> = (0..units).collect();
                assert_eq!(visited, want, "threads {threads} units {units}");
                // No idle worker state: a thread count above the unit
                // count is clamped, and an empty job still answers with
                // the calling thread's (empty) state.
                assert!((1..=units.max(1)).contains(&workers.len()));
                if threads > 0 {
                    assert_eq!(workers.len(), threads.min(units.max(1)));
                }
            }
        }
    }

    #[test]
    fn first_failure_is_the_lowest_pair_in_any_order() {
        let fail = |pair: (SwitchId, SwitchId)| {
            let (src, dst) = pair;
            (pair, TableError::BadRepairPair { src, dst, n: 0 })
        };
        let pairs = [(2, 9), (1, 4), (1, 3), (7, 8)];
        // Every rotation of the notes, split between two workers at
        // every point, merged in both orders.
        for rot in 0..pairs.len() {
            for split in 0..=pairs.len() {
                for flip in [false, true] {
                    let mut halves = [FirstFailure::default(), FirstFailure::default()];
                    for k in 0..pairs.len() {
                        let (pair, e) = fail(pairs[(k + rot) % pairs.len()]);
                        halves[usize::from(k >= split)].note(pair, e);
                    }
                    let [a, b] = halves;
                    let (mut into, from) = if flip { (b, a) } else { (a, b) };
                    into.merge(from);
                    assert_eq!(into.into_result(), Err(fail((1, 3)).1));
                }
            }
        }
        assert_eq!(FirstFailure::default().into_result(), Ok(()));
    }

    #[test]
    fn parallel_build_matches_serial() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let serial = equivalent_distance_table(&t, &r).unwrap();
        for threads in [1, 2, 7, 64] {
            let options = TableOptions {
                threads,
                ..Default::default()
            };
            let par = equivalent_distance_table_with(&t, &r, options).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
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
}
