//! A minimal scoped work-stealing pool, shared by the search (restarts,
//! seeds, refinement scans) and the simulator (a load sweep's runs).
//!
//! All that parallelism has the same shape: `tasks` independent jobs of
//! uneven cost, results needed *in task order* so the caller's merge is
//! deterministic. [`run_indexed`] implements exactly that — workers pull
//! indices off a shared atomic counter (work stealing, since seeds and
//! simulations differ wildly in runtime) and the results are returned
//! indexed, so thread scheduling never leaks into the output.

use crate::{Counter, Gauge};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set on each worker [`run_indexed`] spawns, for its whole life.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Telemetry handles for the pool, resolved once per process.
struct PoolMetrics {
    tasks: Counter,
    queue_depth: Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = crate::global();
        PoolMetrics {
            tasks: r.counter("pool_tasks_total", "Tasks executed by the worker pool"),
            queue_depth: r.gauge(
                "pool_queue_depth",
                "Unclaimed tasks on the worker pool's shared queue (last pool run)",
            ),
        }
    })
}

/// Resolve a thread-count knob: `0` means one worker per available CPU.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
}

/// Run `f(0), f(1), …, f(tasks - 1)` across `threads` scoped workers
/// (`0` = one per available CPU) and return the results in task order.
///
/// Workers claim indices from a shared atomic counter, so long tasks
/// don't stall the queue behind them. With one worker (or one task) the
/// closure runs inline on the caller's thread — no spawn, identical
/// results.
///
/// # Panics
/// Panics if a worker panics. In debug builds, also if called from a
/// worker of another pool with more than one worker to start.
pub fn run_indexed<T, F>(tasks: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).clamp(1, tasks.max(1));
    #[cfg(debug_assertions)]
    let log = hook::note_pool(threads);
    let m = pool_metrics();
    m.tasks.add(tasks as u64);
    if threads <= 1 {
        return (0..tasks).map(f).collect();
    }
    // INVARIANT (one pool level): a caller's thread budget is the width of
    // one pool. A worker that started a wider-than-one pool of its own
    // would run `threads` times the budget.
    debug_assert!(
        !IN_WORKER.with(Cell::get),
        "one pool level: a pool of {threads} workers started inside a pool worker"
    );
    let cursor = AtomicUsize::new(0);
    let worker = || {
        IN_WORKER.with(|w| w.set(true));
        #[cfg(debug_assertions)]
        hook::adopt(log.clone());
        let mut out: Vec<(usize, T)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            // Tasks are coarse (whole seed runs, simulations), so a gauge store per
            // claim is noise; concurrent pools last-write-wins.
            m.queue_depth.set(tasks.saturating_sub(i + 1) as i64);
            out.push((i, f(i)));
        }
        out
    };
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for h in handles {
            for (i, v) in h.join().expect("pool worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task index was claimed"))
        .collect()
}

#[cfg(debug_assertions)]
pub use hook::{logged, PoolStart};

/// The pool-start log behind [`logged`]: debug builds only, like the
/// one-pool-level assertion it lets any crate's tests pin.
#[cfg(debug_assertions)]
mod hook {
    use super::IN_WORKER;
    use std::cell::{Cell, RefCell};
    use std::sync::{Arc, Mutex};

    /// A pool a [`logged`] call started.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PoolStart {
        /// Workers it ran on (1 = inline on the thread that started it).
        pub width: usize,
        /// Whether a worker of another pool started it.
        pub on_worker: bool,
    }

    pub(super) type Log = Option<Arc<Mutex<Vec<PoolStart>>>>;

    thread_local! {
        /// The log of the [`logged`] call this thread works for, if any: a
        /// pool's workers adopt the log of the thread that started it.
        static LOG: RefCell<Log> = const { RefCell::new(None) };
    }

    pub(super) fn note_pool(width: usize) -> Log {
        let log = LOG.with(|l| l.borrow().clone());
        if let Some(log) = &log {
            let on_worker = IN_WORKER.with(Cell::get);
            log.lock().unwrap().push(PoolStart { width, on_worker });
        }
        log
    }

    pub(super) fn adopt(log: Log) {
        LOG.with(|l| *l.borrow_mut() = log);
    }

    /// Run `f` on this thread; also return every pool it started, on
    /// this thread or on any worker of its pools, in no set order.
    pub fn logged<T>(f: impl FnOnce() -> T) -> (T, Vec<PoolStart>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        adopt(Some(Arc::clone(&log)));
        let out = f();
        adopt(None);
        let starts = log.lock().unwrap().clone();
        (out, starts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    fn a_pool_started_by_a_worker_is_logged_as_such() {
        let (_, starts) = logged(|| run_indexed(2, 2, |_| run_indexed(3, 1, |i| i)));
        let on_worker = PoolStart {
            width: 1,
            on_worker: true,
        };
        let first = PoolStart {
            width: 2,
            on_worker: false,
        };
        assert_eq!(starts.len(), 3, "{starts:?}");
        assert!(starts.contains(&first));
        assert_eq!(starts.iter().filter(|&&s| s == on_worker).count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one pool level")]
    fn a_wide_pool_inside_a_worker_panics() {
        // This thread as a worker, so that the panic is the test's own
        // (a real worker's reaches the test as "pool worker panicked").
        IN_WORKER.with(|w| w.set(true));
        let _ = run_indexed(1, 2, |i| i);
        let _ = run_indexed(2, 2, |i| i);
    }

    #[test]
    fn results_arrive_in_task_order() {
        for threads in [1, 2, 7, 64] {
            let out = run_indexed(20, threads, |i| i * i);
            let want: Vec<usize> = (0..20).map(|i| i * i).collect();
            assert_eq!(out, want, "threads = {threads}");
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn auto_thread_count_resolves() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
