//! Computation-side scheduling baselines.
//!
//! The paper positions its technique as one half of an ideal scheduler that
//! would "choose either a computation-aware or a communication-aware task
//! scheduling strategy depending on the kind of requirements that leads to
//! the system performance bottleneck" (§1). This module supplies the
//! computation-aware half it cites (§2): the classic static mapping
//! heuristics for independent tasks on heterogeneous machines — OLB, UDA
//! (a.k.a. minimum execution time), Min-min and Max-min — over an expected
//! time to compute (ETC) matrix, plus a combined objective blending
//! makespan with the communication criterion.

use commsched_core::{similarity_fg, Partition};
use commsched_distance::DistanceTable;

/// Expected-time-to-compute matrix: `etc[task][machine]` is the time the
/// task needs on the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct EtcMatrix {
    tasks: usize,
    machines: usize,
    data: Vec<f64>,
}

impl EtcMatrix {
    /// Build from a row-major vector (`tasks × machines`).
    ///
    /// # Panics
    /// Panics on a shape mismatch or non-positive entries.
    pub fn from_vec(tasks: usize, machines: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), tasks * machines, "shape mismatch");
        assert!(
            data.iter().all(|&x| x > 0.0),
            "execution times must be positive"
        );
        Self {
            tasks,
            machines,
            data,
        }
    }

    /// Number of tasks.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Time of `task` on `machine`.
    #[inline]
    pub fn time(&self, task: usize, machine: usize) -> f64 {
        self.data[task * self.machines + machine]
    }
}

/// A computation schedule: per-task machine assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeSchedule {
    /// `machine[t]` runs task `t`.
    pub machine: Vec<usize>,
    /// Completion time of every machine.
    pub machine_finish: Vec<f64>,
}

impl ComputeSchedule {
    /// The makespan (maximum machine completion time).
    pub fn makespan(&self) -> f64 {
        self.machine_finish.iter().copied().fold(0.0, f64::max)
    }
}

fn empty_schedule(etc: &EtcMatrix) -> ComputeSchedule {
    ComputeSchedule {
        machine: vec![usize::MAX; etc.tasks()],
        machine_finish: vec![0.0; etc.machines()],
    }
}

/// Opportunistic Load Balancing: assign each task (in index order) to the
/// machine that becomes *available* earliest, ignoring execution times.
pub fn olb(etc: &EtcMatrix) -> ComputeSchedule {
    let mut s = empty_schedule(etc);
    for t in 0..etc.tasks() {
        let m = argmin(&s.machine_finish);
        s.machine[t] = m;
        s.machine_finish[m] += etc.time(t, m);
    }
    s
}

/// User-Directed Assignment (minimum execution time): assign each task to
/// the machine where it runs fastest, ignoring machine load.
pub fn uda(etc: &EtcMatrix) -> ComputeSchedule {
    let mut s = empty_schedule(etc);
    for t in 0..etc.tasks() {
        let m = (0..etc.machines())
            .min_by(|&a, &b| {
                etc.time(t, a)
                    .partial_cmp(&etc.time(t, b))
                    .expect("finite ETC")
            })
            .expect("at least one machine");
        s.machine[t] = m;
        s.machine_finish[m] += etc.time(t, m);
    }
    s
}

/// Shared core of Min-min and Max-min: repeatedly compute, for every
/// unassigned task, its minimum completion time over machines; then commit
/// the task selected by `pick_max` (false → Min-min, true → Max-min).
fn minmax_core(etc: &EtcMatrix, pick_max: bool) -> ComputeSchedule {
    let mut s = empty_schedule(etc);
    let mut unassigned: Vec<usize> = (0..etc.tasks()).collect();
    while !unassigned.is_empty() {
        let mut chosen: Option<(f64, usize, usize)> = None; // (mct, task, machine)
        for &t in &unassigned {
            let (m, mct) = (0..etc.machines())
                .map(|m| (m, s.machine_finish[m] + etc.time(t, m)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ETC"))
                .expect("at least one machine");
            let better = match chosen {
                None => true,
                Some((best, _, _)) => {
                    if pick_max {
                        mct > best
                    } else {
                        mct < best
                    }
                }
            };
            if better {
                chosen = Some((mct, t, m));
            }
        }
        let (_, t, m) = chosen.expect("unassigned non-empty");
        s.machine[t] = m;
        s.machine_finish[m] += etc.time(t, m);
        unassigned.retain(|&x| x != t);
    }
    s
}

/// Min-min: repeatedly commit the task with the smallest minimum completion
/// time.
pub fn min_min(etc: &EtcMatrix) -> ComputeSchedule {
    minmax_core(etc, false)
}

/// Max-min: repeatedly commit the task with the *largest* minimum
/// completion time (long tasks first).
pub fn max_min(etc: &EtcMatrix) -> ComputeSchedule {
    minmax_core(etc, true)
}

/// The future-work combined objective: a convex blend of normalized
/// makespan and the communication criterion `F_G`.
/// `alpha = 1` is purely computation-aware; `alpha = 0` purely
/// communication-aware.
///
/// # Panics
/// Panics if `alpha` is outside `[0, 1]` or `reference_makespan <= 0`.
pub fn combined_cost(
    makespan: f64,
    reference_makespan: f64,
    partition: &Partition,
    table: &DistanceTable,
    alpha: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "alpha in [0, 1]");
    assert!(reference_makespan > 0.0, "reference makespan positive");
    alpha * (makespan / reference_makespan) + (1.0 - alpha) * similarity_fg(partition, table)
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 tasks × 2 machines; machine 1 is uniformly twice as fast.
    fn hetero_etc() -> EtcMatrix {
        EtcMatrix::from_vec(3, 2, vec![4.0, 2.0, 8.0, 4.0, 2.0, 1.0])
    }

    #[test]
    fn olb_balances_availability() {
        let s = olb(&hetero_etc());
        // t0 -> m0 (both free, argmin picks 0), t1 -> m1 (m0 busy 4 > 0),
        // t2 -> m1? finish m0=4, m1=4 -> argmin 0 -> t2 on m0.
        assert_eq!(s.machine, vec![0, 1, 0]);
        assert!((s.makespan() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn uda_chases_fast_machine() {
        let s = uda(&hetero_etc());
        // Everything lands on machine 1 (always fastest): makespan 7.
        assert_eq!(s.machine, vec![1, 1, 1]);
        assert!((s.makespan() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn min_min_accounts_for_load_unlike_uda() {
        // Both tasks are fastest on machine 1, but min-min sees the queue:
        // it offloads the second task to machine 0 (completion 3 < 4).
        let etc = EtcMatrix::from_vec(2, 2, vec![3.0, 2.0, 3.0, 2.0]);
        let s = min_min(&etc);
        assert!((s.makespan() - 3.0).abs() < 1e-12);
        let u = uda(&etc);
        assert!((u.makespan() - 4.0).abs() < 1e-12);
        assert!(s.makespan() < u.makespan());
    }

    #[test]
    fn max_min_schedules_long_tasks_first() {
        let etc = EtcMatrix::from_vec(3, 2, vec![10.0, 10.0, 1.0, 1.0, 1.0, 1.0]);
        let s = max_min(&etc);
        // The long task goes first and alone; the two short ones share the
        // other machine: makespan 10.
        assert!((s.makespan() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn min_min_commits_short_tasks_first() {
        // t0 has the smaller MCT and is committed first to machine 0; t1
        // then still completes earliest on the loaded machine 0 (1+2 < 4).
        let etc = EtcMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let s = min_min(&etc);
        assert_eq!(s.machine, vec![0, 0]);
        assert!((s.makespan() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn schedules_cover_all_tasks_exactly_once() {
        let etc = EtcMatrix::from_vec(6, 3, (0..18).map(|i| 1.0 + (i % 5) as f64).collect());
        for s in [olb(&etc), uda(&etc), min_min(&etc), max_min(&etc)] {
            assert_eq!(s.machine.len(), 6);
            assert!(s.machine.iter().all(|&m| m < 3));
            let sum: f64 = (0..6).map(|t| etc.time(t, s.machine[t])).sum();
            let finish: f64 = s.machine_finish.iter().sum();
            assert!((sum - finish).abs() < 1e-9);
        }
    }

    #[test]
    fn combined_cost_interpolates() {
        use crate::comparators::testutil::{dumbbell_table, dumbbell_truth};
        let table = dumbbell_table();
        let p = dumbbell_truth();
        let comm_only = combined_cost(10.0, 10.0, &p, &table, 0.0);
        let comp_only = combined_cost(10.0, 10.0, &p, &table, 1.0);
        let blend = combined_cost(10.0, 10.0, &p, &table, 0.5);
        assert!((comp_only - 1.0).abs() < 1e-12);
        assert!((blend - 0.5 * (comm_only + comp_only)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn etc_rejects_nonpositive() {
        let _ = EtcMatrix::from_vec(1, 2, vec![1.0, 0.0]);
    }
}
