//! The four workloads: what each job is, as a pure function of
//! `--seed` and the job's index, and the networks they run on.

use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which mapping pipeline a workload's jobs ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Flat,
    Multilevel,
}

/// One workload. Sizes are chosen so that, on the two-core reference
/// box, a 20 s window completes well over 100 jobs and the layer named
/// in `why` does most of each job (README, "Workloads").
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists the workload, i.e. whether the
    /// driver gates changes on it. `paper_warm` is measured by every
    /// suite run but not gated: its jobs are a chain of thread and
    /// socket wake-ups, whose cost on the shared reference box swings
    /// tenfold for minutes at a time (README, "Noise").
    pub gated: bool,
    /// Switches of each generated degree-3 random network.
    pub switches: usize,
    /// Generated networks per run.
    pub pool: usize,
    pub clusters: usize,
    pub strategy: Strategy,
    /// `Some(p)` makes every job a `SWEEP points=p`.
    pub sweep_points: Option<usize>,
    /// Job `i` runs on the built-in `paper24` when `i % every == 0`.
    pub paper24_every: Option<u64>,
    /// Each job uploads its own never-seen network before submitting,
    /// so nothing about it is cached.
    pub cold: bool,
    /// `fg_mean` averages the first this-many jobs of the sequence:
    /// about half of what the reference box completes in a 20 s solo
    /// window, so the same jobs are averaged in every run and the value
    /// repeats exactly for a fixed `--seed`.
    pub fg_jobs: usize,
    /// Jobs re-executed in-process by the layer replay.
    pub replay_jobs: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "paper_warm",
        gated: false,
        why: "1-3 ms searches on paper24 and 16-switch nets, tables cached: wire, queue, two fsynced WAL records and polling are over half of each job",
        switches: 16,
        pool: 7,
        clusters: 4,
        strategy: Strategy::Flat,
        sweep_points: None,
        paper24_every: Some(4),
        cold: false,
        fg_jobs: 1000,
        replay_jobs: 40,
    },
    Spec {
        name: "large_warm",
        gated: true,
        why: "flat tabu on N=96 nets, tables cached: search is nearly all of the job and the front end is noise",
        switches: 96,
        pool: 8,
        clusters: 8,
        strategy: Strategy::Flat,
        sweep_points: None,
        paper24_every: None,
        cold: false,
        fg_jobs: 120,
        replay_jobs: 8,
    },
    Spec {
        name: "large_cold",
        gated: true,
        why: "every job uploads a never-seen N=320 net: parse, routing, table build, multi-MB cache WAL record, snapshots and multilevel search all run per job",
        switches: 320,
        pool: 136,
        clusters: 8,
        strategy: Strategy::Multilevel,
        sweep_points: None,
        paper24_every: None,
        cold: true,
        fg_jobs: 16,
        replay_jobs: 6,
    },
    Spec {
        name: "sweep_sim",
        gated: true,
        why: "SWEEP with nine load points over 16-switch nets that never fit the table cache: the flit simulator is nearly all of the job, mapping layers almost none",
        switches: 16,
        pool: 16,
        clusters: 4,
        strategy: Strategy::Flat,
        sweep_points: Some(9),
        paper24_every: Some(5),
        cold: false,
        fg_jobs: 20,
        replay_jobs: 4,
    },
];

/// The daemon's `--cache-cap`.
pub const CACHE_ENTRIES: usize = 8;

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The network a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopoUse {
    Paper24,
    /// Index into [`Inputs::pool`].
    Pool(usize),
}

/// Job `i` of a workload's sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlan {
    pub index: u64,
    pub topo: TopoUse,
    /// The search seed sent as `seed=`.
    pub search_seed: u64,
}

/// Everything generated from `--seed` before any timing starts.
pub struct Inputs {
    pub seed: u64,
    pub pool: Vec<Topology>,
    pub paper24: Topology,
}

/// SplitMix64: decorrelates the per-purpose RNG streams derived from
/// one `--seed`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Strategy {
    /// What the strategy adds to a `SUBMIT` line.
    fn submit_suffix(self) -> &'static str {
        match self {
            Strategy::Flat => "",
            Strategy::Multilevel => " strategy=multilevel",
        }
    }

    /// The replay's span name for the search stage.
    pub fn search_stage(self) -> &'static str {
        match self {
            Strategy::Flat => "search.flat",
            Strategy::Multilevel => "search.multilevel",
        }
    }
}

impl Spec {
    /// Generate the run's networks: `pool` random degree-3 networks of
    /// the paper's §5.1 class (4 hosts per switch), each from its own
    /// stream of `seed`.
    pub fn generate(&self, seed: u64) -> Inputs {
        let pool = (0..self.pool)
            .map(|k| {
                let stream =
                    splitmix64(seed ^ splitmix64(self.switches as u64 ^ ((k as u64) << 20)));
                let mut rng = StdRng::seed_from_u64(stream);
                random_regular(RandomTopologyConfig::paper(self.switches), &mut rng)
                    .expect("a 3-regular graph exists for every even switch count used here")
            })
            .collect();
        Inputs {
            seed,
            pool,
            paper24: designed::paper_24_switch(),
        }
    }

    /// Job `i`. Search seeds are 16 apart because the daemon runs four
    /// restarts `seed..seed+4`: no two jobs of a run share a restart, so
    /// no memo of results or restarts can win.
    pub fn job(&self, seed: u64, i: u64) -> JobPlan {
        let on_paper24 = self
            .paper24_every
            .is_some_and(|every| i.is_multiple_of(every));
        let topo = if on_paper24 {
            TopoUse::Paper24
        } else {
            // Count only the pool's own jobs so the pool is walked evenly.
            let nth = match self.paper24_every {
                Some(every) => i - i / every - 1,
                None => i,
            };
            TopoUse::Pool((nth % self.job_pool() as u64) as usize)
        };
        JobPlan {
            index: i,
            topo,
            search_seed: (splitmix64(seed) % 1_000_000) * 1_000_000 + 16 * i,
        }
    }

    /// The `SUBMIT` argument string for a job on the network spelled
    /// `topo_ref` (`paper24` or `fp:<hex>`).
    pub fn submit_args(&self, plan: &JobPlan, topo_ref: &str) -> String {
        let verb = if self.sweep_points.is_some() {
            "SWEEP"
        } else {
            "SCHEDULE"
        };
        let mut args = format!(
            "{verb} topo={topo_ref} clusters={} seed={}",
            self.clusters, plan.search_seed
        );
        if let Some(points) = self.sweep_points {
            args.push_str(&format!(" points={points}"));
        }
        args.push_str(self.strategy.submit_suffix());
        args
    }

    /// Networks the set-up uploads and runs one warm-up `SCHEDULE` on,
    /// so the window starts from a full cache:
    /// - warm workloads whose networks fit the cache: all of them;
    /// - a pool larger than the cache cannot be warm: only `paper24`;
    /// - cold workloads: the pool's last [`CACHE_ENTRIES`] networks, never
    ///   used by a job — they fill the LRU so that the snapshots the
    ///   window's jobs trigger are already at their steady-state size
    ///   (otherwise the window's first jobs are its fastest by far).
    pub fn warm_set(&self) -> Vec<TopoUse> {
        if self.cold {
            return (self.job_pool()..self.pool).map(TopoUse::Pool).collect();
        }
        let mut set = Vec::new();
        if self.paper24_every.is_some() {
            set.push(TopoUse::Paper24);
        }
        if self.pool + set.len() <= CACHE_ENTRIES {
            set.extend((0..self.pool).map(TopoUse::Pool));
        }
        set
    }

    /// How many of the pool's networks jobs run on.
    fn job_pool(&self) -> usize {
        if self.cold {
            self.pool - CACHE_ENTRIES
        } else {
            self.pool
        }
    }

    /// The warm-up job on the network spelled `topo_ref`: a `SCHEDULE`
    /// of the workload's own shape.
    pub fn warm_args(&self, topo_ref: &str) -> String {
        format!(
            "SCHEDULE topo={topo_ref} clusters={} seed=1{}",
            self.clusters,
            self.strategy.submit_suffix()
        )
    }
}

impl Inputs {
    pub fn topology(&self, which: TopoUse) -> &Topology {
        match which {
            TopoUse::Paper24 => &self.paper24,
            TopoUse::Pool(k) => &self.pool[k],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn jobs_are_a_pure_function_of_seed_and_index_and_never_repeat() {
        for spec in &WORKLOADS {
            let mut seen = HashSet::new();
            for i in 0..2000 {
                let a = spec.job(7, i);
                assert_eq!(a, spec.job(7, i));
                let topo_ref = format!("{:?}", a.topo);
                assert!(
                    seen.insert(spec.submit_args(&a, &topo_ref)),
                    "{} job {i} repeats",
                    spec.name
                );
            }
            assert_ne!(spec.job(7, 3).search_seed, spec.job(8, 3).search_seed);
        }
    }

    #[test]
    fn paper24_share_and_pool_walk_follow_the_spec() {
        let sweep = find("sweep_sim").unwrap();
        let uses: Vec<TopoUse> = (0..11).map(|i| sweep.job(1, i).topo).collect();
        assert_eq!(uses[0], TopoUse::Paper24);
        assert_eq!(uses[5], TopoUse::Paper24);
        assert_eq!(uses[10], TopoUse::Paper24);
        let pool: Vec<TopoUse> = uses
            .iter()
            .copied()
            .filter(|u| *u != TopoUse::Paper24)
            .collect();
        assert_eq!(pool, (0..8).map(TopoUse::Pool).collect::<Vec<_>>());
        let cold = find("large_cold").unwrap();
        assert_eq!(cold.job(1, 17).topo, TopoUse::Pool(17));
        assert_eq!(cold.job(1, 128).topo, TopoUse::Pool(0));
        assert_eq!(
            cold.warm_set(),
            (128..136).map(TopoUse::Pool).collect::<Vec<_>>()
        );
        assert!(cold
            .warm_args("fp:0")
            .ends_with(" seed=1 strategy=multilevel"));
        assert_eq!(find("paper_warm").unwrap().warm_set().len(), 8);
        assert_eq!(find("large_warm").unwrap().warm_set().len(), 8);
        assert_eq!(sweep.warm_set(), vec![TopoUse::Paper24]);
    }

    #[test]
    fn generation_repeats_for_a_seed_and_differs_across_seeds() {
        let spec = find("paper_warm").unwrap();
        let fps = |seed| -> Vec<u64> {
            spec.generate(seed)
                .pool
                .iter()
                .map(Topology::fingerprint)
                .collect()
        };
        assert_eq!(fps(5), fps(5));
        assert_ne!(fps(5), fps(6));
        assert_eq!(fps(5).iter().collect::<HashSet<_>>().len(), spec.pool);
    }

    #[test]
    fn submit_args_spell_the_protocol() {
        let cold = find("large_cold").unwrap();
        let plan = cold.job(1, 0);
        let args = cold.submit_args(&plan, "fp:00000000000000aa");
        assert!(args.starts_with("SCHEDULE topo=fp:00000000000000aa clusters=8 seed="));
        assert!(args.ends_with(" strategy=multilevel"));
        let sweep = find("sweep_sim").unwrap();
        assert!(sweep
            .submit_args(&sweep.job(1, 0), "paper24")
            .contains(" points=9"));
    }
}
