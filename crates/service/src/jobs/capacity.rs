//! The capacity ledger: per-switch memory commitments of capacitated
//! topologies, claimed at admission and released when a job leaves.

use super::{JobId, ServiceCore, SubmitError};
use crate::protocol::{format_fingerprint, JobSpec};
use std::collections::HashMap;

/// One admitted job's hold on switch memory: which switch of which
/// topology it was placed on and how many bytes it charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct CapacityClaim {
    fp: u64,
    switch: usize,
    bytes: u64,
}

/// Per-switch memory commitments of every capacitated topology, keyed
/// by fingerprint. Admission places a job's whole demand on the
/// least-committed switch that fits (ties broken by lowest index —
/// deterministic, so recovery replays the same placement from the same
/// admitted set). The ledger is rebuilt from the WAL's unfinished jobs
/// on recovery rather than persisted separately.
#[derive(Default)]
pub(super) struct CapacityLedger {
    /// fingerprint -> committed bytes per switch.
    committed: HashMap<u64, Vec<u64>>,
    /// job -> its claim, for release on finish/cancel.
    claims: HashMap<JobId, CapacityClaim>,
}

impl CapacityLedger {
    /// Place `bytes` on the best fitting switch of `caps` or explain
    /// why no switch fits.
    fn claim(&mut self, fp: u64, caps: &[u64], bytes: u64) -> Result<CapacityClaim, String> {
        let committed = self
            .committed
            .entry(fp)
            .or_insert_with(|| vec![0; caps.len()]);
        let mut best: Option<usize> = None;
        for (s, (&cap, &used)) in caps.iter().zip(committed.iter()).enumerate() {
            if cap.saturating_sub(used) >= bytes && best.is_none_or(|b| used < committed[b]) {
                best = Some(s);
            }
        }
        match best {
            Some(s) => {
                committed[s] += bytes;
                Ok(CapacityClaim {
                    fp,
                    switch: s,
                    bytes,
                })
            }
            None => Err(format!(
                "no switch fits {bytes} bytes on topology {} ({} switches)",
                format_fingerprint(fp),
                caps.len()
            )),
        }
    }

    /// Record which job owns a claim taken before its id existed.
    fn bind(&mut self, id: JobId, claim: CapacityClaim) {
        self.claims.insert(id, claim);
    }

    /// Return a claim's bytes without a bound job (admission failed
    /// after the claim was taken).
    fn unclaim(&mut self, claim: CapacityClaim) {
        if let Some(committed) = self.committed.get_mut(&claim.fp) {
            committed[claim.switch] = committed[claim.switch].saturating_sub(claim.bytes);
        }
    }

    /// Release the claim a finished/cancelled job held, if any.
    fn release(&mut self, id: JobId) {
        if let Some(claim) = self.claims.remove(&id) {
            self.unclaim(claim);
        }
    }
}

impl ServiceCore {
    /// Capacity admission for one spec, before any id is reserved.
    /// `mem=0` jobs, jobs on uncapacitated topologies, and jobs whose
    /// topology cannot be resolved (they will fail at execution with
    /// the real error) are exempt and return `Ok(None)`. Otherwise the
    /// demand is placed on the least-committed fitting switch and held
    /// until [`Self::bind_claim`] or [`Self::unclaim`].
    ///
    /// Called without any lock held: resolving the topology may
    /// register a builtin (registry + WAL locks), and the ledger lock
    /// is a leaf taken afterwards.
    pub(super) fn claim_capacity(
        &self,
        spec: &JobSpec,
    ) -> Result<Option<CapacityClaim>, SubmitError> {
        if spec.mem == 0 {
            return Ok(None);
        }
        let Ok(topo) = self.resolve_topology(spec.topo) else {
            return Ok(None);
        };
        let Some(caps) = topo.mem_capacities() else {
            return Ok(None);
        };
        let fp = topo.fingerprint();
        let mut ledger = self.capacity.lock().expect("capacity lock");
        match ledger.claim(fp, caps, spec.mem) {
            Ok(claim) => Ok(Some(claim)),
            Err(e) => {
                self.stats.note_rejected();
                Err(SubmitError::Capacity(e))
            }
        }
    }

    /// Attach an admission-time claim to the job id it ended up with.
    pub(super) fn bind_claim(&self, id: JobId, claim: Option<CapacityClaim>) {
        if let Some(claim) = claim {
            self.capacity.lock().expect("capacity lock").bind(id, claim);
        }
    }

    /// Give back a claim whose submission failed after admission.
    pub(super) fn unclaim(&self, claim: Option<CapacityClaim>) {
        if let Some(claim) = claim {
            self.capacity.lock().expect("capacity lock").unclaim(claim);
        }
    }

    /// Release the capacity a finished/cancelled job held.
    pub(super) fn release_capacity(&self, id: JobId) {
        self.capacity.lock().expect("capacity lock").release(id);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{capped_spec, small_core, tiny_spec};
    use super::*;
    use crate::jobs::JobState;
    use commsched_topology::TopologyBuilder;
    use std::sync::Arc;

    #[test]
    fn capacity_admission_never_over_commits() {
        let core = small_core(16);
        let topo = TopologyBuilder::new(2, 1)
            .link(0, 1)
            .uniform_mem_capacity(100)
            .build()
            .unwrap();
        let (fp, _) = core.register_topology(topo);
        // Two 60-byte jobs spread across the two switches; a third fits
        // nowhere (40 bytes free on each switch).
        let a = core.submit(capped_spec(fp, 60)).unwrap();
        let _b = core.submit(capped_spec(fp, 60)).unwrap();
        let err = core.submit(capped_spec(fp, 60)).unwrap_err();
        assert!(matches!(err, SubmitError::Capacity(_)), "got {err:?}");
        assert!(err.to_string().starts_with("capacity: "));
        // Demand larger than any single switch is rejected outright.
        let err = core.submit(capped_spec(fp, 101)).unwrap_err();
        assert!(matches!(err, SubmitError::Capacity(_)));
        // mem=0 jobs and uncapacitated topologies are exempt.
        core.submit(capped_spec(fp, 0)).unwrap();
        core.submit(tiny_spec(1)).unwrap();
        // Cancelling an admitted job frees its switch for the next one.
        core.cancel(a).unwrap();
        core.submit(capped_spec(fp, 60)).unwrap();
    }

    #[test]
    fn capacity_batch_rejects_only_the_overflow() {
        let core = small_core(16);
        let topo = TopologyBuilder::new(2, 1)
            .link(0, 1)
            .uniform_mem_capacity(100)
            .build()
            .unwrap();
        let (fp, _) = core.register_topology(topo);
        let out = core.submit_batch(&[
            capped_spec(fp, 90),
            capped_spec(fp, 90),
            capped_spec(fp, 90),
            capped_spec(fp, 0),
        ]);
        assert!(out[0].is_ok());
        assert!(out[1].is_ok());
        assert!(matches!(out[2], Err(SubmitError::Capacity(_))));
        assert!(out[3].is_ok(), "exempt spec must ride through: {out:?}");
    }

    #[test]
    fn capacity_released_when_jobs_finish() {
        let core = small_core(16);
        let topo = TopologyBuilder::new(1, 1)
            .uniform_mem_capacity(100)
            .build()
            .unwrap();
        let (fp, _) = core.register_topology(topo);
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        let id = core.submit(capped_spec(fp, 80)).unwrap();
        while core.status(id) != Some(JobState::Done) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // The finished job's 80 bytes are free again.
        let id2 = core.submit(capped_spec(fp, 80)).unwrap();
        while core.status(id2) != Some(JobState::Done) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        core.drain();
        worker.join().unwrap();
    }
}
