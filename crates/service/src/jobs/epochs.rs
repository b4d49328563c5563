//! Topology epochs: resolving a job's topology reference, registering
//! topologies durably, and applying `FAULT` events that supersede one
//! fingerprint with its successor.

use super::ServiceCore;
use crate::persist::state as pstate;
use crate::protocol::{format_fingerprint, TopoRef};
use commsched_telemetry as telemetry;
use commsched_topology::{FaultEvent, Topology, TopologyEpoch};
use std::collections::HashMap;
use std::sync::Arc;

/// Epoch bookkeeping for dynamically reconfigured topologies.
///
/// `successor` maps a superseded fingerprint to the fingerprint that
/// replaced it when a `FAULT` was applied; `index` records how many
/// faults deep each fingerprint sits (0 for freshly registered ones).
/// The insertion discipline in [`ServiceCore::fault`] — the new
/// fingerprint's own successor entry is removed before the old one is
/// linked to it — keeps the successor graph acyclic even when a
/// `restore` brings back a fingerprint that was superseded earlier.
#[derive(Default)]
pub(super) struct EpochState {
    pub(super) successor: HashMap<u64, u64>,
    pub(super) index: HashMap<u64, u64>,
}

impl ServiceCore {
    /// The fingerprint currently at the end of `fp`'s epoch chain (`fp`
    /// itself when it was never superseded by a fault).
    pub fn current_epoch_of(&self, fp: u64) -> u64 {
        let epochs = self.epochs.lock().expect("epoch lock");
        let mut cur = fp;
        while let Some(&next) = epochs.successor.get(&cur) {
            cur = next;
        }
        cur
    }

    /// Resolve a [`TopoRef`] to a registered topology. Builtin specs are
    /// registered on first use so later jobs (and `fp:` references) share
    /// one copy. A fingerprint that a `FAULT` has superseded fails with a
    /// typed `stale-epoch` error naming the current fingerprint, so
    /// clients can resubmit against the live network.
    pub(super) fn resolve_topology(&self, topo: TopoRef) -> Result<Arc<Topology>, String> {
        let fp = match topo {
            TopoRef::Registered(fp) => fp,
            builtin => self.register_logged(Arc::new(builtin.build()?)).0,
        };
        // A builtin spelling names the epoch-0 network; once a fault has
        // superseded it, jobs and further faults through that spelling get
        // the same typed failure as a stale fingerprint reference.
        let current = self.current_epoch_of(fp);
        if current != fp {
            return Err(format!(
                "stale-epoch: {} superseded by {}",
                format_fingerprint(fp),
                format_fingerprint(current)
            ));
        }
        self.registry
            .get(fp)
            .ok_or_else(|| format!("unknown-topology {fp:016x}"))
    }

    /// Register a topology uploaded through the wire (`ADDTOPO`),
    /// durably logging it when it is new. Returns the fingerprint and
    /// whether it was freshly registered.
    pub fn register_topology(&self, topo: Topology) -> (u64, bool) {
        let (fp, fresh) = self.register_logged(Arc::new(topo));
        if fresh {
            self.repl_barrier();
        }
        (fp, fresh)
    }

    /// Register `topo` and, when it is new, log its `topo` record in
    /// the same WAL critical section, so a concurrent snapshot carries
    /// both or neither. Logging is best-effort, as for every record
    /// outside admission. A known fingerprint — every builtin-spelled
    /// job after the first — returns without the WAL lock: entries
    /// never leave the registry.
    fn register_logged(&self, topo: Arc<Topology>) -> (u64, bool) {
        let fp = topo.fingerprint();
        if self.registry.get(fp).is_some() {
            return (fp, false);
        }
        self.logged(|log| {
            let (fp, fresh) = self.registry.register_arc(Arc::clone(&topo));
            if fresh {
                let _ = log.append(&[pstate::record_topo(&topo)]);
            }
            (fp, fresh)
        })
    }

    /// Apply one fault event to a topology: bump its epoch, register the
    /// successor network, mark the old fingerprint stale, invalidate its
    /// cache entries (repair-refreshing each under the new fingerprint),
    /// and retarget still-queued jobs at the successor. Returns the
    /// report lines of the `FAULT` response.
    ///
    /// # Errors
    /// `stale-epoch`/`unknown-topology` from resolution, or
    /// `fault-rejected: ...` when the event does not apply (missing
    /// link, out-of-range switch, ...).
    pub fn fault(&self, topo: TopoRef, event: &FaultEvent) -> Result<Vec<String>, String> {
        let old = self.resolve_topology(topo)?;
        let old_fp = old.fingerprint();
        let mut epoch = TopologyEpoch::initial(Arc::clone(&old));
        epoch.index = {
            let epochs = self.epochs.lock().expect("epoch lock");
            epochs.index.get(&old_fp).copied().unwrap_or(0)
        };
        let next = epoch
            .apply(event)
            .map_err(|e| format!("fault-rejected: {e}"))?;
        telemetry::global()
            .counter(
                "dynamics_faults_injected_total",
                "Fault events applied to a topology epoch",
            )
            .inc();
        // Durability before repairs start: a crash mid-repair must still
        // recover the successor network and the epoch bump, so replayed
        // jobs retarget correctly (the repaired tables just rebuild).
        self.logged(|log| {
            let (_, fresh) = self.registry.register_arc(Arc::clone(&next.topology));
            let mut epochs = self.epochs.lock().expect("epoch lock");
            // Unhooking the successor's own outgoing edge first keeps the
            // chain acyclic when a restore resurrects an old fingerprint.
            epochs.successor.remove(&next.fingerprint);
            if next.fingerprint != old_fp {
                epochs.successor.insert(old_fp, next.fingerprint);
            }
            epochs.index.insert(next.fingerprint, next.index);
            drop(epochs);
            let mut records = Vec::new();
            if fresh {
                records.push(pstate::record_topo(&next.topology));
            }
            records.push(pstate::record_fault(old_fp, next.fingerprint, next.index));
            let _ = log.append(&records);
        });
        let removed = self.cache.invalidate_topology(old_fp);
        let mut repair_lines = Vec::new();
        let mut refreshed = 0usize;
        for (spec, _, stale) in &removed {
            match self.refresh_entry(&old, &next, *spec, stale) {
                Ok(Some(report)) => {
                    refreshed += 1;
                    repair_lines.push(format!("repair {spec} {report}"));
                }
                Ok(None) => {
                    // A concurrent builder made the entry (and spilled it).
                    refreshed += 1;
                    repair_lines.push(format!("repair {spec} shared"));
                }
                Err(e) => repair_lines.push(format!("repair {spec} skipped: {e}")),
            }
        }
        // The repaired tables get their files; the stale fingerprint's go.
        self.spill_tables();
        // Still-queued jobs naming the stale fingerprint follow it to the
        // successor; running jobs keep their (already resolved) tables.
        let requeued = {
            let mut state = self.state.lock().expect("queue lock");
            let pending: Vec<super::JobId> = state.pending.iter().copied().collect();
            let mut moved = 0usize;
            for id in pending {
                let rec = state.jobs.get_mut(&id).expect("pending job exists");
                if rec.spec.topo == TopoRef::Registered(old_fp) {
                    rec.spec.topo = TopoRef::Registered(next.fingerprint);
                    moved += 1;
                }
            }
            moved
        };
        let mut lines = vec![
            format!("event {event}"),
            format!("epoch {}", next.index),
            format!("topology {}", format_fingerprint(next.fingerprint)),
            format!("previous {}", format_fingerprint(old_fp)),
            format!("connected {}", next.connected),
            format!("components {}", next.components),
            format!("invalidated {}", removed.len()),
            format!("refreshed {refreshed}"),
            format!("requeued {requeued}"),
        ];
        lines.extend(repair_lines);
        // The fault (and successor-topology) records ride to the
        // followers before the epoch bump is acknowledged.
        self.repl_barrier();
        self.maybe_snapshot();
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::small_core;
    use super::*;
    use crate::cache::RoutingSpec;
    use crate::jobs::JobState;
    use crate::protocol::{JobKind, JobSpec};
    use commsched_search::MapStrategy;
    use commsched_topology::designed;

    #[test]
    fn builtin_spellings_resolve_to_the_network_the_shared_builder_makes() {
        // Guards the call site: the daemon registers exactly what
        // `TopoRef::build` (also under the CLI's local runs) constructs.
        let core = small_core(4);
        for topo in [
            TopoRef::Ring {
                switches: 6,
                hosts: 2,
            },
            TopoRef::Random {
                switches: 16,
                degree: 3,
                hosts: 4,
                seed: 2000,
            },
        ] {
            let resolved = core.resolve_topology(topo).unwrap();
            assert_eq!(resolved.fingerprint(), topo.build().unwrap().fingerprint());
        }
        assert!(TopoRef::Registered(7).build().is_err());
    }

    #[test]
    fn fault_bumps_epoch_invalidates_cache_and_requeues() {
        let core = small_core(8);
        // Register paper24 and warm the cache for it by running one job.
        let first = core
            .submit(JobSpec {
                topo: TopoRef::Paper24,
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 1,
                },
            })
            .unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        while core.status(first) != Some(JobState::Done) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let old_fp = {
            let lines = core.result_lines(first).unwrap();
            let line = lines
                .iter()
                .find_map(|l| l.strip_prefix("topology "))
                .expect("topology line");
            crate::protocol::parse_fingerprint(line).unwrap()
        };
        // A queued job against the current fingerprint, left unexecuted
        // by keeping it behind nothing (the worker is idle, so submit it
        // and apply the fault before it can resolve — retry until the
        // fault observes it still queued).
        let entries_before = core.cache.len();
        assert_eq!(entries_before, 1);
        let lines = core
            .fault(
                TopoRef::Registered(old_fp),
                &FaultEvent::LinkDown { a: 0, b: 1 },
            )
            .unwrap();
        let get = |key: &str| -> String {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(&format!("{key} ")))
                .unwrap_or_else(|| panic!("missing {key} in {lines:?}"))
                .to_string()
        };
        assert_eq!(get("event"), "link-down 0:1");
        assert_eq!(get("epoch"), "1");
        assert_eq!(get("previous"), format_fingerprint(old_fp));
        assert_eq!(get("connected"), "true");
        assert_eq!(get("invalidated"), "1");
        assert_eq!(get("refreshed"), "1");
        let new_fp = crate::protocol::parse_fingerprint(&get("topology")).unwrap();
        assert_ne!(new_fp, old_fp);
        // The repaired entry replaced the stale one under the new key.
        assert_eq!(core.cache.len(), 1);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("repair updown:0 pairs ")));
        // The old fingerprint is now a typed stale-epoch failure...
        let stale = core
            .resolve_topology(TopoRef::Registered(old_fp))
            .unwrap_err();
        assert!(stale.starts_with("stale-epoch:"), "got: {stale}");
        assert!(stale.contains(&format_fingerprint(new_fp)), "got: {stale}");
        // ...and the successor resolves (chains collapse to the tip).
        assert_eq!(core.current_epoch_of(old_fp), new_fp);
        core.resolve_topology(TopoRef::Registered(new_fp)).unwrap();
        // A job against the new fingerprint completes on the repaired
        // table without a rebuild: the refresh already paid the miss.
        let misses_before = core.cache.misses();
        let follow = core
            .submit(JobSpec {
                topo: TopoRef::Registered(new_fp),
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 2,
                },
            })
            .unwrap();
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(follow), Some(JobState::Done));
        assert_eq!(core.cache.misses(), misses_before);
    }

    #[test]
    fn fault_requeues_queued_jobs_onto_the_successor() {
        let core = small_core(8);
        let (fp, _) = core.registry.register(designed::paper_24_switch());
        // No worker is running: the job stays queued across the fault.
        let queued = core
            .submit(JobSpec {
                topo: TopoRef::Registered(fp),
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 3,
                },
            })
            .unwrap();
        let lines = core
            .fault(
                TopoRef::Registered(fp),
                &FaultEvent::LinkDown { a: 0, b: 1 },
            )
            .unwrap();
        assert!(lines.iter().any(|l| l == "requeued 1"), "lines: {lines:?}");
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        // The retargeted job ran against the successor epoch.
        assert_eq!(core.status(queued), Some(JobState::Done));
        let new_fp = core.current_epoch_of(fp);
        let lines = core.result_lines(queued).unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l == &format!("topology {}", format_fingerprint(new_fp))),
            "lines: {lines:?}"
        );
    }

    #[test]
    fn fault_on_unknown_or_invalid_input_is_rejected() {
        let core = small_core(4);
        let err = core
            .fault(
                TopoRef::Registered(0xbad),
                &FaultEvent::LinkDown { a: 0, b: 1 },
            )
            .unwrap_err();
        assert!(err.contains("unknown-topology"), "got: {err}");
        let err = core
            .fault(TopoRef::Paper24, &FaultEvent::LinkDown { a: 0, b: 99 })
            .unwrap_err();
        assert!(err.starts_with("fault-rejected:"), "got: {err}");
        // A rejected event changes nothing: the topology stays current.
        let fp = core.registry.register(designed::paper_24_switch()).0;
        assert_eq!(core.current_epoch_of(fp), fp);
    }

    #[test]
    fn restore_walks_the_epoch_chain_back_without_cycles() {
        let core = small_core(4);
        let (fp0, _) = core.registry.register(designed::paper_24_switch());
        core.fault(
            TopoRef::Registered(fp0),
            &FaultEvent::LinkDown { a: 0, b: 1 },
        )
        .unwrap();
        let fp1 = core.current_epoch_of(fp0);
        assert_ne!(fp1, fp0);
        // Restoring the wire brings back the original fingerprint as the
        // current epoch; resolving either fingerprint must terminate.
        core.fault(
            TopoRef::Registered(fp1),
            &FaultEvent::LinkUp {
                a: 0,
                b: 1,
                slowdown: 1,
            },
        )
        .unwrap();
        assert_eq!(core.current_epoch_of(fp1), fp0);
        assert_eq!(core.current_epoch_of(fp0), fp0);
        core.resolve_topology(TopoRef::Registered(fp0)).unwrap();
        assert!(core
            .resolve_topology(TopoRef::Registered(fp1))
            .unwrap_err()
            .starts_with("stale-epoch:"));
    }
}
