//! The durable record grammar and its replay accumulator.
//!
//! One grammar serves every part of persistence: the WAL appends these
//! records as state changes happen, a snapshot is nothing but the same
//! records re-emitted from live state (ending with an `end` marker),
//! and each file of the table spill store ([`super::tables`]) holds one
//! `cache` record. Recovery therefore needs exactly one interpreter —
//! [`RecoveredState`] — fed first with the snapshot's records, then
//! with the WAL's, then with the table files.
//!
//! Records are UTF-8 text: a head line of whitespace-separated words,
//! optionally followed by a `\n` and a free-form body (topology text,
//! result lines, a serialized distance table). Job specs are spelled
//! exactly like the wire protocol's `SUBMIT` arguments, so a WAL is
//! readable with `docs/protocol.md` in hand.
//!
//! | record | meaning |
//! |---|---|
//! | `next <id>` | job-id floor (snapshot only) |
//! | `topo` + body | a registered topology, in topology text format |
//! | `accept <id> <spec words>` | job `<id>` acknowledged |
//! | `finish <id> ok` + body | job done; body = result lines |
//! | `finish <id> err` + body | job failed; body = error message |
//! | `cancel <id>` | queued job cancelled |
//! | `fault <old> <new> <index>` | epoch bump `<old>` → `<new>` |
//! | `succ <old> <new>` | a successor edge (snapshot only) |
//! | `epoch <fp> <index>` | an epoch index (snapshot only) |
//! | `cache <fp> <spec> [<tablespec>]` + body | a built table, in distance text format (one per spill file; in a log only when written by an older daemon) |
//! | `end` | snapshot terminator |
//!
//! Replay is idempotent: applying a record twice (snapshot + a WAL that
//! predates the truncation) converges on the same state.

use crate::cache::{RoutingSpec, TableSpec};
use crate::jobs::{JobId, JobState};
use crate::protocol::{
    format_fingerprint, format_job_spec, parse_fingerprint, parse_job_spec, JobSpec,
};
use commsched_distance::{
    table_from_text_with_report, table_to_text_with_report, ApproxReport, DistanceTable,
};
use commsched_topology::Topology;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// `topo` + the topology's text serialization.
pub fn record_topo(topo: &Topology) -> String {
    format!("topo\n{}", commsched_topology::to_text(topo))
}

/// `accept <id> <spec words>`.
pub fn record_accept(id: JobId, spec: &JobSpec) -> String {
    format!("accept {id} {}", format_job_spec(spec))
}

/// `finish <id> ok` + the result lines.
pub fn record_finish_ok(id: JobId, lines: &[String]) -> String {
    let mut out = format!("finish {id} ok");
    for l in lines {
        out.push('\n');
        out.push_str(l);
    }
    out
}

/// `finish <id> err` + the error message.
pub fn record_finish_err(id: JobId, error: &str) -> String {
    format!("finish {id} err\n{error}")
}

/// `cancel <id>`.
pub fn record_cancel(id: JobId) -> String {
    format!("cancel {id}")
}

/// `fault <old> <new> <index>`.
pub fn record_fault(old_fp: u64, new_fp: u64, index: u64) -> String {
    format!(
        "fault {} {} {index}",
        format_fingerprint(old_fp),
        format_fingerprint(new_fp)
    )
}

/// `succ <old> <new>` (snapshot emission of one successor edge).
pub fn record_succ(old_fp: u64, new_fp: u64) -> String {
    format!(
        "succ {} {}",
        format_fingerprint(old_fp),
        format_fingerprint(new_fp)
    )
}

/// `epoch <fp> <index>` (snapshot emission of one epoch index).
pub fn record_epoch(fp: u64, index: u64) -> String {
    format!("epoch {} {index}", format_fingerprint(fp))
}

/// `next <id>` (snapshot emission of the job-id floor).
pub fn record_next(next_id: JobId) -> String {
    format!("next {next_id}")
}

/// `cache <fp> <spec> <tablespec>` + the table's full-precision text
/// serialization (the existing `distance::io` format, which round-trips
/// bit-exactly; approximate tables carry their certified error report
/// in the body's `approx` directive).
pub fn record_cache(
    fp: u64,
    spec: RoutingSpec,
    table_spec: TableSpec,
    table: &DistanceTable,
    report: Option<&ApproxReport>,
) -> String {
    format!(
        "cache {} {spec} {table_spec}\n{}",
        format_fingerprint(fp),
        table_to_text_with_report(table, report)
    )
}

/// One recovered cache entry: the `(fingerprint, routing, table-spec)`
/// key, the table itself, and the approximate build's report when the
/// spec is approximate.
pub type RecoveredTable = (
    (u64, RoutingSpec, TableSpec),
    DistanceTable,
    Option<ApproxReport>,
);

/// One job as reconstructed from the log.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The job's spec, as accepted (fault retargeting happens later,
    /// against the recovered epoch chain).
    pub spec: JobSpec,
    /// Last durably recorded state. Never `Running`: a job with no
    /// `finish`/`cancel` record replays as `Queued` and is requeued.
    pub state: JobState,
    /// Result lines of a `Done` job.
    pub result: Vec<String>,
    /// Error message of a `Failed` job.
    pub error: String,
}

/// The state accumulated by replaying records in order.
#[derive(Default)]
pub struct RecoveredState {
    /// Floor for the next issued job id (max over `next` records and
    /// `id + 1` of every job record seen).
    pub next_id: JobId,
    /// Registered topologies by fingerprint.
    pub topologies: HashMap<u64, Arc<Topology>>,
    /// Fingerprints in first-seen order (deterministic registry rebuild).
    pub topo_order: Vec<u64>,
    /// Jobs by id (ordered, so requeueing preserves submission order).
    pub jobs: BTreeMap<JobId, RecoveredJob>,
    /// Epoch successor edges (stale fingerprint → replacement).
    pub successor: HashMap<u64, u64>,
    /// Epoch index per fingerprint.
    pub index: HashMap<u64, u64>,
    /// Cached tables in recency order (oldest first); later records for
    /// the same key replace earlier ones and move to the back. The
    /// report is present for approximate tables.
    pub tables: Vec<RecoveredTable>,
    /// Whether an `end` marker was seen (snapshot completeness check).
    pub ended: bool,
}

impl RecoveredState {
    fn note_id(&mut self, id: JobId) {
        self.next_id = self.next_id.max(id + 1);
    }

    fn job_mut(&mut self, id: JobId) -> Option<&mut RecoveredJob> {
        self.note_id(id);
        self.jobs.get_mut(&id)
    }

    /// Install one table: the last record for a key wins and defines
    /// recency.
    pub(super) fn push_table(&mut self, entry: RecoveredTable) {
        self.tables.retain(|(k, _, _)| *k != entry.0);
        self.tables.push(entry);
    }

    /// Apply one record payload.
    ///
    /// Replay is idempotent and last-writer-wins per job/table/epoch
    /// entry. `finish`/`cancel` records for an id with no surviving
    /// `accept` are ignored (nothing to resurrect without a spec).
    ///
    /// # Errors
    /// A record that frames correctly but does not parse: unlike a torn
    /// tail, that is corruption the caller should refuse to build state
    /// from.
    pub fn apply(&mut self, payload: &str) -> Result<(), String> {
        let (head, body) = payload.split_once('\n').unwrap_or((payload, ""));
        let words: Vec<&str> = head.split_whitespace().collect();
        let job_id = |s: &str| -> Result<JobId, String> {
            s.parse().map_err(|_| format!("bad job id '{s}'"))
        };
        let fp = |s: &str| -> Result<u64, String> {
            parse_fingerprint(s).ok_or_else(|| format!("bad fingerprint '{s}'"))
        };
        match words.as_slice() {
            ["next", n] => {
                let n: JobId = n.parse().map_err(|_| format!("bad next id '{n}'"))?;
                self.next_id = self.next_id.max(n);
            }
            ["topo"] => {
                let topo = commsched_topology::from_text(body)
                    .map_err(|e| format!("bad topology: {e}"))?;
                let key = topo.fingerprint();
                if !self.topologies.contains_key(&key) {
                    self.topo_order.push(key);
                }
                self.topologies.insert(key, Arc::new(topo));
            }
            ["accept", id, spec @ ..] => {
                let id = job_id(id)?;
                let spec = parse_job_spec(&spec.join(" "))?;
                self.note_id(id);
                self.jobs.entry(id).or_insert(RecoveredJob {
                    spec,
                    state: JobState::Queued,
                    result: Vec::new(),
                    error: String::new(),
                });
            }
            ["finish", id, "ok"] => {
                let id = job_id(id)?;
                if let Some(job) = self.job_mut(id) {
                    job.state = JobState::Done;
                    job.result = body.lines().map(String::from).collect();
                    job.error.clear();
                }
            }
            ["finish", id, "err"] => {
                let id = job_id(id)?;
                if let Some(job) = self.job_mut(id) {
                    job.state = JobState::Failed;
                    job.error = body.to_string();
                    job.result.clear();
                }
            }
            ["cancel", id] => {
                let id = job_id(id)?;
                if let Some(job) = self.job_mut(id) {
                    // Ordered replay: a cancel can only land on a job
                    // that is still queued (finished jobs are immutable,
                    // exactly as in the live core).
                    if job.state == JobState::Queued {
                        job.state = JobState::Cancelled;
                    }
                }
            }
            ["fault", old, new, index] => {
                let old = fp(old)?;
                let new = fp(new)?;
                let index: u64 = index.parse().map_err(|_| format!("bad epoch '{index}'"))?;
                // Same insertion discipline as the live core: unhooking
                // the successor's own edge first keeps chains acyclic
                // when a restore resurrects an old fingerprint.
                self.successor.remove(&new);
                if old != new {
                    self.successor.insert(old, new);
                }
                self.index.insert(new, index);
            }
            ["succ", old, new] => {
                let old = fp(old)?;
                self.successor.insert(old, fp(new)?);
            }
            ["epoch", f, index] => {
                let f = fp(f)?;
                let index: u64 = index.parse().map_err(|_| format!("bad epoch '{index}'"))?;
                self.index.insert(f, index);
            }
            // Two-word spelling = records written before approximate
            // tables existed; those are always exact.
            ["cache", f, spec] | ["cache", f, spec, "exact"] => {
                let key = (fp(f)?, spec.parse()?, TableSpec::Exact);
                let (table, _) =
                    table_from_text_with_report(body).map_err(|e| format!("bad table: {e}"))?;
                self.push_table((key, table, None));
            }
            ["cache", f, spec, tspec] => {
                let tspec: TableSpec = tspec.parse()?;
                let key = (fp(f)?, spec.parse()?, tspec);
                let (table, report) =
                    table_from_text_with_report(body).map_err(|e| format!("bad table: {e}"))?;
                self.push_table((key, table, report));
            }
            ["end"] => self.ended = true,
            _ => return Err(format!("unknown record '{head}'")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{JobKind, TopoRef};
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::UpDownRouting;
    use commsched_search::MapStrategy;
    use commsched_topology::designed;

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            topo: TopoRef::Ring {
                switches: 4,
                hosts: 1,
            },
            routing: RoutingSpec::UpDown { root: 0 },
            strategy: MapStrategy::Flat,
            approx_eps_micros: 0,
            deadline_ms: None,
            mem: 0,
            kind: JobKind::Schedule { clusters: 2, seed },
        }
    }

    #[test]
    fn job_lifecycle_replays() {
        let mut s = RecoveredState::default();
        s.apply(&record_accept(3, &spec(7))).unwrap();
        s.apply(&record_accept(4, &spec(8))).unwrap();
        s.apply(&record_accept(5, &spec(9))).unwrap();
        s.apply(&record_finish_ok(3, &["fg 0.5".into(), "cc 1.0".into()]))
            .unwrap();
        s.apply(&record_finish_err(4, "job-failed: boom")).unwrap();
        s.apply(&record_cancel(5)).unwrap();
        // Idempotent: the same accept again changes nothing.
        s.apply(&record_accept(3, &spec(7))).unwrap();
        assert_eq!(s.next_id, 6);
        assert_eq!(s.jobs[&3].state, JobState::Done);
        assert_eq!(s.jobs[&3].result, vec!["fg 0.5", "cc 1.0"]);
        assert_eq!(s.jobs[&4].state, JobState::Failed);
        assert_eq!(s.jobs[&4].error, "job-failed: boom");
        assert_eq!(s.jobs[&5].state, JobState::Cancelled);
        // A cancel cannot undo a finish.
        s.apply(&record_cancel(3)).unwrap();
        assert_eq!(s.jobs[&3].state, JobState::Done);
        // Orphan finish (accept lost to truncation) is ignored but still
        // advances the id floor, so the id is never reissued.
        s.apply(&record_finish_ok(9, &[])).unwrap();
        assert!(!s.jobs.contains_key(&9));
        assert_eq!(s.next_id, 10);
    }

    #[test]
    fn topology_and_cache_records_round_trip_bit_exactly() {
        let topo = designed::ring(5, 2);
        let fp = topo.fingerprint();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let mut s = RecoveredState::default();
        s.apply(&record_topo(&topo)).unwrap();
        s.apply(&record_cache(
            fp,
            RoutingSpec::UpDown { root: 0 },
            TableSpec::Exact,
            &table,
            None,
        ))
        .unwrap();
        assert_eq!(s.topologies[&fp].fingerprint(), fp);
        assert_eq!(s.topo_order, vec![fp]);
        let ((key, spec_got, tspec_got), got) = {
            let ((k, sp, ts), t, _) = &s.tables[0];
            ((*k, *sp, *ts), t)
        };
        assert_eq!(key, fp);
        assert_eq!(spec_got, RoutingSpec::UpDown { root: 0 });
        assert_eq!(tspec_got, TableSpec::Exact);
        for i in 0..topo.num_switches() {
            for j in 0..topo.num_switches() {
                assert!(
                    got.get(i, j).to_bits() == table.get(i, j).to_bits(),
                    "table not bit-exact at ({i},{j})"
                );
            }
        }
        // A later record for the same key replaces and re-ranks it.
        s.apply(&record_cache(
            fp,
            RoutingSpec::UpDown { root: 0 },
            TableSpec::Exact,
            &table,
            None,
        ))
        .unwrap();
        assert_eq!(s.tables.len(), 1);
    }

    #[test]
    fn cache_records_carry_table_specs() {
        let topo = designed::ring(5, 2);
        let fp = topo.fingerprint();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let report = commsched_distance::ApproxReport {
            eps: 0.05,
            err_max: 0.01,
            pairs_approximated: 6,
            pairs_escalated: 4,
        };
        let mut s = RecoveredState::default();
        // An approximate entry and an exact entry for the same
        // fingerprint+routing are distinct keys.
        s.apply(&record_cache(
            fp,
            RoutingSpec::UpDown { root: 0 },
            TableSpec::Approx { eps_micros: 50_000 },
            &table,
            Some(&report),
        ))
        .unwrap();
        s.apply(&record_cache(
            fp,
            RoutingSpec::UpDown { root: 0 },
            TableSpec::Exact,
            &table,
            None,
        ))
        .unwrap();
        assert_eq!(s.tables.len(), 2);
        let (key, _, rep) = &s.tables[0];
        assert_eq!(key.2, TableSpec::Approx { eps_micros: 50_000 });
        assert_eq!(*rep, Some(report));
        assert_eq!(s.tables[1].2, None);
        // Legacy two-word records (written before table specs existed)
        // replay as exact entries.
        let legacy = format!(
            "cache {} updown:0\n{}",
            crate::protocol::format_fingerprint(fp),
            commsched_distance::table_to_text(&table)
        );
        s.apply(&legacy).unwrap();
        assert_eq!(s.tables.len(), 2, "legacy record replaced the exact key");
        assert!(s
            .apply("cache 0000000000000001 updown:0 fuzzy\nn 1")
            .is_err());
    }

    #[test]
    fn fault_records_rebuild_epoch_chains() {
        let mut s = RecoveredState::default();
        s.apply(&record_fault(10, 20, 1)).unwrap();
        s.apply(&record_fault(20, 30, 2)).unwrap();
        assert_eq!(s.successor[&10], 20);
        assert_eq!(s.successor[&20], 30);
        assert_eq!(s.index[&30], 2);
        // Restore back to 10: its own outgoing edge is unhooked first,
        // so the chain stays acyclic.
        s.apply(&record_fault(30, 10, 3)).unwrap();
        assert!(!s.successor.contains_key(&10));
        assert_eq!(s.successor[&30], 10);
        // Snapshot spellings.
        s.apply(&record_succ(7, 8)).unwrap();
        s.apply(&record_epoch(8, 4)).unwrap();
        assert_eq!(s.successor[&7], 8);
        assert_eq!(s.index[&8], 4);
    }

    #[test]
    fn malformed_records_are_errors() {
        let mut s = RecoveredState::default();
        assert!(s.apply("frobnicate 1").is_err());
        assert!(s.apply("accept notanid SCHEDULE topo=paper24").is_err());
        assert!(s.apply("accept 1 DANCE topo=paper24").is_err());
        assert!(s.apply("fault 123 456 1").is_err()); // short fingerprints
        assert!(s.apply("cache 0000000000000001 left\nn 1").is_err());
        assert!(s.apply("topo\nnot a topology").is_err());
        // `end` flips the completeness flag.
        assert!(!s.ended);
        s.apply("end").unwrap();
        assert!(s.ended);
    }
}
