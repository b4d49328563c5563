//! The durable record grammar and its replay accumulator.
//!
//! One grammar serves the log and the snapshot: the WAL appends these
//! records as state changes happen, and a snapshot is nothing but the
//! same records re-emitted from live state (ending with an `end`
//! marker). Recovery therefore needs exactly one interpreter for them —
//! [`RecoveredState`] — fed first with the snapshot's records, then
//! with the WAL's. Cached distance tables are derived state and live
//! outside both, one `cache` record per file of the table spill store
//! ([`super::tables`], which reads them itself).
//!
//! Log and snapshot records are UTF-8 text: a head line of
//! whitespace-separated words, optionally followed by a `\n` and a
//! free-form body (topology text, result lines). Job specs are spelled
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
//! | `cache <fp> <spec> <tablespec>` + body | a built table, in distance binary format: the one record of a spill file, never logged. (A text-bodied `cache` record in the log or snapshot of a daemon from before the spill store is skipped; its table rebuilds on first use.) |
//! | `end` | snapshot terminator |
//!
//! Replay is idempotent: applying a record twice (snapshot + a WAL that
//! predates the truncation) converges on the same state.

use crate::cache::{RoutingSpec, TableSpec};
use crate::jobs::{JobId, JobState};
use crate::protocol::{
    format_fingerprint, format_job_spec, parse_fingerprint, parse_job_spec, JobSpec,
};
use commsched_distance::{table_to_bytes, ApproxReport, DistanceTable};
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

/// The one record of a table spill file: the head line `cache <fp>
/// <spec> <tablespec>\n`, which is UTF-8, then the table in the binary
/// format of `commsched_distance::io`, which is not.
pub struct CacheRecord(Vec<u8>);

impl CacheRecord {
    /// The record's bytes, ready to be framed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// `cache <fp> <spec> <tablespec>` + the table's bits (the upper
/// triangle as `f64::to_bits`, so what a restart restores is what was
/// built, with no float formatting or parsing on either side).
/// `_report` has no values: every table is exact.
pub fn record_cache(
    fp: u64,
    spec: RoutingSpec,
    table_spec: TableSpec,
    table: &DistanceTable,
    _report: Option<&ApproxReport>,
) -> CacheRecord {
    let mut out = format!("cache {} {spec} {table_spec}\n", format_fingerprint(fp)).into_bytes();
    out.extend_from_slice(&table_to_bytes(table));
    CacheRecord(out)
}

/// One recovered cache entry: the `(fingerprint, routing, table-spec)`
/// key and the table itself.
pub type RecoveredTable = ((u64, RoutingSpec, TableSpec), DistanceTable);

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
    /// Cached tables in recency order (oldest first), as the spill
    /// store read them (`TableStore::load_into`; no record of the log
    /// or the snapshot adds one).
    pub tables: Vec<RecoveredTable>,
    /// `cache` records met in the log or the snapshot and skipped: an
    /// older daemon's in-log tables, which rebuild on first use.
    pub skipped_cache_records: u64,
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

    /// Apply one record payload.
    ///
    /// Replay is idempotent and last-writer-wins per job/epoch entry.
    /// `finish`/`cancel` records for an id with no surviving `accept`
    /// are ignored (nothing to resurrect without a spec).
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
            // Derived state an older daemon logged: counted, not read —
            // an old state directory must still start.
            ["cache", ..] => self.skipped_cache_records += 1,
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
    fn topology_records_round_trip() {
        let topo = designed::ring(5, 2);
        let fp = topo.fingerprint();
        let mut s = RecoveredState::default();
        s.apply(&record_topo(&topo)).unwrap();
        s.apply(&record_topo(&topo)).unwrap();
        assert_eq!(s.topologies[&fp].fingerprint(), fp);
        assert_eq!(s.topo_order, vec![fp]);
    }

    #[test]
    fn in_log_cache_records_are_skipped_and_counted() {
        let mut s = RecoveredState::default();
        // Whatever an older daemon logged under `cache` — the two-word
        // spelling, a table spec, a body that no longer parses — is
        // derived state: never an error, never a table.
        s.apply("cache 0000000000000001 updown:0\nn 1\nrow 0\n")
            .unwrap();
        s.apply("cache 0000000000000001 updown:0 approx:50000\nn 1\nrow 0\n")
            .unwrap();
        s.apply("cache 0000000000000001 left fuzzy\nnot a table")
            .unwrap();
        assert_eq!(s.skipped_cache_records, 3);
        assert!(s.tables.is_empty());
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
        assert!(s.apply("topo\nnot a topology").is_err());
        // `end` flips the completeness flag.
        assert!(!s.ended);
        s.apply("end").unwrap();
        assert!(s.ended);
    }
}
