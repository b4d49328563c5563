//! Follower-side replication: stream the primary's WAL records into a
//! local state directory, ack what is durable, and report when the
//! primary is gone so the node can promote.
//!
//! The follower is deliberately *not* a running service core: it is a
//! disk pipe. Records arrive in the primary's commit order (the hub
//! taps the WAL under its lock), are appended verbatim to the local
//! WAL — fsynced before acking in `sync` mode, so the primary's
//! acked-means-replicated guarantee rests on real durability — and
//! only at promotion does [`commsched_service::ServiceCore::recover`]
//! replay them into a live core, reusing the exact crash-recovery path
//! the service already trusts.
//!
//! Stream identity: the primary's hub nonce, persisted in
//! `repl.nonce`. A different nonce on reconnect means the primary (or
//! a new primary) re-seeded its log from a compacted snapshot, so
//! local record positions are meaningless — the follower wipes its
//! state directory's WAL and snapshot and resyncs from record 0.

use crate::hub::ReplMode;
use commsched_service::persist::wal::fnv1a;
use commsched_service::persist::{PersistOptions, Persistence, SNAPSHOT_FILE};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Name of the stream-identity file inside the follower's state dir.
pub const NONCE_FILE: &str = "repl.nonce";

/// Why [`run_follower`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowExit {
    /// Consecutive reconnect attempts exhausted: the primary is dead
    /// (or unreachable, which a static-membership cluster must treat
    /// the same way). Time to promote.
    PrimaryDead,
    /// The caller raised the stop flag.
    Stopped,
}

/// Follower knobs.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The primary's replication listener (`host:port`).
    pub primary: String,
    /// Local state directory the stream is persisted into.
    pub state_dir: PathBuf,
    /// Replication strictness — `sync` fsyncs every batch before
    /// acking it.
    pub mode: ReplMode,
    /// Consecutive failed connect attempts before declaring the
    /// primary dead.
    pub max_reconnects: u32,
    /// Pause between reconnect attempts.
    pub reconnect_delay: Duration,
}

impl FollowerConfig {
    /// Defaults: sync mode, 5 reconnects 200ms apart (a ~1s detection
    /// window on top of TCP's own failure latency).
    pub fn new(primary: impl Into<String>, state_dir: impl Into<PathBuf>) -> Self {
        Self {
            primary: primary.into(),
            state_dir: state_dir.into(),
            mode: ReplMode::Sync,
            max_reconnects: 5,
            reconnect_delay: Duration::from_millis(200),
        }
    }
}

/// Shared progress counters, readable while [`run_follower`] runs.
#[derive(Debug, Default)]
pub struct FollowerProgress {
    /// Records applied to the local WAL over this follower's lifetime.
    pub applied: AtomicU64,
    /// Successful (re)connections to the primary.
    pub connects: AtomicU64,
}

/// Read the stored stream nonce (0 = never synced).
fn load_nonce(state_dir: &Path) -> u64 {
    std::fs::read_to_string(state_dir.join(NONCE_FILE))
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
        .unwrap_or(0)
}

/// Persist the stream nonce (fsynced — it gates whether the whole
/// local WAL is trusted on restart).
fn store_nonce(state_dir: &Path, nonce: u64) -> std::io::Result<()> {
    let path = state_dir.join(NONCE_FILE);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(format!("{nonce:016x}\n").as_bytes())?;
    f.sync_all()
}

/// Incremental WAL-frame parser over a growing byte buffer. Returns
/// the parsed payloads and consumes their bytes; a checksum mismatch
/// is a stream error (TCP should never deliver one).
fn take_frames(buf: &mut Vec<u8>) -> Result<Vec<Vec<u8>>, String> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &buf[offset..];
        if rest.len() < 12 {
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        if len > (1 << 30) {
            return Err(format!("replication frame claims {len} bytes"));
        }
        let checksum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        if rest.len() < 12 + len {
            break;
        }
        let payload = &rest[12..12 + len];
        if fnv1a(payload) != checksum {
            return Err("replication frame checksum mismatch".into());
        }
        out.push(payload.to_vec());
        offset += 12 + len;
    }
    buf.drain(..offset);
    Ok(out)
}

/// Stream the primary's records into `config.state_dir` until the
/// primary dies or `stop` is raised. Progress is visible through
/// `progress` (pass a fresh [`FollowerProgress`]).
///
/// # Errors
/// Local filesystem failures (the one thing a follower cannot retry
/// around).
pub fn run_follower(
    config: &FollowerConfig,
    stop: &AtomicBool,
    progress: &Arc<FollowerProgress>,
) -> Result<FollowExit, String> {
    std::fs::create_dir_all(&config.state_dir)
        .map_err(|e| format!("state dir {}: {e}", config.state_dir.display()))?;
    let mut failures = 0u32;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(FollowExit::Stopped);
        }
        match follow_once(config, stop, progress) {
            Ok(FollowExit::Stopped) => return Ok(FollowExit::Stopped),
            Ok(FollowExit::PrimaryDead) | Err(_) => {
                failures += 1;
                if failures >= config.max_reconnects {
                    return Ok(FollowExit::PrimaryDead);
                }
                std::thread::sleep(config.reconnect_delay);
            }
        }
    }
}

/// One connect-handshake-stream session. `Ok(PrimaryDead)` covers
/// refused connects and mid-stream EOF alike — the caller counts
/// consecutive failures.
fn follow_once(
    config: &FollowerConfig,
    stop: &AtomicBool,
    progress: &Arc<FollowerProgress>,
) -> Result<FollowExit, String> {
    let Ok(mut stream) = TcpStream::connect(&config.primary) else {
        return Ok(FollowExit::PrimaryDead);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));

    // The local record count IS our stream position: the WAL holds the
    // stream verbatim, so replaying it (cheap: text records) recounts
    // exactly what we have. Done per-connect to survive process
    // restarts without a separate (and desyncable) counter file.
    let persist = Persistence::open(PersistOptions::new(&config.state_dir))
        .map_err(|e| format!("open follower state: {e}"))?;
    let mut have = persist
        .replay_wal()
        .map_err(|e| format!("replay follower wal: {e}"))?
        .records
        .len();
    let stored_nonce = load_nonce(&config.state_dir);

    let hello = format!("REPL FOLLOW {stored_nonce:016x} {have}\n");
    if stream.write_all(hello.as_bytes()).is_err() {
        return Ok(FollowExit::PrimaryDead);
    }
    let Some((nonce, start)) = read_greeting(&mut stream, stop) else {
        return Ok(FollowExit::PrimaryDead);
    };
    if nonce != stored_nonce {
        // New stream incarnation: our WAL positions mean nothing. Table
        // spill files (a state directory that once served) can stay:
        // they are named by content, and recovery at promotion drops
        // those the new history does not register.
        persist
            .with_wal(|wal| wal.truncate())
            .map_err(|e| format!("truncate follower wal: {e}"))?;
        let _ = std::fs::remove_file(config.state_dir.join(SNAPSHOT_FILE));
        store_nonce(&config.state_dir, nonce).map_err(|e| format!("store nonce: {e}"))?;
        have = 0;
    }
    if start != have {
        // The primary will stream from a position we cannot splice
        // (should be impossible given the handshake); resync cleanly.
        return Ok(FollowExit::PrimaryDead);
    }
    progress.connects.fetch_add(1, Ordering::Relaxed);

    let sync = config.mode == ReplMode::Sync;
    let mut applied = have as u64;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(FollowExit::Stopped);
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(FollowExit::PrimaryDead),
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(FollowExit::PrimaryDead),
        };
        buf.extend_from_slice(&chunk[..n]);
        let records = take_frames(&mut buf)?;
        if records.is_empty() {
            continue;
        }
        // One append_all per network batch: one write(2) and (in sync
        // mode) one fsync cover however many records arrived together,
        // which is what keeps sync replication from being fsync-bound
        // per record.
        persist
            .with_wal(|wal| wal.append_all(records.iter().map(Vec::as_slice), sync))
            .map_err(|e| format!("append follower wal: {e}"))?;
        applied += records.len() as u64;
        progress.applied.store(applied, Ordering::Relaxed);
        if stream.write_all(&applied.to_le_bytes()).is_err() {
            return Ok(FollowExit::PrimaryDead);
        }
    }
}

/// Read the hub greeting `OK <nonce-hex> <start>\n` (tolerating the
/// 100ms read timeout while waiting).
fn read_greeting(stream: &mut TcpStream, stop: &AtomicBool) -> Option<(u64, usize)> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    let mut waited = 0u32;
    while line.len() < 256 {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                waited += 1;
                if waited > 100 {
                    return None; // 10s without a greeting
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    let text = std::str::from_utf8(&line).ok()?;
    let mut words = text.split_whitespace();
    if words.next() != Some("OK") {
        return None;
    }
    let nonce = u64::from_str_radix(words.next()?, 16).ok()?;
    let start: usize = words.next()?.parse().ok()?;
    words.next().is_none().then_some((nonce, start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_parser_handles_partials_and_checksums() {
        let mut wire = Vec::new();
        for payload in [b"alpha".as_slice(), b"beta".as_slice()] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&fnv1a(payload).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        // Deliver byte by byte: frames pop out exactly at their ends.
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for &b in &wire {
            buf.push(b);
            got.extend(take_frames(&mut buf).unwrap());
        }
        assert_eq!(got, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert!(buf.is_empty());

        // Flip a payload byte: the checksum must catch it.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x20;
        let mut buf = bad;
        assert!(take_frames(&mut buf).is_err());
    }

    #[test]
    fn nonce_round_trips_through_the_state_dir() {
        let dir = std::env::temp_dir().join(format!("commsched-nonce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(load_nonce(&dir), 0);
        store_nonce(&dir, 0xdead_beef_0042).unwrap();
        assert_eq!(load_nonce(&dir), 0xdead_beef_0042);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
