//! Write-ahead-log framing: length-prefixed, checksummed records.
//!
//! Each record is `[u32 LE payload length][u64 LE FNV-1a of payload]
//! [payload bytes]`. A log or snapshot payload is UTF-8 text (see
//! [`super::state`] for the grammar); a table spill file is one frame
//! whose payload is mostly binary (see [`super::tables`]) and is read
//! with [`decode_frame`] alone. Replay reads records until the
//! file ends or a record fails its frame check — a torn tail (partial
//! header, short payload, checksum mismatch) terminates replay cleanly
//! at the last intact record rather than erroring, because a crash
//! mid-append is exactly the case the log exists to survive.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Observer of successfully appended WAL records, called with each
/// payload *while the WAL lock is held* — so the order of `record`
/// calls is exactly the order of records in the log. This is the hook
/// WAL replication hangs off: a tap that ships every record to
/// followers sees the authoritative commit order without any extra
/// synchronization. Implementations must not call back into the WAL
/// (the lock is held) and should be quick or buffered.
pub trait WalTap: Send + Sync {
    /// One record was durably appended (per the caller's sync policy).
    fn record(&self, payload: &[u8]);
}

/// Frame overhead per record: 4-byte length + 8-byte checksum.
pub const FRAME_HEADER_BYTES: u64 = 12;

/// Records longer than this are treated as corruption, not data: no
/// legitimate event (the largest is a serialized distance table) comes
/// close, and a garbage length would otherwise make replay try to
/// allocate it.
const MAX_PAYLOAD_BYTES: u32 = 1 << 30;

/// The same 64-bit FNV-1a the topology fingerprint uses; self-contained
/// so the WAL format has no structural dependency on other crates.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append one framed record (`[len][fnv1a][payload]`) to `out`.
///
/// # Errors
/// `InvalidInput` when the payload does not fit the 32-bit length.
pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "record too large"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// An open WAL file positioned for appending.
pub struct WalWriter {
    file: File,
    bytes: u64,
    tap: Option<Arc<dyn WalTap>>,
}

impl WalWriter {
    /// Open (creating if absent) the log at `path` and seek to its end.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let bytes = file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file,
            bytes,
            tap: None,
        })
    }

    /// Install (or replace) the [`WalTap`] observing appended records.
    pub fn set_tap(&mut self, tap: Arc<dyn WalTap>) {
        self.tap = Some(tap);
    }

    /// Append one framed record; `sync` forces the bytes to stable
    /// storage before returning (the durability point of an
    /// acknowledgement). Returns the log size after the append.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn append(&mut self, payload: &[u8], sync: bool) -> std::io::Result<u64> {
        self.append_all([payload], sync)
    }

    /// Append many framed records with ONE buffer build and ONE
    /// `write(2)` — the per-record syscall is the dominant append cost
    /// at high submit rates, so a batched commit must not pay it per
    /// job. All-or-nothing from the caller's view: on error none of the
    /// records should be considered logged (a torn tail, if any,
    /// terminates replay at the last intact record as usual). Returns
    /// the log size after the append.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn append_all<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
        sync: bool,
    ) -> std::io::Result<u64> {
        let mut frame = Vec::new();
        let mut written: Vec<&'a [u8]> = Vec::new();
        for payload in payloads {
            encode_frame(&mut frame, payload)?;
            written.push(payload);
        }
        if frame.is_empty() {
            return Ok(self.bytes);
        }
        self.file.write_all(&frame)?;
        if sync {
            self.file.sync_data()?;
        }
        self.bytes += frame.len() as u64;
        // The tap fires only for records that actually hit the file, in
        // append order (the caller holds the WAL lock across this).
        if let Some(tap) = &self.tap {
            for payload in written {
                tap.record(payload);
            }
        }
        Ok(self.bytes)
    }

    /// Bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Drop every record (after a snapshot has made them redundant) and
    /// force the truncation to disk.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.bytes = 0;
        Ok(())
    }

    /// Force buffered appends to stable storage.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// The result of replaying a log file.
pub struct Replay {
    /// Every intact record payload, in append order.
    pub records: Vec<String>,
    /// Bytes of the intact prefix (everything past this was torn).
    pub valid_bytes: u64,
    /// Whether a torn or corrupt tail was dropped.
    pub torn_tail: bool,
}

/// Read every intact record from the log at `path` (absent file =
/// empty log). Stops at the first frame violation — partial header,
/// short payload, oversized length, checksum mismatch, or non-UTF-8
/// payload — and reports everything before it.
///
/// # Errors
/// Propagates filesystem failures other than the file not existing.
pub fn replay(path: &Path) -> std::io::Result<Replay> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(replay_bytes(&data))
}

/// The payload of the frame at the front of `data`, when one is there
/// whole: a full header, a length within `MAX_PAYLOAD_BYTES` and
/// within `data`, and a matching checksum. Every reader of framed bytes
/// goes through this check.
pub fn decode_frame(data: &[u8]) -> Option<&[u8]> {
    let body = data.get(FRAME_HEADER_BYTES as usize..)?;
    let len = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
    let checksum = u64::from_le_bytes(data[4..12].try_into().expect("8 bytes"));
    if len > MAX_PAYLOAD_BYTES {
        return None;
    }
    let payload = body.get(..len as usize)?;
    (fnv1a(payload) == checksum).then_some(payload)
}

/// Replay from an in-memory image (the file-reading half split out so
/// torn-write handling is testable without a filesystem).
pub fn replay_bytes(data: &[u8]) -> Replay {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &data[offset..];
        let text = decode_frame(rest).and_then(|payload| std::str::from_utf8(payload).ok());
        let Some(text) = text else {
            return Replay {
                records,
                valid_bytes: offset as u64,
                torn_tail: !rest.is_empty(),
            };
        };
        records.push(text.to_string());
        offset += FRAME_HEADER_BYTES as usize + text.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn round_trip_via_file() {
        let dir = std::env::temp_dir().join(format!("commsched-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(&path).unwrap();
            assert_eq!(w.bytes(), 0);
            w.append(b"alpha", true).unwrap();
            w.append("beta \u{3b2}".as_bytes(), false).unwrap();
        }
        // Re-opening resumes at the end.
        let mut w = WalWriter::open(&path).unwrap();
        assert!(w.bytes() > 0);
        w.append(b"gamma", true).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records, vec!["alpha", "beta \u{3b2}", "gamma"]);
        assert!(!r.torn_tail);
        assert_eq!(r.valid_bytes, w.bytes());
        w.truncate().unwrap();
        assert_eq!(replay(&path).unwrap().records.len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let r = replay(Path::new("/nonexistent/commsched.wal")).unwrap();
        assert!(r.records.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn torn_tails_stop_replay_cleanly() {
        let mut data = frame(b"one");
        data.extend_from_slice(&frame(b"two"));
        let full = data.clone();
        // Truncate at every byte boundary: the intact prefix must always
        // decode and the tail must be flagged except at record edges.
        let first = frame(b"one").len();
        for cut in 0..full.len() {
            let r = replay_bytes(&full[..cut]);
            if cut == 0 {
                assert_eq!(r.records.len(), 0);
                assert!(!r.torn_tail);
            } else if cut < first {
                assert_eq!(r.records.len(), 0, "cut {cut}");
                assert!(r.torn_tail, "cut {cut}");
            } else if cut == first {
                assert_eq!(r.records, vec!["one"]);
                assert!(!r.torn_tail);
                assert_eq!(r.valid_bytes, first as u64);
            } else {
                assert_eq!(r.records, vec!["one"], "cut {cut}");
                assert!(r.torn_tail, "cut {cut}");
                assert_eq!(r.valid_bytes, first as u64);
            }
        }
    }

    #[test]
    fn corrupt_checksum_and_length_detected() {
        let mut flipped = frame(b"payload");
        *flipped.last_mut().unwrap() ^= 0x40;
        let r = replay_bytes(&flipped);
        assert!(r.records.is_empty());
        assert!(r.torn_tail);

        // An absurd length must not be trusted.
        let mut bad_len = frame(b"x");
        bad_len[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = replay_bytes(&bad_len);
        assert!(r.records.is_empty());
        assert!(r.torn_tail);

        // Corruption in the middle hides later intact records (replay
        // cannot resync) but keeps the earlier ones.
        let mut mixed = frame(b"keep");
        let mut second = frame(b"lost");
        second[FRAME_HEADER_BYTES as usize] ^= 0xff;
        mixed.extend_from_slice(&second);
        mixed.extend_from_slice(&frame(b"also-lost"));
        let r = replay_bytes(&mixed);
        assert_eq!(r.records, vec!["keep"]);
        assert!(r.torn_tail);
    }

    #[test]
    fn non_utf8_payload_is_corruption() {
        let r = replay_bytes(&frame(&[0xff, 0xfe, 0x00]));
        assert!(r.records.is_empty());
        assert!(r.torn_tail);
    }
}
