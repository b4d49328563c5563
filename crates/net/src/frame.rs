//! Length-prefixed binary framing.
//!
//! Wire grammar (all integers little-endian):
//!
//! ```text
//! connection := MAGIC frame*
//! MAGIC      := 0xC5 'c' 's' version:u8          (version = 1)
//! frame      := len:u32 body                      (len = body length, >= 1)
//! body       := opcode:u8 payload:bytes           (payload = len-1 bytes)
//! ```
//!
//! The first byte a server reads decides the protocol for the whole
//! connection: `0xC5` selects binary framing, anything else is treated
//! as the start of a line-protocol request. `0xC5` is not printable
//! ASCII and no line verb can begin with it, so the detection is
//! unambiguous.
//!
//! Frames are bounded: a length prefix of zero (no opcode) or one
//! exceeding the configured payload cap is refused with a typed error
//! before any allocation of the advertised size, so a hostile or
//! corrupt length prefix cannot balloon memory.

use std::fmt;

/// First byte of the binary preamble; intentionally outside printable
/// ASCII so line-protocol detection stays unambiguous.
pub const MAGIC_BYTE: u8 = 0xC5;
/// Binary protocol version carried in the preamble.
pub const PROTO_VERSION: u8 = 1;
/// Full 4-byte connection preamble: magic, "cs", version.
pub const MAGIC: [u8; 4] = [MAGIC_BYTE, b'c', b's', PROTO_VERSION];

/// Request: payload is one line-protocol request (UTF-8, no trailing
/// newline). Multi-line requests (ADDTOPO) carry their extra lines in
/// the same payload separated by `\n`.
pub const OP_REQ: u8 = 0x01;
/// Request: batched submit. Payload: `count:u32 (len:u32 spec)*` where
/// each spec is a job-spec string as accepted by `SUBMIT`.
pub const OP_SUBMIT_BATCH: u8 = 0x02;
/// Response: success. Payload is the reply text of the line protocol,
/// `OK …`; block responses join their lines with `\n`.
pub const OP_OK: u8 = 0x81;
/// Response: error. Payload is the reply text of the line protocol,
/// `ERR …`.
pub const OP_ERR: u8 = 0x82;
/// Response: batch ack. Payload: `count:u32 entry*`; each entry is
/// `0:u8 id:u64` for an accepted job or `1:u8 len:u32 msg` for a
/// rejected one, in submission order.
pub const OP_BATCH_ACK: u8 = 0x83;

/// Default cap on a frame payload (opcode excluded): 4 MiB.
pub const DEFAULT_MAX_FRAME_PAYLOAD: usize = 4 << 20;

/// Why a frame (or preamble, or line) could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The 4-byte preamble did not match [`MAGIC`].
    BadMagic([u8; 4]),
    /// The preamble named a protocol version we do not speak.
    BadVersion(u8),
    /// A length prefix of zero: every frame carries at least an opcode.
    EmptyFrame,
    /// The advertised frame length exceeds the configured cap.
    TooLarge {
        /// Advertised body length (opcode + payload).
        len: usize,
        /// Maximum allowed body length.
        max: usize,
    },
    /// Text codec: more than the line cap arrived without a terminator.
    LineTooLong {
        /// Maximum allowed line length (terminator excluded).
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(got) => write!(f, "bad magic {got:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::EmptyFrame => write!(f, "zero-length frame"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::LineTooLong { max } => write!(f, "line exceeds maximum {max}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame: opcode plus owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame opcode (`OP_*`).
    pub opcode: u8,
    /// Frame payload (may be empty).
    pub payload: Vec<u8>,
}

/// Append one encoded frame (length prefix, opcode, payload) to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, opcode: u8, payload: &[u8]) {
    encode_frame_with(out, opcode, |out| out.extend_from_slice(payload));
}

/// Append one frame whose payload `write` appends to `out` itself: the
/// length prefix is filled in afterwards, so a payload assembled from
/// pieces needs no buffer of its own.
pub fn encode_frame_with(out: &mut Vec<u8>, opcode: u8, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(opcode);
    write(out);
    let len = u32::try_from(out.len() - start - 4).expect("frame length fits u32");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encode one frame into a fresh buffer.
pub fn encode_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    encode_frame_into(&mut out, opcode, payload);
    out
}

/// Incremental frame decoder. Feed bytes with [`FrameDecoder::extend`],
/// then pull complete frames with [`FrameDecoder::next_frame`] until it
/// returns `Ok(None)` (more bytes needed). Decoding failures are
/// sticky: the connection should be closed.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    preamble_done: bool,
    max_payload: usize,
}

impl FrameDecoder {
    /// A decoder that expects the [`MAGIC`] preamble first and caps
    /// payloads at `max_payload` bytes.
    pub fn new(max_payload: usize) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            preamble_done: false,
            max_payload,
        }
    }

    /// A decoder for a stream whose preamble was already consumed (the
    /// server peeks the first byte for protocol detection and feeds the
    /// rest through here).
    pub fn new_after_preamble(max_payload: usize) -> Self {
        let mut d = Self::new(max_payload);
        d.preamble_done = true;
        d
    }

    /// Feed more bytes from the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer
        // bounded by one frame plus one read's worth of spillover.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to decode the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed — a torn frame is
    /// simply incomplete, never an error.
    ///
    /// # Errors
    /// [`FrameError`] for a bad preamble, zero-length frame, or a
    /// length prefix over the cap. Errors are not recoverable; the
    /// caller should drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if !self.preamble_done {
            let avail = &self.buf[self.pos..];
            if avail.len() < MAGIC.len() {
                return Ok(None);
            }
            let got = [avail[0], avail[1], avail[2], avail[3]];
            if got[0] != MAGIC_BYTE || got[1] != MAGIC[1] || got[2] != MAGIC[2] {
                return Err(FrameError::BadMagic(got));
            }
            if got[3] != PROTO_VERSION {
                return Err(FrameError::BadVersion(got[3]));
            }
            self.pos += MAGIC.len();
            self.preamble_done = true;
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len == 0 {
            return Err(FrameError::EmptyFrame);
        }
        if len > 1 + self.max_payload {
            return Err(FrameError::TooLarge {
                len,
                max: 1 + self.max_payload,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let opcode = avail[4];
        let payload = avail[5..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(Frame { opcode, payload }))
    }
}

/// Encode a batched-submit payload from job-spec strings (the payload
/// of an [`OP_SUBMIT_BATCH`] frame).
pub fn encode_submit_batch(specs: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + specs.iter().map(|s| 4 + s.len()).sum::<usize>());
    out.extend_from_slice(
        &u32::try_from(specs.len())
            .expect("batch count fits u32")
            .to_le_bytes(),
    );
    for s in specs {
        out.extend_from_slice(
            &u32::try_from(s.len())
                .expect("spec length fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(s.as_bytes());
    }
    out
}

/// Decode a batched-submit payload into job-spec strings.
///
/// # Errors
/// A human-readable message for truncated payloads, non-UTF-8 specs,
/// or trailing garbage.
pub fn decode_submit_batch(payload: &[u8]) -> Result<Vec<String>, String> {
    let mut cur = payload;
    let count = read_u32(&mut cur).ok_or("batch payload shorter than count")? as usize;
    // Each entry costs at least 4 bytes; bound up front so a hostile
    // count cannot drive a huge allocation.
    if count > cur.len() / 4 + 1 {
        return Err(format!("batch count {count} exceeds payload size"));
    }
    let mut specs = Vec::with_capacity(count);
    for i in 0..count {
        let len =
            read_u32(&mut cur).ok_or_else(|| format!("batch entry {i}: missing length"))? as usize;
        if cur.len() < len {
            return Err(format!("batch entry {i}: truncated spec"));
        }
        let (spec, rest) = cur.split_at(len);
        cur = rest;
        specs.push(
            std::str::from_utf8(spec)
                .map_err(|_| format!("batch entry {i}: spec is not UTF-8"))?
                .to_string(),
        );
    }
    if !cur.is_empty() {
        return Err(format!("{} trailing bytes after batch entries", cur.len()));
    }
    Ok(specs)
}

/// One outcome in a batch ack: the job id or the rejection message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Job accepted with this id.
    Ok(u64),
    /// Job rejected with this message.
    Err(String),
}

/// Encode a batch-ack payload (the payload of an [`OP_BATCH_ACK`]
/// frame), outcomes in submission order.
pub fn encode_batch_ack(outcomes: &[BatchOutcome]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + outcomes.len() * 9);
    out.extend_from_slice(
        &u32::try_from(outcomes.len())
            .expect("ack count fits u32")
            .to_le_bytes(),
    );
    for o in outcomes {
        match o {
            BatchOutcome::Ok(id) => {
                out.push(0);
                out.extend_from_slice(&id.to_le_bytes());
            }
            BatchOutcome::Err(msg) => {
                out.push(1);
                out.extend_from_slice(
                    &u32::try_from(msg.len())
                        .expect("msg length fits u32")
                        .to_le_bytes(),
                );
                out.extend_from_slice(msg.as_bytes());
            }
        }
    }
    out
}

/// Decode a batch-ack payload.
///
/// # Errors
/// A human-readable message for truncated or malformed payloads.
pub fn decode_batch_ack(payload: &[u8]) -> Result<Vec<BatchOutcome>, String> {
    let mut cur = payload;
    let count = read_u32(&mut cur).ok_or("ack payload shorter than count")? as usize;
    if count > cur.len() + 1 {
        return Err(format!("ack count {count} exceeds payload size"));
    }
    let mut outcomes = Vec::with_capacity(count);
    for i in 0..count {
        let (&tag, rest) = cur
            .split_first()
            .ok_or_else(|| format!("ack entry {i}: missing tag"))?;
        cur = rest;
        match tag {
            0 => {
                if cur.len() < 8 {
                    return Err(format!("ack entry {i}: truncated id"));
                }
                let (id, rest) = cur.split_at(8);
                cur = rest;
                outcomes.push(BatchOutcome::Ok(u64::from_le_bytes(
                    id.try_into().expect("8-byte slice"),
                )));
            }
            1 => {
                let len = read_u32(&mut cur)
                    .ok_or_else(|| format!("ack entry {i}: missing msg length"))?
                    as usize;
                if cur.len() < len {
                    return Err(format!("ack entry {i}: truncated msg"));
                }
                let (msg, rest) = cur.split_at(len);
                cur = rest;
                outcomes.push(BatchOutcome::Err(String::from_utf8_lossy(msg).into_owned()));
            }
            t => return Err(format!("ack entry {i}: unknown tag {t}")),
        }
    }
    if !cur.is_empty() {
        return Err(format!("{} trailing bytes after ack entries", cur.len()));
    }
    Ok(outcomes)
}

fn read_u32(cur: &mut &[u8]) -> Option<u32> {
    if cur.len() < 4 {
        return None;
    }
    let (head, rest) = cur.split_at(4);
    *cur = rest;
    Some(u32::from_le_bytes(head.try_into().expect("4-byte slice")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_one_frame_with_preamble() {
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&encode_frame(OP_REQ, b"PING"));
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_PAYLOAD);
        dec.extend(&wire);
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.opcode, OP_REQ);
        assert_eq!(f.payload, b"PING");
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn torn_frames_wait_for_more_bytes() {
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&encode_frame(OP_OK, b"pong"));
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_PAYLOAD);
        for (i, b) in wire.iter().enumerate() {
            dec.extend(std::slice::from_ref(b));
            let got = dec.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame completed early at byte {i}");
            } else {
                let f = got.unwrap();
                assert_eq!(f.opcode, OP_OK);
                assert_eq!(f.payload, b"pong");
            }
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut dec = FrameDecoder::new(64);
        dec.extend(b"PING\n---");
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn bad_version_is_typed() {
        let mut dec = FrameDecoder::new(64);
        dec.extend(&[MAGIC_BYTE, b'c', b's', 9]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadVersion(9)));
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut dec = FrameDecoder::new_after_preamble(16);
        dec.extend(&u32::MAX.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge {
                len: u32::MAX as usize,
                max: 17
            })
        );
    }

    #[test]
    fn zero_length_frame_is_refused() {
        let mut dec = FrameDecoder::new_after_preamble(16);
        dec.extend(&0u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::EmptyFrame));
    }

    #[test]
    fn batch_payload_round_trips() {
        let specs = vec![
            "paper24 shortest schedule clusters=4 seed=1".to_string(),
            "noop".to_string(),
        ];
        let payload = encode_submit_batch(&specs);
        assert_eq!(decode_submit_batch(&payload).unwrap(), specs);
    }

    #[test]
    fn batch_ack_round_trips() {
        let outcomes = vec![
            BatchOutcome::Ok(42),
            BatchOutcome::Err("queue-full capacity=16".to_string()),
            BatchOutcome::Ok(u64::MAX),
        ];
        let payload = encode_batch_ack(&outcomes);
        assert_eq!(decode_batch_ack(&payload).unwrap(), outcomes);
    }

    #[test]
    fn truncated_batch_payload_is_rejected() {
        let payload = encode_submit_batch(&["noop".to_string()]);
        for cut in 0..payload.len() {
            assert!(decode_submit_batch(&payload[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn hostile_batch_count_is_bounded() {
        let mut payload = u32::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0; 8]);
        assert!(decode_submit_batch(&payload).is_err());
    }
}
