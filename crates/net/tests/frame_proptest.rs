//! Property tests for the binary framing codec: encode → decode is
//! the identity under arbitrary payloads and arbitrary wire
//! fragmentation, torn frames never error or panic, and hostile
//! length prefixes are refused with typed errors — and for the
//! [`Decoder`] over both codecs: how a stream is cut into reads never
//! changes the messages it decodes to, the line cap holds, and arbitrary
//! bytes neither panic nor pile up.

use commsched_net::frame::{
    decode_batch_ack, decode_submit_batch, encode_batch_ack, encode_frame, encode_submit_batch,
    BatchOutcome, Frame, FrameDecoder, FrameError, MAGIC,
};
use commsched_net::{Decoder, Message};
use proptest::prelude::*;

/// Feed `wire` to `dec` in pieces of `chunk` bytes, pulling every
/// message after every piece; the error, if any, ends it.
fn decode_chunked(
    mut dec: Decoder,
    wire: &[u8],
    chunk: usize,
) -> (Vec<Message>, Option<FrameError>) {
    let mut got = Vec::new();
    for piece in wire.chunks(chunk) {
        dec.extend(piece);
        loop {
            match dec.next_message() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => break,
                Err(e) => return (got, Some(e)),
            }
        }
    }
    (got, None)
}

const LINE_CAP: usize = 64;
const FRAME_CAP: usize = 4096;

/// Printable-ASCII strings of up to `max` chars (the vendored proptest
/// shim has no regex string strategies).
fn ascii_string(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..max.max(1))
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

proptest! {
    /// Any sequence of frames, delivered in arbitrarily sized chunks,
    /// decodes back to exactly the frames that were encoded.
    #[test]
    fn frames_round_trip_under_fragmentation(
        frames in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..512)),
            0..8,
        ),
        chunk in 1usize..64,
    ) {
        let mut wire = MAGIC.to_vec();
        for (op, payload) in &frames {
            wire.extend_from_slice(&encode_frame(*op, payload));
        }
        let mut dec = FrameDecoder::new(4096);
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.extend(piece);
            while let Some(f) = dec.next_frame().expect("valid wire never errors") {
                got.push((f.opcode, f.payload));
            }
        }
        prop_assert_eq!(got, frames);
    }

    /// A truncated wire yields exactly the complete frames and then
    /// `Ok(None)` — a torn trailing frame is incomplete, not an error.
    #[test]
    fn torn_frames_are_incomplete_not_errors(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&encode_frame(0x01, &payload));
        let full = wire.len();
        let cut = (full as f64 * cut_fraction) as usize;
        let mut dec = FrameDecoder::new(4096);
        dec.extend(&wire[..cut]);
        match dec.next_frame() {
            Ok(Some(f)) => {
                prop_assert_eq!(cut, full);
                prop_assert_eq!(f.payload, payload);
            }
            Ok(None) => prop_assert!(cut < full),
            Err(e) => prop_assert!(false, "torn frame errored: {e}"),
        }
    }

    /// Any length prefix over the cap is refused with the typed
    /// `TooLarge` error, without allocating the advertised size.
    #[test]
    fn oversized_length_prefix_is_typed_error(len in 66u32..u32::MAX) {
        let mut dec = FrameDecoder::new_after_preamble(64);
        dec.extend(&len.to_le_bytes());
        prop_assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge { len: len as usize, max: 65 })
        );
    }

    /// Garbage that does not start with the magic byte is rejected up
    /// front (this is what routes line-protocol bytes away from the
    /// binary decoder).
    #[test]
    fn non_magic_preamble_is_rejected(first in 0u8..=255, rest in proptest::collection::vec(any::<u8>(), 3..16)) {
        prop_assume!(first != MAGIC[0]);
        let mut dec = FrameDecoder::new(4096);
        dec.extend(&[first]);
        dec.extend(&rest);
        prop_assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }

    /// Batched-submit payloads round-trip.
    #[test]
    fn submit_batch_round_trips(specs in proptest::collection::vec(ascii_string(64), 0..32)) {
        let payload = encode_submit_batch(&specs);
        prop_assert_eq!(decode_submit_batch(&payload).unwrap(), specs);
    }

    /// Truncating a batched-submit payload anywhere is an error, never
    /// a panic or a silently short decode.
    #[test]
    fn truncated_submit_batch_is_rejected(
        specs in proptest::collection::vec(ascii_string(16), 1..8),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = encode_submit_batch(&specs);
        let cut = (payload.len() as f64 * cut_fraction) as usize;
        if cut < payload.len() {
            prop_assert!(decode_submit_batch(&payload[..cut]).is_err());
        }
    }

    /// Batch-ack payloads round-trip.
    #[test]
    fn batch_ack_round_trips(
        outcomes in proptest::collection::vec(
            prop_oneof![
                any::<u64>().prop_map(BatchOutcome::Ok),
                ascii_string(48).prop_map(BatchOutcome::Err),
            ],
            0..32,
        ),
    ) {
        let payload = encode_batch_ack(&outcomes);
        prop_assert_eq!(decode_batch_ack(&payload).unwrap(), outcomes);
    }

    /// A line stream decodes to its lines however it is cut into reads,
    /// through the accepting side and the dialling side alike; `\r\n`
    /// ends a line as `\n` does.
    #[test]
    fn line_streams_decode_the_same_under_any_chunking(
        lines in proptest::collection::vec((ascii_string(LINE_CAP), any::<bool>()), 1..12),
        chunk in 1usize..40,
    ) {
        // The first byte picks the codec: keep it a line's.
        let mut wire = b"PING\n".to_vec();
        let mut want = vec![Message::Line("PING".to_string())];
        for (line, crlf) in &lines {
            wire.extend_from_slice(line.as_bytes());
            wire.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            want.push(Message::Line(line.clone()));
        }
        let detect = Decoder::detect(LINE_CAP, FRAME_CAP);
        prop_assert_eq!(decode_chunked(detect, &wire, chunk), (want.clone(), None));
        let dialled = Decoder::line(LINE_CAP);
        prop_assert_eq!(decode_chunked(dialled, &wire, chunk), (want, None));
    }

    /// Preamble + frames through the accepting side, bare frames through
    /// the dialling side: the same frames, however the stream is cut.
    #[test]
    fn frame_streams_decode_the_same_under_any_chunking(
        frames in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..300)),
            0..8,
        ),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for (opcode, payload) in &frames {
            wire.extend_from_slice(&encode_frame(*opcode, payload));
            want.push(Message::Frame(Frame { opcode: *opcode, payload: payload.clone() }));
        }
        let dialled = Decoder::frames(FRAME_CAP);
        prop_assert!(dialled.is_binary());
        prop_assert_eq!(decode_chunked(dialled, &wire, chunk), (want.clone(), None));
        let mut accepted = MAGIC.to_vec();
        accepted.extend_from_slice(&wire);
        let detect = Decoder::detect(LINE_CAP, FRAME_CAP);
        prop_assert!(!detect.is_binary());
        prop_assert_eq!(decode_chunked(detect, &accepted, chunk), (want, None));
    }

    /// A line of exactly the cap passes, terminated or not yet; one byte
    /// more without a terminator in sight is `LineTooLong`.
    #[test]
    fn the_line_cap_is_exact(cap in 1usize..200, chunk in 1usize..64) {
        let mut wire = vec![b'x'; cap];
        let (got, err) = decode_chunked(Decoder::line(cap), &wire, chunk);
        prop_assert_eq!((got, err), (Vec::new(), None));
        wire.push(b'\n');
        let (got, err) = decode_chunked(Decoder::line(cap), &wire, chunk);
        prop_assert_eq!((got, err), (vec![Message::Line("x".repeat(cap))], None));
        let over = vec![b'x'; cap + 1];
        let (got, err) = decode_chunked(Decoder::detect(cap, FRAME_CAP), &over, chunk);
        prop_assert_eq!((got, err), (Vec::new(), Some(FrameError::LineTooLong { max: cap })));
    }

    /// Arbitrary bytes never panic, and whatever they are, the decoder
    /// holds at most one capped unit plus the read that just arrived.
    #[test]
    fn arbitrary_bytes_never_panic_or_pile_up(
        first in any::<u8>(),
        rest in proptest::collection::vec(any::<u8>(), 0..2000),
        magic in any::<bool>(),
        chunk in 1usize..300,
    ) {
        let mut wire = if magic { MAGIC.to_vec() } else { vec![first] };
        wire.extend_from_slice(&rest);
        let frame_cap = 256;
        let mut dec = Decoder::detect(LINE_CAP, frame_cap);
        // A whole frame on the wire: length prefix, opcode, payload.
        let unit = LINE_CAP.max(4 + 1 + frame_cap);
        'feed: for piece in wire.chunks(chunk) {
            dec.extend(piece);
            loop {
                match dec.next_message() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break 'feed,
                }
            }
            prop_assert!(
                dec.buffered() <= unit + MAGIC.len() + chunk,
                "{} bytes buffered", dec.buffered()
            );
        }
    }
}
