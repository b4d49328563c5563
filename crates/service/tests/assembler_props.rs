//! The door bytes come in through: valid request lines, `OP_REQ` and
//! `OP_SUBMIT_BATCH` payloads, mutated byte by byte and fed to
//! [`Assembler::feed`]. Whatever arrives, the outcome is one of the four
//! [`Fed`] variants — no panic — and nothing it carries is larger than
//! what was sent: a count or length field is never taken at its word.

use commsched_net::frame::{encode_submit_batch, Frame, OP_REQ, OP_SUBMIT_BATCH};
use commsched_net::Message;
use commsched_service::protocol::{Assembler, Fed, Request};
use proptest::prelude::*;

const MAX_UPLOAD: usize = 512;

const LINES: &[&str] = &[
    "PING",
    "CAPS",
    "STATUS 17",
    "RESULT 3",
    "CANCEL 8",
    "ADDTOPO 3",
    "ADDTOPO 18446744073709551615",
    "SUBMIT NOOP deadline-ms=250 mem=4096",
    "SUBMIT SCHEDULE topo=ring:8:4 clusters=2 seed=7 routing=shortest",
    "SUBMIT SWEEP topo=random:16:3:4:2000 points=5 approx-eps=0.05",
    "SUBMIT SCHEDULE topo=fp:0123456789abcdef strategy=multilevel",
    "FAULT topo=paper24 restore=2:3:4",
    "FAULT topo=ring:8:4 switch=5",
    "QUIT",
];

/// Overwrite, insert or delete bytes of `bytes` at the given positions.
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, value) in edits {
        if bytes.is_empty() {
            bytes.push(value);
            continue;
        }
        let at = at % bytes.len();
        match kind % 3 {
            0 => bytes[at] = value,
            1 => bytes.insert(at, value),
            _ => {
                bytes.remove(at);
            }
        }
    }
    bytes
}

/// The size of what an outcome carries, in the units it was sent in.
fn carried(fed: &Fed) -> usize {
    match fed {
        Fed::Request(Request::AddTopo { text }) => text.len(),
        Fed::Request(Request::SubmitBatch(entries)) => entries.len(),
        Fed::Refused(reason) => reason.len(),
        Fed::More | Fed::Overflow | Fed::Request(_) => 0,
    }
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..6)
}

proptest! {
    /// A connection's lines, mutated: every outcome is a `Fed`, an upload
    /// in progress swallows lines up to its byte cap and not beyond.
    #[test]
    fn mutated_request_lines_assemble_or_are_refused(
        picks in proptest::collection::vec((0usize..LINES.len(), edits()), 1..24),
    ) {
        let mut conn = Assembler::default();
        let mut sent = 0usize;
        for (pick, edits) in &picks {
            let bytes = mutate(LINES[*pick].as_bytes().to_vec(), edits);
            let line = String::from_utf8_lossy(&bytes).into_owned();
            sent += line.len() + 1;
            match conn.feed(Message::Line(line), MAX_UPLOAD) {
                Fed::Request(Request::AddTopo { text }) => {
                    prop_assert!(text.len() <= MAX_UPLOAD.min(sent));
                }
                Fed::Overflow => prop_assert!(sent > MAX_UPLOAD),
                Fed::More | Fed::Request(_) | Fed::Refused(_) => {}
            }
        }
    }

    /// An `OP_REQ` payload, mutated (an upload's body rides inline).
    #[test]
    fn mutated_request_frames_assemble_or_are_refused(
        pick in 0usize..LINES.len(),
        body in proptest::collection::vec(any::<u8>(), 0..200),
        edits in edits(),
    ) {
        let mut payload = LINES[pick].as_bytes().to_vec();
        payload.push(b'\n');
        payload.extend_from_slice(&body);
        let payload = mutate(payload, &edits);
        let sent = payload.len();
        let fed = Assembler::default().feed(
            Message::Frame(Frame { opcode: OP_REQ, payload }),
            MAX_UPLOAD,
        );
        prop_assert!(!matches!(fed, Fed::More | Fed::Overflow), "a frame is whole: {:?}", fed);
        // A refusal quotes at most the request back, lossily decoded.
        prop_assert!(carried(&fed) <= 3 * sent + 64, "{:?}", fed);
    }

    /// An `OP_SUBMIT_BATCH` payload, mutated: the count and the length
    /// fields are the bytes most likely hit.
    #[test]
    fn mutated_batch_frames_assemble_or_are_refused(
        picks in proptest::collection::vec(0usize..LINES.len(), 0..6),
        edits in edits(),
        opcode_edit in any::<u8>(),
    ) {
        let specs: Vec<String> = picks
            .iter()
            .map(|&p| LINES[p].trim_start_matches("SUBMIT ").to_string())
            .collect();
        let payload = mutate(encode_submit_batch(&specs), &edits);
        let sent = payload.len();
        // Mostly the batch opcode, sometimes any other.
        let opcode = if opcode_edit < 200 { OP_SUBMIT_BATCH } else { opcode_edit };
        let fed = Assembler::default().feed(Message::Frame(Frame { opcode, payload }), MAX_UPLOAD);
        prop_assert!(!matches!(fed, Fed::More | Fed::Overflow), "a frame is whole: {:?}", fed);
        prop_assert!(carried(&fed) <= 3 * sent + 64, "{:?}", fed);
    }
}

/// The hostile headers by name: a count of 2³²−1 over eight bytes, a line
/// count of 2⁶⁴−1. Neither is believed.
#[test]
fn a_count_field_is_never_taken_at_its_word() {
    let mut payload = u32::MAX.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0; 8]);
    let fed = Assembler::default().feed(
        Message::Frame(Frame {
            opcode: OP_SUBMIT_BATCH,
            payload,
        }),
        MAX_UPLOAD,
    );
    assert!(
        matches!(&fed, Fed::Refused(r) if r.starts_with("bad-batch ")),
        "{fed:?}"
    );

    let mut conn = Assembler::default();
    let head = Message::Line("ADDTOPO 18446744073709551615".to_string());
    assert_eq!(conn.feed(head, MAX_UPLOAD), Fed::More);
    let line = "x".repeat(99);
    let outcomes: Vec<Fed> = (0..6)
        .map(|_| conn.feed(Message::Line(line.clone()), MAX_UPLOAD))
        .collect();
    // Five lines of 100 bytes fit under 512, the sixth does not; after
    // that the connection assembles requests again.
    assert_eq!(
        outcomes[..5],
        [Fed::More, Fed::More, Fed::More, Fed::More, Fed::More]
    );
    assert_eq!(outcomes[5], Fed::Overflow);
    assert_eq!(
        conn.feed(Message::Line("PING".to_string()), MAX_UPLOAD),
        Fed::Request(Request::Ping)
    );
}
