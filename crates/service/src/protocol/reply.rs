//! What the daemon can answer: [`Reply`], spelled into either codec by
//! [`Reply::encode`] and read back by [`Reply::from_head`] /
//! [`Reply::from_frame`]. Nothing else in the crate knows that a refusal
//! opens with `ERR`.

use commsched_net::frame::{
    decode_batch_ack, encode_batch_ack, encode_frame_with, BatchOutcome, Frame, OP_BATCH_ACK,
    OP_ERR, OP_OK,
};
use commsched_net::Message;

/// One reply to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `OK <text>`: a one-line success.
    Ok(String),
    /// `OK <head>`, the payload lines, then a line holding a single `.`.
    Block {
        /// What kind of block this is (`result`, `stats`, …).
        head: String,
        /// The payload lines.
        lines: Vec<String>,
    },
    /// `ERR <reason>`: refused or failed; the connection stays usable
    /// unless the reason says otherwise.
    Err(String),
    /// Per-job outcomes of an `OP_SUBMIT_BATCH`, in submission order.
    BatchAck(Vec<BatchOutcome>),
}

impl Reply {
    /// Append this reply to `out` as wire bytes: one frame when `binary`
    /// (the payload of `OP_OK` / `OP_ERR` is the line codec's text,
    /// `\n`-joined, no trailing newline), newline-terminated lines
    /// otherwise. A batch only ever arrives in a frame; spelled as lines
    /// its ack is one `OK <id>` / `ERR <reason>` line per job, what that
    /// many `SUBMIT`s would have been answered.
    pub fn encode(&self, binary: bool, out: &mut Vec<u8>) {
        if !binary {
            let start = out.len();
            self.write_text(out);
            // Only an ack of no jobs has no text, and so no lines.
            if out.len() > start {
                out.push(b'\n');
            }
            return;
        }
        match self {
            Reply::Ok(_) | Reply::Block { .. } => {
                encode_frame_with(out, OP_OK, |out| self.write_text(out))
            }
            Reply::Err(_) => encode_frame_with(out, OP_ERR, |out| self.write_text(out)),
            Reply::BatchAck(outcomes) => encode_frame_with(out, OP_BATCH_ACK, |out| {
                out.extend_from_slice(&encode_batch_ack(outcomes))
            }),
        }
    }

    /// The line codec's text of this reply, without the final newline.
    fn write_text(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Ok(text) => {
                out.extend_from_slice(b"OK ");
                out.extend_from_slice(text.as_bytes());
            }
            Reply::Block { head, lines } => {
                out.extend_from_slice(b"OK ");
                out.extend_from_slice(head.as_bytes());
                for line in lines {
                    out.push(b'\n');
                    out.extend_from_slice(line.as_bytes());
                }
                out.extend_from_slice(b"\n.");
            }
            Reply::Err(reason) => {
                out.extend_from_slice(b"ERR ");
                out.extend_from_slice(reason.as_bytes());
            }
            Reply::BatchAck(outcomes) => {
                for (i, outcome) in outcomes.iter().enumerate() {
                    if i > 0 {
                        out.push(b'\n');
                    }
                    match outcome {
                        BatchOutcome::Ok(id) => {
                            out.extend_from_slice(format!("OK {id}").as_bytes())
                        }
                        BatchOutcome::Err(reason) => {
                            out.extend_from_slice(b"ERR ");
                            out.extend_from_slice(reason.as_bytes());
                        }
                    }
                }
            }
        }
    }

    /// Read the first line of a line-codec reply: `Ok` or `Err`.
    /// Whether payload lines follow an `Ok` is the asker's knowledge
    /// (`RESULT` answers a block, `STATUS` does not).
    ///
    /// # Errors
    /// The line opens with neither `OK` nor `ERR`.
    pub fn from_head(line: &str) -> Result<Self, String> {
        if let Some(rest) = line.strip_prefix("OK") {
            Ok(Reply::Ok(rest.trim_start().to_string()))
        } else if let Some(rest) = line.strip_prefix("ERR") {
            Ok(Reply::Err(rest.trim_start().to_string()))
        } else {
            Err(format!("unexpected reply '{line}'"))
        }
    }

    /// Read a binary-codec reply frame.
    ///
    /// # Errors
    /// An opcode that is no reply, or a payload that does not decode.
    pub fn from_frame(frame: &Frame) -> Result<Self, String> {
        let text = || String::from_utf8_lossy(&frame.payload);
        match frame.opcode {
            OP_OK => {
                let text = text();
                let text = text.strip_prefix("OK").unwrap_or(&text).trim_start();
                Ok(match text.strip_suffix("\n.") {
                    None => Reply::Ok(text.to_string()),
                    Some(block) => {
                        let mut lines = block.split('\n').map(str::to_string);
                        Reply::Block {
                            head: lines.next().unwrap_or_default(),
                            lines: lines.collect(),
                        }
                    }
                })
            }
            OP_ERR => {
                let text = text();
                let reason = text.strip_prefix("ERR").unwrap_or(&text).trim_start();
                Ok(Reply::Err(reason.to_string()))
            }
            OP_BATCH_ACK => decode_batch_ack(&frame.payload).map(Reply::BatchAck),
            other => Err(format!("unexpected reply opcode {other:#04x}")),
        }
    }

    /// [`Self::from_head`] or [`Self::from_frame`], by what arrived.
    ///
    /// # Errors
    /// Theirs.
    pub fn from_message(message: &Message) -> Result<Self, String> {
        match message {
            Message::Line(line) => Self::from_head(line),
            Message::Frame(frame) => Self::from_frame(frame),
        }
    }
}

/// Whether a refusal's reason says the server shed the connection at its
/// cap (`busy …`): worth retrying on a fresh connection, later.
pub fn is_busy(reason: &str) -> bool {
    reason.starts_with("busy")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<Reply> {
        vec![
            Reply::Ok("pong".to_string()),
            Reply::Ok("17".to_string()),
            Reply::Block {
                head: "result".to_string(),
                lines: vec!["clusters 4".to_string(), "fg 0.5".to_string()],
            },
            Reply::Block {
                head: "cluster".to_string(),
                lines: Vec::new(),
            },
            Reply::Err("queue-full".to_string()),
            Reply::Err("unknown request 'FROB'".to_string()),
            Reply::BatchAck(vec![
                BatchOutcome::Ok(42),
                BatchOutcome::Err("queue-full".to_string()),
                BatchOutcome::Err("busy max-connections".to_string()),
            ]),
            Reply::BatchAck(Vec::new()),
        ]
    }

    #[test]
    fn every_variant_round_trips_through_a_frame() {
        for reply in every_variant() {
            let mut wire = Vec::new();
            reply.encode(true, &mut wire);
            let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
            assert_eq!(wire.len(), 4 + len, "{reply:?}: one whole frame");
            let frame = Frame {
                opcode: wire[4],
                payload: wire[5..].to_vec(),
            };
            assert_eq!(Reply::from_frame(&frame), Ok(reply));
        }
    }

    #[test]
    fn every_variant_round_trips_through_lines() {
        for reply in every_variant() {
            let mut wire = Vec::new();
            reply.encode(false, &mut wire);
            let text = String::from_utf8(wire).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let whole_lines = text.ends_with('\n') && !text.ends_with("\n\n");
            assert!(
                whole_lines || reply == Reply::BatchAck(Vec::new()),
                "{text:?}"
            );
            match &reply {
                Reply::Block { head, lines: body } => {
                    assert_eq!(Reply::from_head(lines[0]), Ok(Reply::Ok(head.clone())));
                    assert_eq!(lines.last(), Some(&"."));
                    assert_eq!(&lines[1..lines.len() - 1], body.as_slice());
                }
                // One line per job, each what a SUBMIT would have got.
                Reply::BatchAck(outcomes) => {
                    let read: Vec<BatchOutcome> = lines
                        .iter()
                        .map(|l| match Reply::from_head(l).unwrap() {
                            Reply::Ok(id) => BatchOutcome::Ok(id.parse().unwrap()),
                            Reply::Err(reason) => BatchOutcome::Err(reason),
                            other => panic!("entry read as {other:?}"),
                        })
                        .collect();
                    assert_eq!(&read, outcomes);
                }
                _ => assert_eq!(Reply::from_head(lines[0]), Ok(reply.clone())),
            }
        }
    }

    #[test]
    fn the_frame_carries_the_line_codecs_text() {
        let reply = Reply::Block {
            head: "stats".to_string(),
            lines: vec!["jobs_queued 0".to_string()],
        };
        let (mut text, mut framed) = (Vec::new(), Vec::new());
        reply.encode(false, &mut text);
        reply.encode(true, &mut framed);
        assert_eq!(text, b"OK stats\njobs_queued 0\n.\n");
        assert_eq!(framed[4], OP_OK);
        assert_eq!(&framed[5..], &text[..text.len() - 1]);
        // A refusal the event loop spelled itself reads the same.
        for payload in [&b"ERR idle-timeout"[..], b"idle-timeout"] {
            let frame = Frame {
                opcode: OP_ERR,
                payload: payload.to_vec(),
            };
            assert_eq!(
                Reply::from_frame(&frame),
                Ok(Reply::Err("idle-timeout".to_string()))
            );
        }
    }

    #[test]
    fn unreadable_replies_are_errors_not_panics() {
        assert!(Reply::from_head("").is_err());
        assert!(Reply::from_head("HELLO").is_err());
        for (opcode, payload) in [
            (0x01, &b"PING"[..]),
            // The retired cluster-redirect opcode: no reply carries it.
            (0x84, b"1 127.0.0.1:7480"),
            (OP_BATCH_ACK, b"\xff\xff\xff\xff"),
            (OP_BATCH_ACK, b""),
        ] {
            let frame = Frame {
                opcode,
                payload: payload.to_vec(),
            };
            assert!(Reply::from_frame(&frame).is_err(), "{opcode:#04x}");
        }
    }

    #[test]
    fn busy_names_the_connection_cap_alone() {
        assert!(is_busy("busy max-connections"));
        assert!(!is_busy("queue-full"));
    }
}
