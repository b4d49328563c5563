//! Wire bytes to messages, in either codec.
//!
//! A connection speaks newline-delimited text or length-prefixed frames
//! ([`crate::frame`]). The accepting side learns which from the peer's
//! first byte ([`Decoder::detect`]); the dialling side chose it
//! ([`Decoder::line`], [`Decoder::frames`]). The event loop, the client
//! and the load generator all read through [`Decoder`]: the one place
//! that splits a stream on `\n` or pulls frames off it.

use crate::frame::{Frame, FrameDecoder, FrameError, MAGIC_BYTE};

/// One decoded unit of a connection's byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// One line of the text codec, terminator (`\n` or `\r\n`) stripped,
    /// invalid UTF-8 replaced.
    Line(String),
    /// One frame of the binary codec.
    Frame(Frame),
}

enum Codec {
    /// No bytes seen yet; the first one picks the codec.
    Detect { max_line: usize, max_frame: usize },
    /// Newline-delimited text: `buf[pos..]` is not yet consumed.
    Line {
        buf: Vec<u8>,
        pos: usize,
        max: usize,
    },
    /// Length-prefixed frames.
    Frames(FrameDecoder),
}

impl Codec {
    fn line(max: usize) -> Self {
        Codec::Line {
            buf: Vec::new(),
            pos: 0,
            max,
        }
    }
}

/// Incremental decoder of one connection's incoming bytes: feed it with
/// [`Decoder::extend`], pull with [`Decoder::next_message`] until
/// `Ok(None)` (more bytes needed). An error is final — close.
pub struct Decoder(Codec);

impl Decoder {
    /// The accepting side: the first byte decides for good —
    /// [`MAGIC_BYTE`] opens the binary preamble, anything else a line.
    pub fn detect(max_line_bytes: usize, max_frame_payload: usize) -> Self {
        Self(Codec::Detect {
            max_line: max_line_bytes,
            max_frame: max_frame_payload,
        })
    }

    /// The dialling side of the text codec.
    pub fn line(max_line_bytes: usize) -> Self {
        Self(Codec::line(max_line_bytes))
    }

    /// The dialling side of the binary codec: the preamble is what this
    /// side *sent*; what comes back is frames from the first byte on.
    pub fn frames(max_frame_payload: usize) -> Self {
        Self(Codec::Frames(FrameDecoder::new_after_preamble(
            max_frame_payload,
        )))
    }

    /// Whether the binary codec is spoken (`false` while undetected).
    pub fn is_binary(&self) -> bool {
        matches!(self.0, Codec::Frames(_))
    }

    /// Bytes buffered but not yet returned as messages.
    pub fn buffered(&self) -> usize {
        match &self.0 {
            Codec::Detect { .. } => 0,
            Codec::Line { buf, pos, .. } => buf.len() - pos,
            Codec::Frames(dec) => dec.pending_bytes(),
        }
    }

    /// Feed more bytes from the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        if let (
            Codec::Detect {
                max_line,
                max_frame,
            },
            Some(&first),
        ) = (&self.0, bytes.first())
        {
            self.0 = if first == MAGIC_BYTE {
                Codec::Frames(FrameDecoder::new(*max_frame))
            } else {
                Codec::line(*max_line)
            };
        }
        match &mut self.0 {
            Codec::Detect { .. } => {}
            Codec::Line { buf, pos, .. } => {
                // Reclaim what was consumed: the buffer then holds at
                // most one partial line plus this read.
                buf.drain(..*pos);
                *pos = 0;
                buf.extend_from_slice(bytes);
            }
            Codec::Frames(dec) => dec.extend(bytes),
        }
    }

    /// Try to decode the next complete message.
    ///
    /// # Errors
    /// A [`FrameError`] of the binary codec, or
    /// [`FrameError::LineTooLong`] once more than the line cap is
    /// buffered with no terminator in sight.
    pub fn next_message(&mut self) -> Result<Option<Message>, FrameError> {
        match &mut self.0 {
            Codec::Detect { .. } => Ok(None),
            Codec::Frames(dec) => Ok(dec.next_frame()?.map(Message::Frame)),
            Codec::Line { buf, pos, max } => {
                let rest = &buf[*pos..];
                let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                    if rest.len() > *max {
                        return Err(FrameError::LineTooLong { max: *max });
                    }
                    return Ok(None);
                };
                let line = rest[..nl].strip_suffix(b"\r").unwrap_or(&rest[..nl]);
                let line = String::from_utf8_lossy(line).into_owned();
                *pos += nl + 1;
                Ok(Some(Message::Line(line)))
            }
        }
    }
}
