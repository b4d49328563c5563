//! The wire protocol, independent of sockets: what can be asked
//! ([`Request`]), what can be answered ([`Reply`]), and how both are
//! spelled in the two codecs the daemon speaks.
//!
//! A request reaches the daemon as lines of UTF-8 text (`ADDTOPO` is
//! followed by a counted block of raw topology-format lines) or as
//! binary frames carrying the same text (`OP_REQ`) or a batch of job
//! specs (`OP_SUBMIT_BATCH`); an [`Assembler`] makes whole [`Request`]s
//! of either. A reply starts with `OK`, `ERR` or `MOVED`; multi-line
//! replies (`RESULT`, `STATS`, …) end with a line containing a single
//! `.`. [`Reply`] is the only code that knows how a reply is spelled in
//! either codec, in both directions. The full grammar is documented in
//! `docs/protocol.md`.
//!
//! * `spec` — [`TopoRef`], [`JobKind`], [`JobSpec`]: the `SUBMIT`
//!   argument grammar, its wire limits, and [`JobSpec::from_wire`], the
//!   single door for a job off the wire ([`parse_job_spec`] is the
//!   unchecked door for records the daemon logged itself);
//! * `request` — [`Request`], [`parse_request`], [`Assembler`];
//! * `reply` — [`Reply`] and the redirect spellings.

mod reply;
mod request;
mod spec;

pub use reply::{format_moved, format_moved_entry, is_busy, parse_moved, parse_moved_entry, Reply};
pub use request::{format_fault, parse_request, Assembler, Fed, Request};
pub use spec::{
    format_fingerprint, format_job_spec, format_topo_ref, parse_fingerprint, parse_job_spec,
    JobKind, JobSpec, TopoRef, MAX_WIRE_FANOUT, MAX_WIRE_POINTS, MAX_WIRE_SWITCHES,
};
