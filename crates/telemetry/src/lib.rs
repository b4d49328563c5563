#![warn(missing_docs)]

//! Zero-dependency observability for the commsched workspace.
//!
//! Long-running deployments of commsched (the `commsched serve` daemon,
//! sweep harnesses, perf baselines) need to answer "where did the time
//! go" without ad-hoc `Instant::now()` scaffolding. This crate provides
//! the three layers production schedulers rely on, hand-rolled on
//! `std::sync::atomic` like the rest of the workspace (no crates.io
//! dependencies):
//!
//! * [`metrics`] — a [`Registry`] of named [`Counter`]s (sharded across
//!   cache-line-padded atomic cells), [`Gauge`]s, and log-bucketed
//!   [`Histo`]grams (one zero bucket plus four linear sub-buckets per
//!   power of two). Every handle is a cheap `Arc` clone; a *disabled*
//!   metric costs exactly one relaxed atomic load on the hot path.
//! * [`trace`] — lightweight span/event tracing into per-thread ring
//!   buffers, exported as JSON lines ([`trace::export_jsonl`]). Tracing
//!   is off by default; a disarmed span is one relaxed load.
//! * exposition — [`Registry::render_prometheus`] dumps every metric in
//!   the Prometheus text format, which the service protocol's `METRICS`
//!   request and the `commsched metrics` CLI arm forward verbatim.
//! * [`pool`] — the deterministic worker pool ([`pool::run_indexed`]),
//!   here at the bottom of the workspace so the search and the simulator
//!   share it and its one-pool-level assertion.
//!
//! The [`global()`] registry serves library kernels (distance builds,
//! tabu search, the network simulator) that cannot thread a registry
//! handle through their signatures; components with their own lifetime
//! (one [`Registry`] per daemon core) create private registries so tests
//! never share counters.

mod buckets;
pub mod metrics;
pub mod pool;
pub mod trace;

pub use metrics::{global, set_enabled, Counter, Gauge, Histo, Registry};
pub use trace::{set_tracing, tracing_enabled, Span, TraceEvent, TracePhase};
