//! Remote arms: everything said to a running daemon. A job reaches it
//! one way — [`job`], under `schedule --server`, `sweep --server` and
//! `submit` — as a [`JobSpec`] spelled by `format_job_spec`; a network
//! reaches it as a [`TopoRef`], a file being uploaded first.

use super::{Faults, Network, RemoteJob};
use commsched_scenarios::JobArrival;
use commsched_service::loadgen::{self, LoadgenConfig};
use commsched_service::protocol::{format_fault, format_job_spec};
use commsched_service::{Client, JobSpec, TopoRef};
use std::time::Duration;

fn connect(server: &str) -> Result<Client, String> {
    Client::connect(server).map_err(|e| format!("cannot reach server '{server}': {e}"))
}

/// A reply block as the text to print.
fn lines(block: Vec<String>) -> String {
    block.into_iter().map(|l| l + "\n").collect()
}

impl Network {
    /// How a request names this network: a builtin spelling as it is, a
    /// file uploaded over `client` first and named by its fingerprint.
    fn reference(&self, client: &mut Client) -> Result<TopoRef, String> {
        match self {
            Network::Named(topo) => Ok(*topo),
            Network::File(_) => client
                .add_topology(&self.build()?)
                .map(TopoRef::Registered)
                .map_err(|e| e.to_string()),
        }
    }
}

/// Send the job to the daemon; print its id, or when `wait` is set wait
/// for it and print its result.
pub(super) fn job(cmd: &RemoteJob) -> Result<String, String> {
    let mut client = connect(&cmd.server)?;
    let spec = JobSpec {
        topo: cmd.network.reference(&mut client)?,
        ..cmd.job
    };
    let id = client
        .submit_raw(&format_job_spec(&spec))
        .map_err(|e| e.to_string())?;
    if !cmd.wait {
        return Ok(format!("job {id}\n"));
    }
    let state = client
        .wait(id, Duration::from_millis(50))
        .map_err(|e| e.to_string())?;
    if state != "done" {
        return Err(format!("job {id} ended {state}"));
    }
    client.result(id).map(lines).map_err(|e| e.to_string())
}

pub(super) fn status(server: &str, job: u64) -> Result<String, String> {
    let state = connect(server)?.status(job).map_err(|e| e.to_string())?;
    Ok(format!("job {job}: {state}\n"))
}

pub(super) fn metrics(server: &str) -> Result<String, String> {
    connect(server)?
        .metrics()
        .map(lines)
        .map_err(|e| e.to_string())
}

pub(super) fn faults(cmd: &Faults) -> Result<String, String> {
    let mut client = connect(&cmd.server)?;
    let topo = cmd.target.reference(&mut client)?;
    client
        .fault_raw(&format_fault(&topo, &cmd.event))
        .map(lines)
        .map_err(|e| e.to_string())
}

pub(super) fn loadgen(
    server: &str,
    config: &LoadgenConfig,
    out: Option<&str>,
) -> Result<String, String> {
    let json = loadgen::run(server, config)?.to_json();
    if let Some(path) = out {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
    }
    Ok(format!("{json}\n"))
}

/// Mirror a scenario trace to a live daemon: every arrival becomes a
/// real `NOOP` submission carrying its memory demand and (relative)
/// deadline, batched over one connection, then awaited. Returns how
/// many ran to `done`.
pub(super) fn mirror(server: &str, trace: &[JobArrival]) -> Result<u64, String> {
    let mut client = connect(server)?;
    let specs: Vec<String> = trace
        .iter()
        .map(|a| {
            format_job_spec(&JobSpec {
                deadline_ms: a
                    .deadline_us
                    .map(|d| d.saturating_sub(a.t_us).div_ceil(1000).max(1)),
                mem: a.total_mem(),
                ..JobSpec::default()
            })
        })
        .collect();
    let acks = client.submit_batch(&specs).map_err(|e| e.to_string())?;
    let mut done = 0u64;
    for ack in acks {
        let id = ack.map_err(|e| format!("daemon rejected mirrored job: {e}"))?;
        let state = client
            .wait(id, Duration::from_millis(5))
            .map_err(|e| e.to_string())?;
        if state == "done" {
            done += 1;
        }
    }
    Ok(done)
}
