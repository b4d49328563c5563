//! Remote arms: everything said to a running daemon. A job reaches it
//! one way — [`job`], under `schedule --server`, `sweep --server` and
//! `submit` — as a [`JobSpec`] spelled by `format_job_spec`; a network
//! reaches it as a [`TopoRef`], a file being uploaded first.

use super::{Faults, Network, RemoteJob};
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
