//! Lifecycle of the `commsched serve` process under test: spawn on an
//! ephemeral port with a fresh state directory, read the address it
//! prints, shut it down, and never leak it.

use commsched_service::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Flags every benchmark daemon runs with (`--cache-cap` is
/// `workload::CACHE_ENTRIES`); everything else is the program's default
/// (`fsync=on-ack`, `search_seeds=4`).
pub const SERVE_FLAGS: [&str; 8] = [
    "--addr",
    "127.0.0.1:0",
    "--workers",
    "2",
    "--queue-cap",
    "64",
    "--cache-cap",
    "8",
];

/// The line the daemon prints once its socket is bound.
const LISTENING: &str = "commsched-service listening on ";

static NEXT_STATE_DIR: AtomicU64 = AtomicU64::new(0);

/// A running daemon. Dropping it kills the process (if `shutdown` did
/// not already reap it) and removes its state directory, so a harness
/// panic cannot leave a `commsched serve` behind.
pub struct Daemon {
    child: Mutex<Child>,
    /// Held so the daemon's farewell line has an open pipe to go to.
    stdout: BufReader<ChildStdout>,
    addr: String,
    pid: u32,
    state_dir: PathBuf,
}

impl Daemon {
    /// Spawn `bin serve` with [`SERVE_FLAGS`] and a fresh state
    /// directory under `scratch`; wait for the listening line.
    ///
    /// # Errors
    /// The binary cannot be spawned, or exits / closes stdout before
    /// announcing its address.
    pub fn spawn(bin: &Path, scratch: &Path) -> Result<Self, String> {
        let state_dir = scratch.join(format!(
            "state-{}-{}",
            std::process::id(),
            NEXT_STATE_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .args(SERVE_FLAGS)
            .arg("--state-dir")
            .arg(&state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the guard owns the child: any early return kills it.
        let mut daemon = Self {
            child: Mutex::new(child),
            stdout: BufReader::new(stdout),
            addr: String::new(),
            pid,
            state_dir,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon stdout: {e}"))?;
            if n == 0 {
                return Err("daemon exited before printing its address".into());
            }
            if let Some(addr) = line.trim_end().strip_prefix(LISTENING) {
                daemon.addr = addr.to_string();
                break;
            }
        }
        Ok(daemon)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the process is still running.
    pub fn alive(&self) -> bool {
        matches!(self.child.lock().expect("child lock").try_wait(), Ok(None))
    }

    /// Kill the process now. Connections to it fail from here on, which
    /// is how a stalled window is turned into failures instead of a hang.
    pub fn kill(&self) {
        let mut child = self.child.lock().expect("child lock");
        let _ = child.kill();
        let _ = child.wait();
    }

    /// Peak resident set of the daemon in MB (`VmHWM` of
    /// `/proc/<pid>/status`), `None` once the process is gone.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
    }

    /// Bytes under the state directory (WAL + snapshot), in MB.
    pub fn state_mb(&self) -> Option<f64> {
        let mut total = 0u64;
        for entry in std::fs::read_dir(&self.state_dir).ok()? {
            total += entry.ok()?.metadata().ok()?.len();
        }
        Some(total as f64 / (1024.0 * 1024.0))
    }

    /// `SHUTDOWN`, then wait for the process to exit; kill it if it has
    /// not gone within ten seconds.
    ///
    /// # Errors
    /// The daemon refused the shutdown, had to be killed, or exited
    /// with a failure status.
    pub fn shutdown(self) -> Result<(), String> {
        let asked = Client::connect(self.addr.as_str())
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("SHUTDOWN: {e}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.lock().expect("child lock").try_wait() {
                Ok(Some(status)) => {
                    asked?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {}
                Ok(None) => return Err("daemon did not exit within 10 s of SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills a survivor and removes the state directory.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut child) = self.child.lock() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_proc_status_text() {
        let status = "Name:\tcommsched\nVmPeak:\t  200 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn a_binary_that_never_listens_is_an_error_not_a_hang() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test");
        let err = Daemon::spawn(Path::new("/bin/true"), &scratch)
            .err()
            .unwrap();
        assert!(err.contains("before printing its address"), "{err}");
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
