//! Lifecycle of the `nanopowerd serve` process a serve run measures:
//! spawn with default flags on a private socket, time until `health`
//! reports ready, read its counters, and end it with `shutdown`,
//! falling back to a kill.

use crate::wire::Conn;
use nanopower::proto::{Request, Response, StatsMsg};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned daemon may take to report ready.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a daemon may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon owned by the benchmark.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    /// Spawn until the first `health` reply with `ready: true`.
    pub setup: Duration,
}

impl Daemon {
    /// Spawns `nanopowerd serve --socket <socket>` with default flags
    /// and waits until it reports ready. Refuses to start if a live
    /// daemon already answers on `socket`, so no run inherits a warm
    /// memo or a stray process.
    pub fn spawn(bin: &Path, socket: &Path, log: &Path) -> Result<Daemon, String> {
        if UnixStream::connect(socket).is_ok() {
            return Err(format!(
                "a live daemon already answers on {}; refusing to start",
                socket.display()
            ));
        }
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
            setup: Duration::ZERO,
        };
        loop {
            if let Ok(mut conn) = Conn::connect(socket) {
                if let Ok(reply) = conn.call(&Request::Health.to_json()) {
                    if matches!(reply.terminal, Response::Health(h) if h.ready) {
                        daemon.setup = start.elapsed();
                        return Ok(daemon);
                    }
                }
            }
            if let Some(Ok(Some(status))) = daemon.child.as_mut().map(Child::try_wait) {
                return Err(format!(
                    "nanopowerd exited during start-up ({status}); see {}",
                    log.display()
                ));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err(format!(
                    "nanopowerd not ready after {READY_TIMEOUT:?}; see {}",
                    log.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's counters.
    pub fn stats(&self) -> Result<StatsMsg, String> {
        let reply = Conn::connect(&self.socket)?.call(&Request::Stats.to_json())?;
        match reply.terminal {
            Response::Stats(s) => Ok(s),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }

    /// The daemon's CPU seconds so far (see [`crate::context::cpu_s`]).
    pub fn cpu_s(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id().to_string();
        crate::context::cpu_s(&pid, false)
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        self.child.as_ref().and_then(|c| vm_hwm_mb(c.id()))
    }

    /// Ends the daemon with a `shutdown` request, killing it if it has
    /// not exited within [`EXIT_TIMEOUT`]. Returns whether it exited on
    /// its own.
    pub fn shutdown(mut self) -> bool {
        let asked = Conn::connect(&self.socket)
            .and_then(|mut c| c.call(&Request::Shutdown.to_json()))
            .is_ok_and(|r| matches!(r.terminal, Response::Shutdown));
        let Some(mut child) = self.child.take() else {
            return false;
        };
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while asked && Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
        let _ = std::fs::remove_file(&self.socket);
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// `VmHWM` of a live process, in MB (Linux `/proc`).
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
