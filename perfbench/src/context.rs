//! The context every result is stamped with: host, toolchain, commit,
//! seed, load at start, and whether tracing was on.

use std::process::Command;

/// Worker threads / connections the benchmark uses: the host's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The commit being measured: `git rev-parse HEAD` where the checkout
/// is a repository, `unknown` where it is a plain export.
fn git_commit() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// The 1-minute load average at start (Linux `/proc/loadavg`).
fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Cumulative `(steal, total)` CPU ticks of the host (Linux
/// `/proc/stat`): time the hypervisor gave this machine's CPUs to
/// someone else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (Linux's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU seconds from `/proc/<pid>/stat` (`pid` may be `self`): the
/// process's own user + system time with `children: false`, that of
/// its waited-for children with `children: true`. The kernel leaves
/// out time the hypervisor stole, and a thread blocked at a barrier
/// or on a socket uses none.
pub fn cpu_s(pid: &str, children: bool) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, from field 3 (state).
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    // utime, stime are fields 14 and 15; cutime, cstime 16 and 17.
    let first = if children { 13 } else { 11 };
    let ticks: u64 = fields
        .get(first..first + 2)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    Some(ticks as f64 / USER_HZ)
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_between(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The run's context as one JSON object.
pub fn json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {}, \"os\": {}, \"arch\": {}, \"git_commit\": {}, \"rustc\": {}, \
         \"loadavg_1m\": {}}}",
        crate::json::escape(workload),
        nproc(),
        crate::json::escape(std::env::consts::OS),
        crate::json::escape(std::env::consts::ARCH),
        crate::json::escape(&git_commit()),
        crate::json::escape(&rustc),
        loadavg_1m().map_or("null".to_string(), |l| l.to_string()),
    )
}
