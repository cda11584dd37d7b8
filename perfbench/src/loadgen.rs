//! The load generator: one process, at most one thread per connection,
//! driving requests either on a schedule (open loop) or back to back
//! (closed loop).
//!
//! Workers share one queue of requests in index order; a free worker
//! takes the next request, waits until it is due, and sends it on its
//! own connection. In the open loop each request is timed from the
//! moment it was due — not from when it was sent — so a stall that
//! delays later requests shows up in their latency, and the gap
//! between due and sent is reported as generator lateness. The closed
//! loop is the same machinery with every request due at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One driven request.
#[derive(Debug, Clone)]
pub struct Timed<O> {
    /// Index into the request list.
    pub index: usize,
    /// When the request was due, since the phase started.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its last reply line arrived.
    pub done: Duration,
    pub outcome: O,
}

impl<O> Timed<O> {
    /// Latency timed from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Time from send to last reply line, in ms.
    pub fn service_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }
}

/// The result of one phase.
#[derive(Debug)]
pub struct Phase<O> {
    /// Every request, in index order.
    pub samples: Vec<Timed<O>>,
}

impl<O> Phase<O> {
    /// First send to last reply: the makespan of a closed loop.
    pub fn makespan(&self) -> Duration {
        let first = self
            .samples
            .iter()
            .map(|t| t.sent)
            .min()
            .unwrap_or_default();
        let last = self
            .samples
            .iter()
            .map(|t| t.done)
            .max()
            .unwrap_or_default();
        last.saturating_sub(first)
    }
}

/// Drives `due.len()` requests over `conns` (one worker thread per
/// connection; the calling thread is worker 0). `exec(conn, index)`
/// sends request `index` and returns its outcome.
pub fn drive<C, O, F>(conns: Vec<C>, due: &[Duration], exec: F) -> Phase<O>
where
    C: Send,
    O: Send,
    F: Fn(&mut C, usize) -> O + Sync,
{
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Timed<O>>> = Mutex::new(Vec::with_capacity(due.len()));
    let start = Instant::now();
    let worker = |mut conn: C| {
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(&due_at) = due.get(index) else {
                break;
            };
            let now = start.elapsed();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let sent = start.elapsed();
            let outcome = exec(&mut conn, index);
            let done = start.elapsed();
            local.push(Timed {
                index,
                due: due_at,
                sent,
                done,
                outcome,
            });
        }
        results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(local);
    };
    let mut conns = conns.into_iter();
    let first = conns.next();
    std::thread::scope(|scope| {
        for (k, conn) in conns.enumerate() {
            let worker = &worker;
            std::thread::Builder::new()
                .name(format!("loadgen-{}", k + 1))
                .spawn_scoped(scope, move || worker(conn))
                .expect("spawning a load-generator thread");
        }
        if let Some(conn) = first {
            worker(conn);
        }
    });
    let mut samples = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    samples.sort_by_key(|t| t.index);
    Phase { samples }
}

/// Due times for `n` requests at a fixed `rate_per_s`; entries listed in
/// `paired` share the due time of the entry before them (so two
/// connections send them together).
pub fn fixed_rate(n: usize, rate_per_s: f64, paired: &[bool]) -> Vec<Duration> {
    let gap = 1.0 / rate_per_s;
    let mut due = Vec::with_capacity(n);
    let mut slot = 0usize;
    for i in 0..n {
        if i > 0 && !paired.get(i).copied().unwrap_or(false) {
            slot += 1;
        }
        due.push(Duration::from_secs_f64(slot as f64 * gap));
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Conn;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    /// A synthetic `nanopowerd/v1` server on one end of a socket pair:
    /// greets, then answers each request line with an empty report —
    /// after stalling `stall` on the first request only.
    fn stalled_server(stream: UnixStream, stall: Duration) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut writer = stream.try_clone().expect("clone server stream");
            writeln!(writer, "{{\"hello\": \"nanopowerd/v1\", \"artifacts\": 0}}")
                .expect("write hello");
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                if line.is_err() {
                    break;
                }
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                let report = "{\"report\": {\"ok\": 0, \"failures\": 0, \"cancelled\": 0, \
                              \"memo_hits\": 0, \"total_ms\": 0.001, \"interrupted\": false}}";
                if writeln!(writer, "{report}").is_err() {
                    break;
                }
            }
        })
    }

    #[test]
    fn stalled_server_makes_queued_requests_accrue_lateness() {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let stall = Duration::from_millis(300);
        let handle = stalled_server(server, stall);
        let conn = Conn::from_stream(client).expect("hello");
        // 11 requests due every 20 ms: all but the first fall due while
        // the server is stalled on the first.
        let due = fixed_rate(11, 50.0, &[]);
        let phase = drive(vec![conn], &due, |c: &mut Conn, _| {
            c.call("{\"stats\": {}}").is_ok()
        });
        assert!(phase.samples.iter().all(|s| s.outcome));
        let stall_ms = stall.as_secs_f64() * 1e3;
        for s in &phase.samples[1..] {
            let due_ms = s.due.as_secs_f64() * 1e3;
            // Sent only once the stall cleared, so late by about
            // (stall - due); its latency counts that wait.
            assert!(
                s.late_ms() >= stall_ms - due_ms - 5.0,
                "request {} due at {due_ms} ms was only {} ms late",
                s.index,
                s.late_ms()
            );
            assert!(s.latency_ms() >= s.late_ms());
            // Timed from send instead, the stall would vanish.
            assert!(s.service_ms() < s.latency_ms());
        }
        // Lateness decreases along the queue: each request was due 20 ms
        // after the one before, and all were sent back to back.
        let late: Vec<f64> = phase.samples[1..].iter().map(Timed::late_ms).collect();
        assert!(late.windows(2).all(|w| w[0] > w[1]), "{late:?}");
        drop(phase);
        handle.join().expect("server thread");
    }

    #[test]
    fn healthy_server_keeps_latency_near_service_time() {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let handle = stalled_server(server, Duration::ZERO);
        let conn = Conn::from_stream(client).expect("hello");
        let due = fixed_rate(20, 200.0, &[]);
        let phase = drive(vec![conn], &due, |c: &mut Conn, _| {
            c.call("{\"stats\": {}}").is_ok()
        });
        let worst_late = phase.samples.iter().map(Timed::late_ms).fold(0.0, f64::max);
        assert!(worst_late < 4.0, "idle generator ran {worst_late} ms late");
        drop(phase);
        handle.join().expect("server thread");
    }

    #[test]
    fn makespan_runs_from_first_send_to_last_reply() {
        let ms = Duration::from_millis;
        let timed = |sent, done| Timed {
            index: 0,
            due: Duration::ZERO,
            sent: ms(sent),
            done: ms(done),
            outcome: (),
        };
        let phase = Phase {
            samples: vec![timed(2, 9), timed(1, 5), timed(6, 7)],
        };
        assert_eq!(phase.makespan(), ms(8));
    }

    #[test]
    fn paired_entries_share_a_due_time() {
        let due = fixed_rate(4, 10.0, &[false, false, true, false]);
        assert_eq!(due[1], due[2]);
        assert!(due[3] > due[2]);
    }
}
