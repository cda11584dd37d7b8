//! The benchmark's own spans, recorded around calls into each layer's
//! public functions during a traced run.
//!
//! A span has a name, a start, an end, the id of the span that caused it
//! (its parent) and the id of the request it belongs to. Spans are kept
//! in memory and written out once, when the run ends. A disabled
//! [`Tracer`] records nothing, so the untraced runs that produce the
//! end-to-end numbers pay only an `Option` check.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub thread: String,
    pub start: Instant,
    pub end: Instant,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Inner {
    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        request: u64,
        name: String,
        start: Instant,
        end: Instant,
    ) {
        let thread = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(SpanRec {
                id,
                parent,
                request,
                name,
                thread,
                start,
                end,
            });
    }
}

/// A cheaply clonable span sink; [`Tracer::off`] records nothing.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    pub fn on() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Opens a span that closes (and is recorded) when the guard drops.
    pub fn span(&self, name: &str, parent: Option<u64>, request: u64) -> SpanGuard {
        let id = self
            .inner
            .as_ref()
            .map(|inner| inner.next_id.fetch_add(1, Ordering::Relaxed));
        SpanGuard {
            tracer: self.clone(),
            id,
            parent,
            request,
            name: id.map(|_| name.to_string()).unwrap_or_default(),
            start: Instant::now(),
        }
    }

    /// Records an already-measured interval as a span; returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.push(id, parent, request, name.to_string(), start, end);
        Some(id)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.inner
            .as_ref()
            .map(|inner| {
                inner
                    .spans
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
            })
            .unwrap_or_default()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::ms)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its children cover (children on other threads may overlap, so
    /// their union is subtracted). Returns `(name, count, total_ms,
    /// self_ms)` sorted by self time, largest first.
    pub fn self_times(&self) -> Vec<(String, usize, f64, f64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort();
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += (b - a).as_secs_f64() * 1e3;
                    cursor = b;
                }
            }
            let entry = by_name.entry(&s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ms();
            entry.2 += s.ms() - covered;
        }
        let mut out: Vec<_> = by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name.to_string(), n, total, own))
            .collect();
        out.sort_by(|a, b| b.3.total_cmp(&a.3));
        out
    }

    /// The spans as one JSON document (times in µs since the tracer
    /// was created), preceded by the run's context object.
    pub fn to_json(&self, context_json: &str) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let us = |t: Instant| t.saturating_duration_since(inner.epoch).as_secs_f64() * 1e6;
        let mut out = format!("{{\"context\": {context_json},\n\"spans\": [\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": {}, \"thread\": {}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}{}\n",
                s.id,
                s.request,
                crate::json::escape(&s.name),
                crate::json::escape(&s.thread),
                us(s.start),
                us(s.end),
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// An open span; recorded when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    id: Option<u64>,
    parent: Option<u64>,
    request: u64,
    name: String,
    start: Instant,
}

impl SpanGuard {
    /// This span's id, to pass as the parent of its children.
    pub fn id(&self) -> Option<u64> {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(inner), Some(id)) = (&self.tracer.inner, self.id) {
            let name = std::mem::take(&mut self.name);
            inner.push(
                id,
                self.parent,
                self.request,
                name,
                self.start,
                Instant::now(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::on();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", None, 1, at(0), at(100));
        t.record("child", root, 1, at(10), at(40));
        // Overlapping children (two threads) are subtracted as a union.
        t.record("child", root, 1, at(30), at(60));
        let rows = t.self_times();
        let root_row = rows.iter().find(|r| r.0 == "root").expect("root row");
        assert_eq!(root_row.1, 1);
        assert!((root_row.2 - 100.0).abs() < 1e-6);
        assert!((root_row.3 - 50.0).abs() < 1e-6, "{root_row:?}");
        let child = rows.iter().find(|r| r.0 == "child").expect("child row");
        assert_eq!(child.1, 2);
        assert!((child.3 - 60.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        {
            let g = t.span("x", None, 0);
            assert_eq!(g.id(), None);
        }
        assert!(t.spans().is_empty());
        assert!(t.to_json("{}").is_empty());
    }
}
