//! In-memory span recorder for the traced run.
//!
//! Spans are opened only by this benchmark's own code, around each call
//! it makes into a layer (crate); nothing inside the program is traced.
//! A span's layer is its name up to the first `.` (`linalg.gram` belongs
//! to `linalg`). Spans are kept in memory and written out once, at the
//! end of the run.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are seconds since the recorder was created.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Recorder {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_id: usize,
}

impl Recorder {
    pub fn new(run_id: String) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 0,
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s value and the span's seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        (out, end - start)
    }

    /// Record a span timed elsewhere (a simulated rank's thread, which
    /// cannot hold the recorder), nested under the innermost open span.
    /// Returns its seconds.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> f64 {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let span = Span {
            id: self.next_id,
            parent: self.open.last().copied(),
            name,
            start: at(start),
            end: at(end),
        };
        self.next_id += 1;
        let seconds = span.seconds();
        self.spans.push(span);
        seconds
    }

    /// Per-layer `(layer, spans, total seconds, self seconds)`, sorted
    /// by layer name. Self time is a span's duration minus the time its
    /// direct children cover.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_time = vec![0.0; self.next_id];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.seconds();
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let own = (s.seconds() - child_time[s.id]).max(0.0);
            match rows.iter_mut().find(|r| r.0 == s.layer()) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.seconds();
                    r.3 += own;
                }
                None => rows.push((s.layer(), 1, s.seconds(), own)),
            }
        }
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// The spans as JSON lines, in closing order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                self.run_id, s.id, parent, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut rec = Recorder::new("t".into());
        let ((), outer) = rec.span("core.outer", |rec| {
            rec.span("linalg.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let rows = rec.self_time_by_layer();
        assert_eq!(rows.len(), 2);
        let core = rows.iter().find(|r| r.0 == "core").unwrap();
        let linalg = rows.iter().find(|r| r.0 == "linalg").unwrap();
        assert!((core.2 - outer).abs() < 1e-12);
        assert!(core.3 < core.2 && linalg.3 >= 0.005);
        assert!(rec.to_jsonl().contains("\"parent\":0"));
    }
}
