//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span is recorded by the benchmark's own code, never inside the
//! program: `tracer.span("cube.pass", || cube_pass(..))`. Spans nest
//! per thread (the innermost open span on the calling thread is the
//! parent), are kept in memory, and are written out once the run ends.
//! When the tracer is off, [`Tracer::span`] is a single branch.

use crate::stats;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recorded on the thread that drives the workload (the one whose
    /// coverage defines `trace.unattributed_share`).
    pub main: bool,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder for one run.
pub struct Tracer {
    on: bool,
    run_id: String,
    origin: Instant,
    main: ThreadId,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// One layer's row of the ledger.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: usize,
    /// Total self time: span time not covered by child spans.
    pub self_s: f64,
    /// `self_s` over the traced window's wall time.
    pub share: f64,
    /// Median self time per call.
    pub self_p50_s: f64,
    /// Median and p90 of the whole span duration per call (p90 only
    /// when the sample supports it).
    pub p50_s: f64,
    pub p90_s: Option<f64>,
}

/// The per-layer ledger of one traced window.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub rows: Vec<LayerRow>,
    pub window_s: f64,
    /// Share of the window no root span on the driving thread covers.
    pub unattributed_share: f64,
}

impl Ledger {
    pub fn row(&self, name: &str) -> Option<&LayerRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Median self seconds per call of `name`; 0 when the layer never ran.
    pub fn self_p50_s(&self, name: &str) -> f64 {
        self.row(name).map_or(0.0, |r| r.self_p50_s)
    }

    /// Human-readable table, one layer per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>7} {:>10} {:>7} {:>11} {:>11}\n",
            "layer", "calls", "self_s", "share", "p50_ms", "p90_ms"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>7} {:>10.4} {:>6.1}% {:>11.3} {:>11}\n",
                r.name,
                r.calls,
                r.self_s,
                100.0 * r.share,
                1e3 * r.p50_s,
                r.p90_s
                    .map_or("-".to_string(), |v| format!("{:.3}", 1e3 * v)),
            ));
        }
        out.push_str(&format!(
            "window {:.3} s, unattributed {:.2}%\n",
            self.window_s,
            100.0 * self.unattributed_share
        ));
        out
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, String::new())
    }

    /// A recording tracer; `run_id` tags every span it writes out.
    pub fn on(run_id: String) -> Tracer {
        Tracer::new(true, run_id)
    }

    fn new(on: bool, run_id: String) -> Tracer {
        Tracer {
            on,
            run_id,
            origin: Instant::now(),
            main: std::thread::current().id(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            main: self.is_main(),
        });
        out
    }

    /// Record a root span timed elsewhere, e.g. an HTTP request the
    /// load generator's receiver saw answered.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.push(SpanRec {
            id,
            parent: 0,
            name,
            start_ns,
            end_ns,
            main: self.is_main(),
        });
    }

    fn is_main(&self) -> bool {
        std::thread::current().id() == self.main
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("span store poisoned").push(rec);
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The ledger of the window `[from_ns, to_ns)`.
    pub fn ledger(&self, from_ns: u64, to_ns: u64) -> Ledger {
        ledger_of(&self.spans(), from_ns, to_ns)
    }

    /// Write every span (one JSON object per line) and the ledger.
    pub fn write(&self, path: &Path, ledger: &Ledger) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"main\":{}}}",
                self.run_id, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.main
            )?;
        }
        for r in &ledger.rows {
            writeln!(
                out,
                "{{\"run\":\"{}\",\"layer\":\"{}\",\"calls\":{},\"self_s\":{},\"share\":{},\"p50_s\":{},\"p90_s\":{}}}",
                self.run_id,
                r.name,
                r.calls,
                r.self_s,
                r.share,
                r.p50_s,
                r.p90_s.map_or("null".to_string(), |v| v.to_string())
            )?;
        }
        writeln!(
            out,
            "{{\"run\":\"{}\",\"window_s\":{},\"unattributed_share\":{}}}",
            self.run_id, ledger.window_s, ledger.unattributed_share
        )?;
        out.flush()
    }
}

/// Ledger over the spans that start inside `[from_ns, to_ns)`.
pub fn ledger_of(spans: &[SpanRec], from_ns: u64, to_ns: u64) -> Ledger {
    let inside: Vec<&SpanRec> = spans
        .iter()
        .filter(|s| s.start_ns >= from_ns && s.start_ns < to_ns)
        .collect();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &inside {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let window_ns = to_ns.saturating_sub(from_ns).max(1);
    let mut by_layer: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut covered_ns = 0u64;
    for s in &inside {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let (selfs, durs) = by_layer.entry(s.name).or_default();
        selfs.push(own as f64 * 1e-9);
        durs.push(s.dur_ns() as f64 * 1e-9);
        if s.main && s.parent == 0 {
            // Root spans on one thread never overlap.
            covered_ns += s.end_ns.min(to_ns) - s.start_ns;
        }
    }
    let window_s = window_ns as f64 * 1e-9;
    let rows = by_layer
        .into_iter()
        .map(|(name, (selfs, durs))| {
            let self_s: f64 = selfs.iter().sum();
            LayerRow {
                name,
                calls: selfs.len(),
                self_s,
                share: self_s / window_s,
                self_p50_s: stats::median(&selfs).unwrap_or(0.0),
                p50_s: stats::median(&durs).unwrap_or(0.0),
                p90_s: stats::percentile(&durs, 0.9),
            }
        })
        .collect();
    Ledger {
        rows,
        window_s,
        unattributed_share: 1.0 - (covered_ns.min(window_ns) as f64 / window_ns as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            main: true,
        }
    }

    #[test]
    fn self_time_excludes_children_and_gaps_are_unattributed() {
        let spans = [
            rec(1, 0, "outer", 0, 600),
            rec(2, 1, "inner", 100, 300),
            rec(3, 1, "inner", 300, 400),
            rec(4, 0, "later", 800, 900),
        ];
        let l = ledger_of(&spans, 0, 1000);
        let row = |n: &str| l.rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("outer").calls, 1);
        assert!((row("outer").self_s - 300e-9).abs() < 1e-15);
        assert_eq!(row("inner").calls, 2);
        assert!((row("inner").self_s - 300e-9).abs() < 1e-15);
        // 0..600 and 800..900 covered: 300 of 1000 ns unattributed.
        assert!((l.unattributed_share - 0.3).abs() < 1e-12);
        assert_eq!(l.self_p50_s("absent"), 0.0);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::on("t".into());
        t.span("a", || t.span("b", || ()));
        std::thread::scope(|s| {
            s.spawn(|| t.span("c", || ()));
        });
        let spans = t.spans();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        let c = spans.iter().find(|s| s.name == "c").unwrap();
        assert_eq!(b.parent, a.id);
        assert_eq!(a.parent, 0);
        assert!(a.main && !c.main);
        assert_eq!(c.parent, 0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
