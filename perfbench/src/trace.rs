//! In-memory span recording for the traced run, and the per-layer
//! self-time table built from the spans.
//!
//! A span has a name, start, end, parent span and job id. Its layer is
//! the name up to the first `.`; root spans (parent 0) are the
//! end-to-end operations a workload times, named `op.*`. Within one
//! root, the benchmark records child spans back to back on the root's
//! timeline, so a layer's self time (its spans' durations minus the
//! parts their children cover) summed over layers, plus the roots' own
//! self time, equals the summed root durations. The roots' own self
//! time is the unexplained remainder.
//!
//! Spans are kept in memory while the run measures and written out as
//! a tab-separated file when it ends; [`table`] turns that file back
//! into the per-layer table (`tass-perfbench report FILE`).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent id; 0 for a root.
    pub parent: u64,
    /// The job the span belongs to (workload-defined; 0 when none).
    pub job: u64,
    /// `layer.what`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// (parent span, job) that spans recorded on this thread attach to.
    static CTX: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

/// A fresh span id, for a parent whose children are recorded before it
/// ends. Returns 0 while tracing is off.
pub fn new_id() -> u64 {
    if enabled() {
        tracer().next.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Record a finished span under a pre-allocated `id` (0 allocates one).
pub fn record_as(id: u64, name: &str, parent: u64, job: u64, start: Instant, end: Instant) {
    let t = tracer();
    if !t.on.load(Ordering::Relaxed) {
        return;
    }
    let id = if id == 0 { new_id() } else { id };
    let ns = |i: Instant| i.saturating_duration_since(t.epoch).as_nanos() as u64;
    let span = Span {
        id,
        parent,
        job,
        name: name.to_string(),
        start_ns: ns(start),
        end_ns: ns(end).max(ns(start)),
    };
    t.spans.lock().expect("span store poisoned").push(span);
}

/// Record a finished span under this thread's context.
pub fn record(name: &str, start: Instant, end: Instant) {
    let (parent, job) = CTX.with(Cell::get);
    record_as(0, name, parent, job, start, end)
}

/// Set the (parent, job) context of spans recorded on this thread.
pub fn set_context(parent: u64, job: u64) {
    CTX.with(|c| c.set((parent, job)));
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span store poisoned"))
}

/// Render spans as the tab-separated span file.
pub fn render(spans: &[Span], header: &str) -> String {
    let mut out = format!("# {header}\n# id\tparent\tjob\tname\tstart_ns\tend_ns\n");
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

/// Parse a span file written by [`render`].
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let num = |k: usize| {
            f.get(k)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("line {}: bad field {k}: {line:?}", i + 1))
        };
        if f.len() != 6 {
            return Err(format!("line {}: expected 6 fields: {line:?}", i + 1));
        }
        spans.push(Span {
            id: num(0)?,
            parent: num(1)?,
            job: num(2)?,
            name: f[3].to_string(),
            start_ns: num(4)?,
            end_ns: num(5)?,
        });
    }
    Ok(spans)
}

/// The per-layer attribution of a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Summed root durations: the end-to-end time the table explains.
    pub e2e_ns: u64,
    /// Root spans.
    pub roots: usize,
    /// Self time per layer (roots excluded).
    pub self_ns: BTreeMap<String, u64>,
    /// Span count per layer (roots excluded).
    pub spans: BTreeMap<String, u64>,
    /// The roots' own self time: end-to-end time no layer span covers.
    pub unexplained_ns: u64,
    /// Child time double counted because sibling spans overlapped
    /// (0 when children were recorded back to back, as the benchmark
    /// records them).
    pub overlap_ns: u64,
}

impl Table {
    /// Self time of `layer` in milliseconds.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Render the table as text: one line per layer, then the remainder.
    pub fn render(&self) -> String {
        let e2e = self.e2e_ns.max(1) as f64;
        let mut out = format!(
            "{:<12} {:>12} {:>8} {:>9}\n",
            "layer", "self_ms", "share", "spans"
        );
        for (layer, ns) in &self.self_ns {
            out.push_str(&format!(
                "{:<12} {:>12.3} {:>7.2}% {:>9}\n",
                layer,
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / e2e,
                self.spans[layer]
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>12.3} {:>7.2}%\n{:<12} {:>12.3} {:>7.2}% ({} roots)\n",
            "unexplained",
            self.unexplained_ns as f64 / 1e6,
            100.0 * self.unexplained_ns as f64 / e2e,
            "end-to-end",
            self.e2e_ns as f64 / 1e6,
            100.0 * (self.unexplained_ns + self.self_ns.values().sum::<u64>()) as f64 / e2e,
            self.roots,
        ));
        if self.overlap_ns > 0 {
            out.push_str(&format!(
                "overlap      {:>12.3} (sibling spans overlapped)\n",
                self.overlap_ns as f64 / 1e6
            ));
        }
        out
    }
}

/// Length of the union of `[start, end)` intervals clipped to `[lo, hi)`,
/// and the summed clipped lengths (the difference is overlap).
fn covered(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> (u64, u64) {
    iv.iter_mut().for_each(|(s, e)| {
        *s = (*s).clamp(lo, hi);
        *e = (*e).clamp(lo, hi);
    });
    iv.sort_unstable();
    let summed = iv.iter().map(|(s, e)| e - s).sum();
    let mut union = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                union += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        union += ce - cs;
    }
    (union, summed)
}

/// Attribute spans to layers by self time. Spans whose parent is absent
/// are treated as roots.
pub fn table(spans: &[Span]) -> Table {
    let ids: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if ids.contains_key(&s.parent) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut t = Table::default();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let (union, summed) = covered(kids, s.start_ns, s.end_ns);
        let own = s.dur() - union;
        t.overlap_ns += summed - union;
        if ids.contains_key(&s.parent) {
            *t.self_ns.entry(s.layer().to_string()).or_default() += own;
            *t.spans.entry(s.layer().to_string()).or_default() += 1;
        } else {
            t.roots += 1;
            t.e2e_ns += s.dur();
            t.unexplained_ns += own;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn layers_plus_remainder_add_up_to_the_roots() {
        let spans = vec![
            span(1, 0, "op.job", 0, 100),
            span(2, 1, "httpd.submit", 0, 10),
            span(3, 1, "campaign.run", 10, 70),
            span(4, 3, "corpus.load", 20, 30),
            span(5, 3, "corpus.load", 40, 45),
            span(6, 1, "httpd.results", 80, 90),
            span(7, 0, "op.job", 200, 250),
            span(8, 7, "campaign.run", 210, 240),
        ];
        let t = table(&spans);
        assert_eq!(t.roots, 2);
        assert_eq!(t.e2e_ns, 150);
        assert_eq!(t.self_ns["httpd"], 20);
        assert_eq!(t.self_ns["campaign"], 45 + 30);
        assert_eq!(t.self_ns["corpus"], 15);
        assert_eq!(t.unexplained_ns, 10 + 10 + 20);
        assert_eq!(t.overlap_ns, 0);
        let total: u64 = t.self_ns.values().sum::<u64>() + t.unexplained_ns;
        assert_eq!(total, t.e2e_ns);
    }

    #[test]
    fn overlapping_children_are_reported_not_double_counted() {
        let spans = vec![
            span(1, 0, "op.x", 0, 100),
            span(2, 1, "a.x", 0, 60),
            span(3, 1, "b.x", 40, 100),
        ];
        let t = table(&spans);
        assert_eq!(t.unexplained_ns, 0);
        assert_eq!(t.overlap_ns, 20);
    }

    #[test]
    fn span_file_round_trips() {
        let spans = vec![
            span(1, 0, "op.x", 5, 9),
            span(2, 1, "engine.run_plan", 6, 8),
        ];
        let text = render(&spans, "workload=test");
        assert_eq!(parse(&text).unwrap(), spans);
        assert!(parse("1\t0\tx").is_err());
    }
}
