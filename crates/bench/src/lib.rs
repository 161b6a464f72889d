//! The bench harness: shared fixtures, one timing helper and one row
//! writer for the six `cargo bench` targets.
//!
//! Every target is a plain `fn main()` (`harness = false`). It times
//! its work with [`time`] (or [`time_setup`] when each call needs fresh,
//! untimed input), turns each measurement into a [`Row`], and hands the
//! rows to a [`Report`]. The report prints every row as one JSON line on
//! stdout and, for the targets with a checked-in `BENCH_*.json` at the
//! repo root, writes that file on [`Report::finish`].
//!
//! Every timed row is a median with its interquartile spread: a key `k`
//! comes with `k_p25` and `k_p75`. Rates are work divided by a time
//! quantile, so a rate's `_p25` is the work over the *slow* (p75) time.
//!
//! `BENCH_QUICK=1` selects each target's CI-sized run: fewer reps and a
//! smaller sweep, same structure and assertions. A quick run never
//! writes the checked-in `BENCH_*.json`; only a full run does.

use serde::{Serialize, Value};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;
use tass_experiments::{Scenario, ScenarioConfig};

/// Scale used by the exhibit benches (small enough that a full
/// `cargo bench` stays in minutes, large enough to be meaningful).
pub const BENCH_PREFIXES: usize = 400;

/// The shared bench scenario, built on first use.
pub fn scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let cfg = ScenarioConfig {
            seed: 0xBE7C,
            l_prefix_count: BENCH_PREFIXES,
            host_scale: 1.0,
            months: 6,
        };
        Scenario::build(&cfg)
    })
}

/// Whether `BENCH_QUICK` is set: the CI-sized run.
pub fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// `full` reps on a full run, `quick` reps under `BENCH_QUICK`.
pub fn reps(full: usize, quick_reps: usize) -> usize {
    if quick() {
        quick_reps
    } else {
        full
    }
}

/// Median and quartiles of a set of timed calls, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The median call.
    pub median: f64,
    /// The 25th percentile (a fast call).
    pub p25: f64,
    /// The 75th percentile (a slow call).
    pub p75: f64,
}

impl Timing {
    /// Quartiles by linear interpolation between the closest ranks.
    /// Panics on an empty sample.
    pub fn of(mut samples: Vec<f64>) -> Timing {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (samples.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
        };
        Timing {
            median: at(0.5),
            p25: at(0.25),
            p75: at(0.75),
        }
    }
}

/// Warm up with one untimed call, then time `reps` calls of `f`.
pub fn time<O>(reps: usize, mut f: impl FnMut() -> O) -> Timing {
    time_setup(reps, || (), |()| f())
}

/// [`time`] for work that needs fresh input per call: `setup` runs
/// before every call, outside the timed region. Each call's output is
/// dropped after its clock stops, so freeing it is not timed either.
pub fn time_setup<I, O>(
    reps: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> O,
) -> Timing {
    std::hint::black_box(f(setup()));
    let samples = (0..reps.max(1))
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let out = std::hint::black_box(f(input));
            let secs = t.elapsed().as_secs_f64();
            drop(out);
            secs
        })
        .collect();
    Timing::of(samples)
}

/// `x` rounded to `decimals` places, as a JSON number (`null` when not
/// finite). With no decimals it is written as an integer.
pub fn fixed(x: f64, decimals: usize) -> Value {
    if !x.is_finite() {
        return Value::Null;
    }
    let scale = 10f64.powi(decimals as i32);
    let rounded = (x * scale).round() / scale;
    if decimals == 0 {
        (rounded as i64).to_value()
    } else {
        Value::F64(rounded)
    }
}

/// One JSON object: a row of a sweep, or a report's top-level fields.
#[derive(Debug, Default)]
pub struct Row {
    fields: Vec<(String, Value)>,
}

impl Row {
    /// A row labelled `"row": label`.
    pub fn new(label: &str) -> Row {
        let mut row = Row::default();
        row.set("row", label);
        row
    }

    /// Add `"key": value`.
    pub fn set(&mut self, key: &str, value: impl Serialize) -> &mut Row {
        self.fields.push((key.to_string(), value.to_value()));
        self
    }

    /// Add a timing as `key`, `key_p25` and `key_p75`, each in seconds
    /// times `unit` (1e3 for ms, 1e9 / batch for ns per call).
    pub fn time(&mut self, key: &str, t: &Timing, unit: f64, decimals: usize) -> &mut Row {
        self.set(key, fixed(t.median * unit, decimals))
            .set(&format!("{key}_p25"), fixed(t.p25 * unit, decimals))
            .set(&format!("{key}_p75"), fixed(t.p75 * unit, decimals))
    }

    /// Add `work` per second as `key`, `key_p25` and `key_p75`.
    pub fn rate(&mut self, key: &str, t: &Timing, work: f64, decimals: usize) -> &mut Row {
        self.set(key, fixed(work / t.median, decimals))
            .set(&format!("{key}_p25"), fixed(work / t.p75, decimals))
            .set(&format!("{key}_p75"), fixed(work / t.p25, decimals))
    }

    fn json(&self) -> String {
        serde_json::to_string(&Value::Map(self.fields.clone())).expect("rendering cannot fail")
    }
}

/// A bench target's output: top-level fields plus its rows.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    file: Option<&'static str>,
    head: Row,
    rows: Vec<String>,
}

impl Report {
    /// A report for `bench`. With `file` (e.g. `"BENCH_engine.json"`), a
    /// full run writes it at the repo root on [`finish`](Report::finish).
    pub fn new(bench: &'static str, file: Option<&'static str>) -> Report {
        let mut head = Row::default();
        head.set("bench", bench).set("quick", quick());
        Report {
            bench,
            file,
            head,
            rows: Vec::new(),
        }
    }

    /// The top-level fields, written before the rows.
    pub fn head(&mut self) -> &mut Row {
        &mut self.head
    }

    /// Print a row and keep it for the file.
    pub fn row(&mut self, row: &Row) {
        let json = row.json();
        println!("{} {json}", self.bench);
        self.rows.push(json);
    }

    /// Print the top-level fields, then write the file unless this is a
    /// quick run: a truncated sweep must not replace the checked-in one.
    pub fn finish(self) {
        let head = self.head.json();
        println!("{} {head}", self.bench);
        let Some(file) = self.file else { return };
        if quick() {
            eprintln!("{}: quick run, {file} left untouched", self.bench);
            return;
        }
        // the head's fields, then the sweep one row per line
        let rows = self.rows.join(",\n  ");
        let head = head.strip_suffix('}').expect("an object");
        let out = format!("{head},\"sweep\":[\n  {rows}\n]}}\n");
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file);
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {file}: {e}"));
        eprintln!("{} → {}", self.bench, path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_once() {
        let a = super::scenario();
        let b = super::scenario();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.config.l_prefix_count, super::BENCH_PREFIXES);
    }

    #[test]
    fn timing_reports_median_and_quartiles() {
        // odd count: the quartiles land on samples
        let t = Timing::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((t.median, t.p25, t.p75), (3.0, 2.0, 4.0));
        // even count: interpolated between the closest ranks
        let t = Timing::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.median, t.p25, t.p75), (2.5, 1.75, 3.25));
        let t = Timing::of(vec![7.0]);
        assert_eq!((t.median, t.p25, t.p75), (7.0, 7.0, 7.0));
    }

    #[test]
    fn time_warms_up_once_then_runs_reps() {
        let mut calls = 0;
        let t = time(4, || calls += 1);
        assert_eq!(calls, 5);
        assert!(t.p25 <= t.median && t.median <= t.p75);
    }

    #[test]
    fn rows_render_json_with_spread() {
        let t = Timing::of(vec![1.0, 2.0, 4.0]);
        let mut row = Row::new("a\"b");
        row.set("n", 3usize)
            .set("ok", true)
            .time("ms", &t, 1e3, 0)
            .rate("per_s", &t, 8.0, 1)
            .set("bad", fixed(f64::NAN, 2));
        assert_eq!(
            row.json(),
            concat!(
                r#"{"row":"a\"b","n":3,"ok":true,"ms":2000,"ms_p25":1500,"ms_p75":3000,"#,
                r#""per_s":4.0,"per_s_p25":2.7,"per_s_p75":5.3,"bad":null}"#
            )
        );
    }
}
