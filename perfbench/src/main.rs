//! `tass-perfbench`: one benchmark for the request path (`tassd` over
//! loopback HTTP), the corpus write and read paths, and the probe path.
//!
//! ```text
//! tass-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! tass-perfbench report SPANS_FILE
//! ```
//!
//! Every run builds its inputs from the seed, sets up several times
//! (the median is `setup_s`), measures for `--seconds`, checks every
//! output against an oracle, and prints a run header followed by one
//! JSON result line. With `--trace 1` it measures once untraced and once
//! with spans recorded, prints the per-layer metrics, writes the span
//! file under `perfbench/out/`, and prints its self-time table;
//! `report` re-renders that table from a span file.

mod corpus;
mod daemon;
mod probe;
mod stats;
mod sys;
mod timed;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Directory (relative to the checkout root) for span files and
/// working data.
pub const OUT_DIR: &str = "perfbench/out";

/// Set-ups per run: at least the minimum, and more while they add up
/// to less than the target time, so cheap set-ups report a median of
/// many. The median is reported as `setup_s`.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_TARGET_S: f64 = 1.0;

/// End-to-end metrics: name and unit. Every workload reports each one;
/// what the unit of work is depends on the workload (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit, which way is
/// better. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, &str); 65] = [
    ("loadgen.lag_ms.tail", "ms", "lower"),
    ("loadgen.self_ms", "ms", "lower"),
    ("httpd.submit_rtt_us.p50", "us", "lower"),
    ("httpd.submit_rtt_us.tail", "us", "lower"),
    ("httpd.poll_rtt_us.p50", "us", "lower"),
    ("httpd.poll_rtt_us.tail", "us", "lower"),
    ("httpd.results_rtt_us.p50", "us", "lower"),
    ("httpd.stream_ttfb_us.p50", "us", "lower"),
    ("httpd.first_month_ms.p50", "ms", "lower"),
    ("httpd.requests", "count", "higher"),
    ("httpd.reconnects", "count", "lower"),
    ("httpd.self_ms", "ms", "lower"),
    ("service.submit_call_us.p50", "us", "lower"),
    ("service.job_view_call_us.p50", "us", "lower"),
    ("service.result_call_us.p50", "us", "lower"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.tail", "ms", "lower"),
    ("service.run_ms.p50", "ms", "lower"),
    ("service.run_ms.tail", "ms", "lower"),
    ("service.polls_per_job", "ratio", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("campaign.solo_ms.p50", "ms", "lower"),
    ("campaign.contention_ratio", "ratio", "lower"),
    ("campaign.cycles", "count", "higher"),
    ("campaign.pool_busy_frac", "ratio", "higher"),
    ("campaign.self_ms", "ms", "lower"),
    ("strategy.prepare_ms", "ms", "lower"),
    ("strategy.plan_ms", "ms", "lower"),
    ("strategy.observe_ms", "ms", "lower"),
    ("strategy.calls", "count", "higher"),
    ("strategy.self_ms", "ms", "lower"),
    ("corpus.open_ms", "ms", "lower"),
    ("corpus.finish_ms", "ms", "lower"),
    ("corpus.ingest_ms_per_month.p50", "ms", "lower"),
    ("corpus.load_calls", "count", "lower"),
    ("corpus.load_ms", "ms", "lower"),
    ("corpus.load_us.p50", "us", "lower"),
    ("corpus.load_us.tail", "us", "lower"),
    ("corpus.self_ms", "ms", "lower"),
    ("engine.run_plan_ms.tass", "ms", "lower"),
    ("engine.run_plan_ms.hitlist", "ms", "lower"),
    ("engine.run_plan_ms.sample", "ms", "lower"),
    ("engine.unattributed_frac", "ratio", "lower"),
    ("engine.probes_sent", "count", "higher"),
    ("engine.blocked_skipped", "count", "lower"),
    ("engine.responses", "count", "higher"),
    ("engine.validation_failures", "count", "lower"),
    ("engine.hit_ratio", "ratio", "higher"),
    ("engine.dup_ratio", "ratio", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("plan.stream_ns_per_probe", "ns", "lower"),
    ("blocklist.ns_per_probe", "ns", "lower"),
    ("rate.ns_per_batch", "ns", "lower"),
    ("net.probe_logical_ns", "ns", "lower"),
    ("net.transmit_ns", "ns", "lower"),
    ("net.probes_lost", "count", "lower"),
    ("net.responses_lost", "count", "lower"),
    ("net.duplicated", "count", "lower"),
    ("wire.encode_ns", "ns", "lower"),
    ("wire.parse_ns", "ns", "lower"),
    ("trace.e2e_ms", "ms", "lower"),
    ("trace.unexplained_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
];

/// The layers whose span self time is reported as `<layer>.self_ms`.
const SPAN_LAYERS: [&str; 7] = [
    "loadgen", "httpd", "service", "campaign", "strategy", "corpus", "engine",
];

/// The workloads: the unit of work each one counts, and the percentile
/// its `latency_tail_ms` reports. The percentile is fixed per workload
/// so that every run reports the same one. Each leaves at least ten
/// samples beyond it at the operation count a 20-second run reaches on
/// a 2-core machine at half its usual speed; all but corpus-replay stay
/// one rung below the highest such percentile, where more samples lie
/// beyond it and the figure is steadier. The header prints the count
/// beyond it.
const WORKLOADS: [(&str, &str, f64); 5] = [
    ("daemon-mix", "verified campaign jobs", 98.0),
    ("corpus-ingest", "addresses ingested", 95.0),
    ("corpus-replay", "campaign cycles replayed", 90.0),
    ("probe-logical", "probes sent", 90.0),
    ("probe-wire", "probes sent", 90.0),
];

/// One measured phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted (each is checked).
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong output.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Latency of each operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Units of work completed (see [`WORKLOADS`]).
    pub work: f64,
    /// Seconds the work took (the throughput denominator).
    pub busy_s: f64,
    /// Work per second of each operation; when present, the reported
    /// throughput is their median instead of `work / busy_s`.
    pub rates: Vec<f64>,
    /// Per-layer metrics measured in this phase.
    pub layer: Vec<(&'static str, f64)>,
    /// Extra run-header fields.
    pub notes: Vec<(&'static str, String)>,
}

impl Phase {
    /// Count one checked operation, failing it with `err` when given.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Merge another phase's counts (not its timings).
    pub fn absorb_counts(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// A workload's prepared state: measured repeatedly, torn down on drop.
pub trait Bench {
    /// Run one measured phase of `seconds`, recording spans when
    /// tracing is on.
    fn measure(&mut self, seconds: f64) -> Phase;
    /// Per-layer metrics gathered outside the measured phases (run
    /// after the traced phase).
    fn layer_extras(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Checks made during the last set-up, if the workload makes any.
    fn setup_checks(&self) -> Option<&Phase> {
        None
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tass-perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         tass-perfbench report SPANS_FILE\nworkloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn setup(workload: &str, seed: u64) -> Box<dyn Bench> {
    match workload {
        "daemon-mix" => Box::new(daemon::DaemonMix::setup(seed)),
        "corpus-ingest" => Box::new(corpus::Ingest::setup(seed)),
        "corpus-replay" => Box::new(corpus::Replay::setup(seed)),
        "probe-logical" => Box::new(probe::ProbeBench::setup(seed, false)),
        "probe-wire" => Box::new(probe::ProbeBench::setup(seed, true)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Render a metric value as a JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(phase: &Phase, metrics: &[(&str, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        phase.failed == 0 && phase.attempted > 0,
        phase.attempted.max(1),
        phase.failed
    )
}

fn run(args: &Args) {
    let &(_, unit_of_work, tail_pct) = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .expect("workload names are validated by parse_args");
    println!(
        "# perfbench rev={} nproc={} seed={} workload={} seconds={} trace={} calibration_mips={:.1}",
        sys::revision(),
        sys::nproc(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
        sys::calibration_score()
    );

    // set up several times; keep the last
    let mut setup_s = Vec::new();
    let mut bench = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_TARGET_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(setup(&args.workload, args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set up at least once");
    let mut total = Phase::default();
    if let Some(checks) = bench.setup_checks() {
        total.absorb_counts(checks);
    }

    let rss_reset = sys::reset_peak_rss();
    let plain = bench.measure(args.seconds);
    let peak_rss = sys::peak_rss_mb();
    total.absorb_counts(&plain);
    let (lat, beyond) = stats::summarize_at(&plain.latencies_ms, tail_pct);
    let throughput = if plain.rates.is_empty() {
        plain.work / plain.busy_s.max(1e-9)
    } else {
        stats::median(&plain.rates)
    };
    let setup_median = stats::median(&setup_s);
    println!(
        "# e2e unit={unit_of_work:?} setups={} ops={} latency_p50_ms={:.4} latency_tail_ms={:.4} \
         tail_pct={} beyond_tail={beyond} highest_pct_with_10_beyond={:?} \
         throughput_per_s={:.3} setup_s={:.4} peak_rss_mb={:.1} rss_window={} failed_frac={}",
        setup_s.len(),
        lat.n,
        lat.p50,
        lat.tail,
        lat.tail_pct,
        stats::tail_percentile(lat.n),
        throughput,
        setup_median,
        peak_rss,
        if rss_reset {
            "measured-phase"
        } else {
            "process"
        },
        plain.failed as f64 / plain.attempted.max(1) as f64,
    );
    for (k, v) in &plain.notes {
        println!("# {k}={v}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        traced_metrics(args, bench.as_mut(), &mut total, lat.p50)
    } else {
        let values = [setup_median, throughput, lat.p50, lat.tail, peak_rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    drop(bench);
    for e in &total.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", result_line(&total, &metrics));
}

fn traced_metrics(
    args: &Args,
    bench: &mut dyn Bench,
    total: &mut Phase,
    untraced_p50: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    trace::set_enabled(true);
    let traced = bench.measure(args.seconds);
    trace::set_enabled(false);
    total.absorb_counts(&traced);
    let spans = trace::drain();
    let table = trace::table(&spans);
    let traced_p50 = stats::median(&traced.latencies_ms);

    let dir = PathBuf::from(OUT_DIR);
    let file = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let header = format!("workload={} seed={}", args.workload, args.seed);
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, trace::render(&spans, &header)))
    {
        Ok(()) => println!("# spans={} file={}", spans.len(), file.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", file.display()),
    }
    for line in table.render().lines() {
        println!("# {line}");
    }

    let mut values: Vec<(&str, f64)> = traced.layer.clone();
    values.extend(bench.layer_extras());
    values.extend(span_name_metrics(&spans));
    for layer in SPAN_LAYERS {
        let name = PER_LAYER
            .iter()
            .find(|m| m.0.strip_suffix(".self_ms") == Some(layer))
            .expect("every span layer has a self_ms metric")
            .0;
        values.push((name, table.self_ms(layer)));
    }
    let e2e_ms = table.e2e_ns as f64 / 1e6;
    values.push(("trace.e2e_ms", e2e_ms));
    values.push((
        "trace.unexplained_frac",
        table.unexplained_ns as f64 / 1e6 / e2e_ms.max(1e-9),
    ));
    values.push((
        "trace.overhead_frac",
        traced_p50 / untraced_p50.max(1e-9) - 1.0,
    ));
    values.push(("trace.spans", spans.len() as f64));

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, v, unit)
        })
        .collect()
}

/// Per-call metrics of the leaf spans the timing wrappers record.
fn span_name_metrics(spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    };
    let total_ms = |name: &str| durations(name).iter().sum::<f64>() / 1e6;
    let loads_us: Vec<f64> = durations("corpus.load").iter().map(|ns| ns / 1e3).collect();
    let loads = stats::summarize(&loads_us);
    vec![
        ("strategy.prepare_ms", total_ms("strategy.prepare")),
        ("strategy.plan_ms", total_ms("strategy.plan")),
        ("strategy.observe_ms", total_ms("strategy.observe")),
        (
            "strategy.calls",
            spans.iter().filter(|s| s.layer() == "strategy").count() as f64,
        ),
        ("corpus.load_calls", loads.n as f64),
        ("corpus.load_ms", loads_us.iter().sum::<f64>() / 1e3),
        ("corpus.load_us.p50", loads.p50),
        ("corpus.load_us.tail", loads.tail),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("report") {
        let Some(path) = argv.get(1) else { usage() };
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| trace::parse(&text))
        {
            Ok(spans) => print!("{}", trace::table(&spans).render()),
            Err(e) => {
                eprintln!("perfbench: {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            usage()
        }
    };
    run(&args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(m) => &m.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn names(v: &Value) -> Vec<(String, String)> {
        let Value::Seq(items) = v else {
            panic!("not a list")
        };
        items
            .iter()
            .map(|m| {
                let s = |k| match field(m, k) {
                    Value::Str(s) => s.clone(),
                    _ => panic!("{k} not a string"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(field(&json, "end_to_end")), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(field(&json, "per_layer")), layer);
        let Value::Seq(workloads) = field(&json, "workloads") else {
            panic!("workloads not a list")
        };
        let listed: Vec<&Value> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (w, (name, _, _)) in listed.iter().zip(WORKLOADS) {
            assert_eq!(**w, Value::Str(name.to_string()));
        }
    }

    #[test]
    fn result_line_counts_failures_and_prints_every_digit() {
        let mut p = Phase::default();
        p.check(None);
        p.check(Some("mismatch".into()));
        let line = result_line(&p, &[("latency_p50_ms", 1.234567891, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.234567891, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(a("--workload probe-wire --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(a("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(a("--workload probe-wire --seed x --seconds 10 --trace 0").is_err());
        assert!(a("--workload probe-wire --seed 3 --seconds 10 --trace 2").is_err());
        assert!(a("--workload probe-wire --seconds 10").is_err());
    }
}
