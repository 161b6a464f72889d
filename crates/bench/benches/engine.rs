//! The scan engine's per-probe hot path, logical and wire.
//!
//! Measures end-to-end probe throughput of `ScanEngine::run_plan` over a
//! /18 (16 384 addresses, every 4th responsive) at 1/2/4/8 worker
//! threads, on a perfect and on a lossy+duplicating network, for both
//! probe paths. The sweep is written to `BENCH_engine.json` at the repo
//! root. No baseline is pinned: a comparison is only meaningful against
//! the parent revision built and run on the same machine (perfbench's
//! `probe-logical` and `probe-wire` workloads).
//!
//! Runs fast enough for CI (set `ENGINE_BENCH_QUICK=1` to shrink the
//! rep count further); throughput numbers vary with the machine, but the
//! sweep structure and the recorded probe counts are deterministic.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tass_core::ProbePlan;
use tass_model::{HostSet, Protocol};
use tass_net::Prefix;
use tass_scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Probes per run: a /18.
const TARGETS: u64 = 16 * 1024;

fn network(faults: FaultConfig) -> Arc<SimNetwork> {
    let hosts: Vec<u32> = (0..TARGETS as u32)
        .filter(|i| i % 4 == 0)
        .map(|i| 0x0A00_0000 + i)
        .collect();
    let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    Arc::new(SimNetwork::new(responder, faults, 0x00BE_7C11))
}

fn lossy() -> FaultConfig {
    FaultConfig {
        probe_loss: 0.15,
        response_loss: 0.15,
        duplicate: 0.05,
        latency_ms: 1.0,
    }
}

/// One timed sweep cell: probes/sec through `run_plan`.
fn measure(engine: &ScanEngine, wire_level: bool, threads: usize, reps: usize) -> f64 {
    let plan = ProbePlan::Prefixes(vec!["10.0.0.0/18".parse::<Prefix>().unwrap()]);
    let cfg = ScanConfig::for_port(80)
        .unlimited_rate()
        .threads(threads)
        .blocklist(Blocklist::empty())
        .wire_level(wire_level);
    // warm-up
    let report = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
    assert_eq!(report.probes_sent, TARGETS);
    let t0 = Instant::now();
    for _ in 0..reps {
        let r = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
        assert_eq!(r.probes_sent, TARGETS);
    }
    (TARGETS * reps as u64) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    // `cargo bench` passes harness flags; ignore them.
    let quick = std::env::var("ENGINE_BENCH_QUICK").is_ok();
    let reps = if quick { 2 } else { 8 };

    let mut rows = String::new();
    for (faults_name, faults) in [("perfect", FaultConfig::default()), ("lossy", lossy())] {
        let engine = ScanEngine::new(network(faults));
        for (path, wire_level) in [("logical", false), ("wire", true)] {
            for threads in [1usize, 2, 4, 8] {
                let pps = measure(&engine, wire_level, threads, reps);
                eprintln!(
                    "engine {path:>7} {faults_name:>7} x{threads}: {:.2} Mpps",
                    pps / 1e6
                );
                if !rows.is_empty() {
                    rows.push(',');
                }
                rows.push_str(&format!(
                    concat!(
                        "\n  {{\"path\":\"{}\",\"faults\":\"{}\",\"threads\":{},",
                        "\"pps\":{:.0}}}"
                    ),
                    path, faults_name, threads, pps
                ));
            }
        }
    }

    let record = format!(
        concat!(
            "{{\"bench\":\"engine\",\"targets_per_run\":{},\"reps\":{},",
            "\"sweep\":[{}\n]}}\n"
        ),
        TARGETS, reps, rows
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    std::fs::write(&path, &record).expect("write BENCH_engine.json");
    eprintln!("engine sweep → {}", path.display());
}
