//! The scan engine's per-probe hot path, logical and wire, and the wire
//! codec under it.
//!
//! Rows, all medians with quartiles (see the `tass_bench` docs):
//!
//! * `run_plan` — probe throughput (`pps`) of `ScanEngine::run_plan`
//!   over a /18 (16 384 addresses, every 4th responsive) at 1/2/4/8
//!   worker threads, on a perfect and on a lossy+duplicating network,
//!   for both probe paths;
//! * `wire_encode` / `wire_parse` — ns per call to build a checksummed
//!   TCP-SYN frame (54-byte Ethernet/IPv4/TCP, 74-byte
//!   Ethernet/IPv6/TCP) and to validate one (ethertype, header
//!   structure, v4 header checksum, pseudo-header TCP checksum);
//! * `wire_engine_4096` — a 4096-target single-thread scan per family
//!   and path, engine construction included;
//! * `wire_overhead` — what `wire_level` costs per family: the wire
//!   row's median over the logical row's, and ns per probe of each.
//!
//! The rows are written to `BENCH_engine.json` at the repo root. No
//! baseline is pinned: a comparison is only meaningful against the
//! parent revision built and run on the same machine (perfbench's
//! `probe-logical` and `probe-wire` workloads). `BENCH_QUICK=1` shrinks
//! the rep counts for CI; the probe counts are asserted either way.

use std::hint::black_box;
use std::sync::Arc;
use tass_bench::{fixed, reps, time, Report, Row};
use tass_core::ProbePlan;
use tass_model::{HostSet, Protocol};
use tass_net::{Prefix, V6};
use tass_scan::{wire, Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Probes per `run_plan` row: a /18.
const TARGETS: u64 = 16 * 1024;

/// Probes per `wire_engine_4096` row.
const SMALL_SCAN: u64 = 4096;

/// Codec calls per timed sample: one call is too short for the clock.
const CODEC_BATCH: u32 = 4096;

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

fn run_plan_sweep(report: &mut Report, reps: usize) {
    let plan = ProbePlan::Prefixes(vec!["10.0.0.0/18".parse::<Prefix>().unwrap()]);
    for (faults_name, faults) in [("perfect", FaultConfig::default()), ("lossy", lossy())] {
        let engine = ScanEngine::new(network(faults));
        for (path, wire_level) in [("logical", false), ("wire", true)] {
            for threads in [1usize, 2, 4, 8] {
                let cfg = ScanConfig::for_port(80)
                    .unlimited_rate()
                    .threads(threads)
                    .blocklist(Blocklist::empty())
                    .wire_level(wire_level);
                let t = time(reps, || {
                    let r = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
                    assert_eq!(r.probes_sent, TARGETS);
                });
                report.row(
                    Row::new("run_plan")
                        .set("path", path)
                        .set("faults", faults_name)
                        .set("threads", threads)
                        .rate("pps", &t, TARGETS as f64, 0),
                );
            }
        }
    }
}

fn codec_rows(report: &mut Report, reps: usize) {
    let per_call = 1e9 / f64::from(CODEC_BATCH);
    let mut row = |name: &str, family: &str, frame: usize, t| {
        report.row(
            Row::new(name)
                .set("family", family)
                .set("frame_bytes", frame)
                .time("ns", &t, per_call, 1),
        );
    };
    let v4 = wire::build_syn(1, 2, 3, 4, 5);
    let v6 = wire::build_syn_v6(1, 2, 3, 4, 5);
    let mut dst = 0u32;
    let t = time(reps, || {
        for _ in 0..CODEC_BATCH {
            dst = dst.wrapping_add(1);
            black_box(wire::build_syn(0x0A00_0001, black_box(dst), 40000, 443, 7));
        }
    });
    row("wire_encode", "v4", v4.len(), t);
    let mut dst = 0x2600u128 << 112;
    let src = (0x2001_0db8u128 << 96) | 1;
    let t = time(reps, || {
        for _ in 0..CODEC_BATCH {
            dst = dst.wrapping_add(1);
            black_box(wire::build_syn_v6(src, black_box(dst), 40000, 443, 7));
        }
    });
    row("wire_encode", "v6", v6.len(), t);
    let t = time(reps, || {
        for _ in 0..CODEC_BATCH {
            black_box(wire::parse_frame(black_box(&v4)).expect("valid frame"));
        }
    });
    row("wire_parse", "v4", v4.len(), t);
    let t = time(reps, || {
        for _ in 0..CODEC_BATCH {
            black_box(wire::parse_frame_v6(black_box(&v6)).expect("valid frame"));
        }
    });
    row("wire_parse", "v6", v6.len(), t);
}

/// One 4096-target scan (every 4th address responsive), engine
/// construction included.
fn scan_v4(wire_level: bool) -> u64 {
    let hosts: Vec<u32> = (0..SMALL_SCAN as u32)
        .filter(|i| i % 4 == 0)
        .map(|i| 0x0100_0000 + i)
        .collect();
    let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    let plan = ProbePlan::Prefixes(vec!["1.0.0.0/20".parse::<Prefix>().unwrap()]);
    let cfg = ScanConfig::for_port(80)
        .unlimited_rate()
        .threads(1)
        .blocklist(Blocklist::empty())
        .wire_level(wire_level);
    engine.run_plan(&plan, 0, &[], &cfg).unwrap().probes_sent
}

fn scan_v6(wire_level: bool) -> u64 {
    let base = 0x2600u128 << 112;
    let hosts: Vec<u128> = (0..u128::from(SMALL_SCAN))
        .filter(|i| i % 4 == 0)
        .map(|i| base + i)
        .collect();
    let responder: Responder<V6> =
        Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    let engine: ScanEngine<V6> = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    let plan = ProbePlan::Prefixes(vec!["2600::/116".parse::<Prefix<V6>>().unwrap()]);
    let cfg = ScanConfig::<V6>::for_port(80)
        .unlimited_rate()
        .threads(1)
        .blocklist(Blocklist::empty())
        .wire_level(wire_level);
    engine.run_plan(&plan, 0, &[], &cfg).unwrap().probes_sent
}

fn wire_engine_rows(report: &mut Report, reps: usize) {
    for (family, scan) in [("v4", scan_v4 as fn(bool) -> u64), ("v6", scan_v6)] {
        let [logical, wire] = [false, true].map(|wire_level| {
            let t = time(reps, || assert_eq!(scan(wire_level), SMALL_SCAN));
            report.row(
                Row::new("wire_engine_4096")
                    .set("family", family)
                    .set("path", if wire_level { "wire" } else { "logical" })
                    .time("ms", &t, 1e3, 3)
                    .rate("pps", &t, SMALL_SCAN as f64, 0),
            );
            t
        });
        let ns_per_probe = 1e9 / SMALL_SCAN as f64;
        report.row(
            Row::new("wire_overhead")
                .set("family", family)
                .set("probes", SMALL_SCAN)
                .set("factor", fixed(wire.median / logical.median, 2))
                .set(
                    "logical_ns_per_probe",
                    fixed(logical.median * ns_per_probe, 0),
                )
                .set("wire_ns_per_probe", fixed(wire.median * ns_per_probe, 0)),
        );
    }
}

fn main() {
    // `cargo bench` passes harness flags; ignore them.
    let reps = reps(8, 2);
    let mut report = Report::new("engine", Some("BENCH_engine.json"));
    report
        .head()
        .set("targets_per_run", TARGETS)
        .set("reps", reps);
    run_plan_sweep(&mut report, reps);
    codec_rows(&mut report, reps);
    wire_engine_rows(&mut report, reps);
    report.finish();
}
