//! The family-parameterised wire codec, v4 vs v6.
//!
//! Three questions are measured:
//!
//! * **encode throughput** — building checksummed TCP-SYN frames
//!   (54-byte Ethernet/IPv4/TCP vs 74-byte Ethernet/IPv6/TCP);
//! * **parse throughput** — full validation of a frame (ethertype,
//!   header structure, header checksum for v4, pseudo-header TCP
//!   checksum for both);
//! * **logical-vs-wire overhead** — the same 4096-target engine scan
//!   through the logical path and the wire path, per family, with the
//!   explicit overhead factor printed at the end: the price `wire_level`
//!   pays for full per-probe fidelity.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tass_core::ProbePlan;
use tass_model::{HostSet, Protocol};
use tass_net::{Prefix, V6};
use tass_scan::{wire, Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    group.throughput(Throughput::Elements(1));
    group.bench_function("v4_syn_54B", |b| {
        let mut dst = 0u32;
        b.iter(|| {
            dst = dst.wrapping_add(1);
            wire::build_syn(0x0A000001, black_box(dst), 40000, 443, 7)
        })
    });
    group.bench_function("v6_syn_74B", |b| {
        let mut dst = 0x2600u128 << 112;
        b.iter(|| {
            dst = dst.wrapping_add(1);
            wire::build_syn_v6((0x2001_0db8u128 << 96) | 1, black_box(dst), 40000, 443, 7)
        })
    });
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_parse");
    group.throughput(Throughput::Elements(1));
    let v4 = wire::build_syn(1, 2, 3, 4, 5);
    group.bench_function("v4_validate", |b| {
        b.iter(|| wire::parse_frame(black_box(&v4)).expect("valid frame"))
    });
    let v6 = wire::build_syn_v6(1, 2, 3, 4, 5);
    group.bench_function("v6_validate", |b| {
        b.iter(|| wire::parse_frame_v6(black_box(&v6)).expect("valid frame"))
    });
    group.finish();
}

/// One /116-sized engine scan (4096 targets, every 4th responsive).
fn scan_v4(wire_level: bool) -> u64 {
    let hosts: Vec<u32> = (0..4096u32)
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
    let hosts: Vec<u128> = (0..4096u128)
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

fn bench_engine_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_engine_4096_probes");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("v4_logical", |b| b.iter(|| scan_v4(false)));
    group.bench_function("v4_wire", |b| b.iter(|| scan_v4(true)));
    group.bench_function("v6_logical", |b| b.iter(|| scan_v6(false)));
    group.bench_function("v6_wire", |b| b.iter(|| scan_v6(true)));
    group.finish();

    // the explicit overhead line: what full fidelity costs, per family
    let time = |f: &dyn Fn() -> u64| {
        let start = Instant::now();
        let mut probes = 0u64;
        for _ in 0..8 {
            probes += f();
        }
        (start.elapsed().as_secs_f64(), probes)
    };
    let (v4_logical, _) = time(&|| scan_v4(false));
    let (v4_wire, n4) = time(&|| scan_v4(true));
    let (v6_logical, _) = time(&|| scan_v6(false));
    let (v6_wire, n6) = time(&|| scan_v6(true));
    println!(
        "\nlogical-vs-wire overhead ({n4} v4 / {n6} v6 probes): \
         v4 {:.2}x ({:.0} ns -> {:.0} ns per probe), \
         v6 {:.2}x ({:.0} ns -> {:.0} ns per probe)\n",
        v4_wire / v4_logical,
        1e9 * v4_logical / n4 as f64,
        1e9 * v4_wire / n4 as f64,
        v6_wire / v6_logical,
        1e9 * v6_logical / n6 as f64,
        1e9 * v6_wire / n6 as f64,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_encode, bench_parse, bench_engine_paths
}
criterion_main!(benches);
