//! The corpus fast path at routed-v4 scale, and the snapshot codec and
//! month-load path under it.
//!
//! Builds a synthetic-but-routed-shaped corpus — the paper's scopes:
//! ~2.8 B announced addresses carved from the IANA-allocated space by
//! the calibrated `SynthConfig` sweep — with millions of responsive
//! hosts per month, then measures the four claims of the corpus layer
//! (top-level fields of the report):
//!
//! 1. **Ingest throughput**: month 0 is ingested from a plain-text
//!    address list through the chunked parallel streaming path
//!    (`stream_address_list_to_snapshot`), recorded as addresses/sec,
//!    once as rendered (sorted) and once as a seeded shuffle (the order
//!    scanners such as ZMap emit).
//! 2. **Cold month-load latency**: *before* = the legacy load
//!    reconstructed inline (decode every host into a fresh `Vec`, then
//!    attribute each host through the topology trie, as the pre-mapped
//!    `load_from_disk` did); *after* = the mapped load
//!    (`Snapshot::decode_mapped` + the covered-count topology sweep).
//!    The acceptance bar is a ≥ 4× speedup of the medians.
//! 3. **Warm replay wall-clock at 1/4 workers**: a 4-cell TASS matrix
//!    replayed off a fully-resident month cache. Reads take no
//!    exclusive lock, so added workers must not introduce a cache
//!    plateau (on one core the honest expectation is ratio ≈ 1, not a
//!    speedup).
//! 4. **Bounded-memory replay**: the same matrix under a hard
//!    `cache_bytes` ceiling a fifth of the corpus size, with peak RSS
//!    recorded; when the kernel lets us reset the RSS high-water mark
//!    (`/proc/self/clear_refs`), the bench *asserts* the replay phase
//!    stayed inside the corpus layer's cost model — cache ceiling, plus
//!    two transient snapshot buffers per worker, plus fixed slack. Before
//!    building the corpus the bench fixes glibc's mmap threshold at
//!    128 KiB so evicted buffers actually leave RSS instead of lingering
//!    in glibc's per-thread arenas.
//!
//! Its rows measure the pieces on a small scale:
//!
//! * `snapshot_codec` — a 50k-host snapshot per family (4-byte v4 vs
//!   16-byte v6 addresses) through the formats the corpus uses:
//!   `encode_aligned` (what the builder writes), `decode` (full
//!   validation into an owned host set) and `decode_mapped` (the
//!   validated zero-copy read every month load takes);
//! * `month_load` — what a replaying campaign pays per month:
//!   `CorpusGroundTruth::load_snapshot` from disk (read, mapped decode,
//!   topology check) with a one-month cache, and from a warm cache.
//!
//! The rows run first, under the allocator's default (dynamic) mmap
//! threshold, the setup tassd and the replaying campaigns run with.
//!
//! Results go to `BENCH_corpus_scale.json` at the repo root. Set
//! `BENCH_QUICK=1` for the CI-sized run: same structure and assertions,
//! 250 k hosts a month over a 3 k-prefix table instead of 2 M over 400 k.
//! Fewer hosts let the mapped load's fixed per-call cost crowd the ≥ 4×
//! cold-load gate (on a 2-vCPU x86 box, 60 k hosts read 3.75–4.9×;
//! 250 k read 6–7.7×).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;
use tass_bench::{fixed, quick, reps, time, time_setup, Report, Row};
use tass_bgp::synth::{generate, SynthConfig};
use tass_bgp::{pfx2as, ScanUnit, SynthTable, ViewKind};
use tass_core::campaign::CampaignPool;
use tass_core::StrategyKind;
use tass_model::corpus::{
    export_universe, migrate_corpus, stream_address_list_to_snapshot, CorpusBuilder,
    CorpusGroundTruth, CorpusOptions, IngestOptions,
};
use tass_model::{GroundTruth, HostSet, Protocol, Snapshot, Topology, Universe, UniverseConfig};
use tass_net::{AddrFamily, V4, V6};

/// One sweep cell's sizing, quick (CI) or full.
struct Scale {
    /// l-prefix budget for the synthetic table (full mode sets it high
    /// enough that the allocated-space sweep, not the budget, ends
    /// generation — that is what yields the ~2.8 B announced scope).
    l_prefix_count: usize,
    /// Responsive hosts per monthly snapshot.
    hosts_per_month: u64,
    /// Months after t₀ (snapshots = months + 1).
    months: u32,
    /// The bounded-replay cache ceiling, as a fraction of the total
    /// resident snapshot bytes (< 1 so eviction must actually happen).
    cache_fraction: f64,
    /// RSS slack over the ceiling for the bounded-replay assertion:
    /// covers strategy state, rank vectors, and allocator overhead.
    rss_slack_bytes: u64,
}

fn rss_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Reset the process RSS high-water mark so `VmHWM` measures only the
/// phase that follows. Returns false when the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// SplitMix64 — the deterministic per-host jitter for snapshot
/// generation (no global RNG state, so months are independent).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One month's responsive hosts: every scan unit contributes hosts in
/// proportion to its size (evenly-strided slots with hash jitter, so
/// the list is sorted and unique by construction), with per-month churn
/// in the jitter. ~`target` hosts total.
fn month_hosts(units: &[ScanUnit], month: u32, target: u64, announced: u64) -> Vec<u32> {
    let density = target as f64 / announced.max(1) as f64;
    let mut out = Vec::with_capacity((target + target / 16) as usize);
    for (ui, unit) in units.iter().enumerate() {
        let size = unit.prefix.size();
        let expected = size as f64 * density;
        let mut k = expected as u64;
        // fractional remainder: deterministic bernoulli per (month, unit)
        let h = mix64((u64::from(month) << 32) ^ ui as u64);
        if (h % 10_000) as f64 / 10_000.0 < expected.fract() {
            k += 1;
        }
        if k == 0 {
            continue;
        }
        let k = k.min(size);
        let slot = size / k;
        let first = unit.prefix.first();
        for j in 0..k {
            let jitter = mix64(h ^ (j << 1) ^ u64::from(month)) % slot.max(1);
            out.push(first + (j * slot + jitter) as u32);
        }
    }
    out
}

fn hosts_text(hosts: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(hosts.len() * 14);
    for &h in hosts {
        let o = h.to_be_bytes();
        writeln!(out, "{}.{}.{}.{}", o[0], o[1], o[2], o[3]).unwrap();
    }
    out
}

/// Hosts per `snapshot_codec` row.
const CODEC_HOSTS: usize = 50_000;

/// One family's codec rows: encode_aligned, decode, decode_mapped.
fn codec_rows<F: AddrFamily>(report: &mut Report, family: &str, snap: &Snapshot<F>, reps: usize) {
    let bytes = snap.encode_aligned();
    let timings = [
        ("encode_aligned", time(reps, || snap.encode_aligned())),
        (
            "decode",
            time(reps, || {
                Snapshot::<F>::decode(black_box(&bytes)).expect("valid")
            }),
        ),
        (
            "decode_mapped",
            time(reps, || {
                Snapshot::<F>::decode_mapped(black_box(bytes.clone())).expect("valid")
            }),
        ),
    ];
    for (op, t) in timings {
        report.row(
            Row::new("snapshot_codec")
                .set("op", op)
                .set("family", family)
                .set("hosts", CODEC_HOSTS)
                .time("us", &t, 1e6, 1)
                .rate("hosts_per_sec", &t, CODEC_HOSTS as f64, 0),
        );
    }
}

/// The month-load rows over a small exported universe: a one-month
/// cache with alternating months (every load reads the disk), and a
/// warm cache serving pointer clones.
fn month_load_rows(report: &mut Report, reps: usize) {
    let dir = std::env::temp_dir().join(format!("tass-month-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let universe = Universe::generate(&UniverseConfig::small(0xBE9C));
    export_universe(&universe, &dir).expect("corpus export");
    let hosts = universe.snapshot(0, Protocol::Http).len();
    let months = universe.months() + 1;

    let cold = CorpusGroundTruth::with_cache_capacity(&dir, 1).expect("corpus open");
    let mut month = 0u32;
    let cold_t = time(reps, || {
        month = (month + 1) % months;
        cold.load_snapshot(month, Protocol::Http)
            .expect("month loads")
    });
    // a cached load is a pointer clone: time a batch per sample
    const WARM_BATCH: u32 = 1024;
    let warm = CorpusGroundTruth::open(&dir).expect("corpus open");
    let warm_t = time(reps, || {
        for _ in 0..WARM_BATCH {
            black_box(warm.load_snapshot(black_box(0), Protocol::Http)).expect("cached month");
        }
    });
    for (cache, t, unit) in [
        ("cold", cold_t, 1e6),
        ("warm", warm_t, 1e6 / f64::from(WARM_BATCH)),
    ] {
        report.row(
            Row::new("month_load")
                .set("cache", cache)
                .set("hosts", hosts)
                .time("us", &t, unit, 3),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// glibc's dynamic mmap threshold rises past the snapshot buffer size
/// after the first few frees, after which freed month buffers are
/// retained in per-thread heap arenas instead of returned to the OS —
/// RSS then measures allocator retention, not cache policy. Fixing the
/// threshold (which also turns off its dynamic rise) keeps
/// snapshot-sized allocations mmap-backed, so eviction is visible to the
/// RSS assertion. The codec and month-load rows run before this, under
/// the allocator's defaults, as the daemon does.
fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt(3) takes two integers and only adjusts
        // allocator tunables; no pointers involved.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
        assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) refused");
    }
}

fn main() {
    let mut report = Report::new("corpus_scale", Some("BENCH_corpus_scale.json"));
    let codec_reps = reps(10, 3);
    let v4: Vec<u32> = (0..CODEC_HOSTS as u32)
        .map(|i| i.wrapping_mul(85_733))
        .collect();
    let v4 = Snapshot::new(Protocol::Http, 3, HostSet::<V4>::from_addrs(v4));
    codec_rows(&mut report, "v4", &v4, codec_reps);
    let v6: Vec<u128> = (0..CODEC_HOSTS as u128)
        .map(|i| (0x2600u128 << 112) | i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let v6 = Snapshot::new(Protocol::Http, 3, HostSet::<V6>::from_addrs(v6));
    codec_rows(&mut report, "v6", &v6, codec_reps);
    drop((v4, v6));
    month_load_rows(&mut report, codec_reps);
    // from here on the corpus phases run with a fixed threshold
    pin_mmap_threshold();

    let scale = if quick() {
        Scale {
            l_prefix_count: 3_000,
            hosts_per_month: 250_000,
            months: 15,
            cache_fraction: 0.2,
            rss_slack_bytes: 48 << 20,
        }
    } else {
        Scale {
            l_prefix_count: 400_000,
            hosts_per_month: 2_000_000,
            months: 15,
            cache_fraction: 0.2,
            rss_slack_bytes: 48 << 20,
        }
    };

    let dir = std::env::temp_dir().join(format!("tass-corpus-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- topology: the routed-shaped synthetic table
    let t0 = Instant::now();
    let synth = generate(&SynthConfig {
        seed: 0x2b11,
        l_prefix_count: scale.l_prefix_count,
        // with backfill the announced share runs ~15 points above the
        // nominal fraction (the recovered remainders are announced
        // too); 0.68 nominal lands at the paper's ~2.8 B
        announced_fraction: 0.68,
        backfill_gaps: true,
        ..SynthConfig::default()
    });
    let view = tass_bgp::View::of(&synth.table, ViewKind::MoreSpecific);
    let announced = view.units().iter().map(|u| u.prefix.size()).sum::<u64>();
    eprintln!(
        "corpus_scale: table {} prefixes, {} units, {:.2} B addresses announced ({:.1?})",
        synth.table.len(),
        view.len(),
        announced as f64 / 1e9,
        t0.elapsed(),
    );

    // ---- build the corpus: month 0 through the streamed text path
    // (that is the ingest-throughput measurement), months 1.. as direct
    // snapshots; the migrate pass below downgrades and re-upgrades them.
    let mut builder = CorpusBuilder::create(&dir, &synth.table).expect("create corpus");
    let m0 = month_hosts(view.units(), 0, scale.hosts_per_month, announced);
    let list_path = dir.join("month0.txt");
    std::fs::write(&list_path, hosts_text(&m0)).expect("write month-0 list");
    let n_m0 = m0.len() as u64;
    let t_ingest = Instant::now();
    builder
        .add_address_list_file(0, Protocol::Http, &list_path, &IngestOptions::default())
        .expect("streamed ingest");
    let ingest_secs = t_ingest.elapsed().as_secs_f64();
    let ingest_aps = n_m0 as f64 / ingest_secs;
    // The rendered lists are sorted, which the merge exploits; scanner
    // output (ZMap) comes in permutation order. Ingest a seeded shuffle
    // of the same list too, and check it gives the same snapshot.
    let mut shuffled = m0;
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, (mix64(0x5AFF_1E5E ^ i as u64) % (i as u64 + 1)) as usize);
    }
    std::fs::write(&list_path, hosts_text(&shuffled)).expect("write shuffled month-0 list");
    drop(shuffled);
    let shuffled_snap = dir.join("month0-shuffled.snap");
    let t_shuffled = Instant::now();
    stream_address_list_to_snapshot::<V4>(
        &list_path,
        &shuffled_snap,
        0,
        Protocol::Http,
        &IngestOptions::default(),
    )
    .expect("streamed ingest of the shuffled list");
    let ingest_shuffled_aps = n_m0 as f64 / t_shuffled.elapsed().as_secs_f64();
    assert_eq!(
        std::fs::read(&shuffled_snap).expect("read shuffled ingest"),
        std::fs::read(dir.join("snapshots/m0-http.snap")).expect("read sorted ingest"),
        "ingest order must not change the snapshot"
    );
    let _ = std::fs::remove_file(&shuffled_snap);
    let _ = std::fs::remove_file(&list_path);
    let mut snapshot_bytes_total = 0u64;
    for m in 1..=scale.months {
        let hosts = month_hosts(view.units(), m, scale.hosts_per_month, announced);
        snapshot_bytes_total += hosts.len() as u64 * 4;
        let snap = Snapshot::new(Protocol::Http, m, HostSet::from_sorted_unique(hosts));
        builder.add_snapshot(&snap).expect("add snapshot");
    }
    snapshot_bytes_total += n_m0 * 4;
    builder.finish().expect("manifest");

    // ---- migrate months 1.. to the aligned layout. The builder writes
    // v2 natively, so stage a legacy corpus first (untimed): downgrade
    // months 1.. to the v1 layout, then time the in-place upgrade.
    for m in 1..=scale.months {
        let path = dir.join(format!("snapshots/m{m}-http.snap"));
        let bytes = std::fs::read(&path).expect("read snapshot");
        let snap: Snapshot = Snapshot::decode(&bytes).expect("decode snapshot");
        std::fs::write(&path, snap.encode()).expect("write legacy snapshot");
    }
    let t_migrate = Instant::now();
    let rewritten = migrate_corpus(&dir).expect("migrate");
    let migrate_secs = t_migrate.elapsed().as_secs_f64();
    assert_eq!(rewritten as u32, scale.months, "month 0 is already aligned");
    report
        .head()
        .set("announced_addresses", announced)
        .set("table_prefixes", synth.table.len())
        .set("scan_units", view.len())
        .set("snapshots", scale.months + 1)
        .set("hosts_per_month", scale.hosts_per_month)
        .set("snapshot_bytes_total", snapshot_bytes_total)
        .set("ingest_addrs_per_sec", fixed(ingest_aps, 0))
        .set(
            "ingest_shuffled_addrs_per_sec",
            fixed(ingest_shuffled_aps, 0),
        )
        .set("migrate_secs", fixed(migrate_secs, 3));

    // ---- cold month-load latency, before vs after (a few ms per call
    // at CI scale, ~0.1 s at full scale: the same reps either way, enough
    // for a steady median on a noisy runner)
    let cold_reps = 11;
    let snap_path = dir.join("snapshots/m1-http.snap");
    // before: the legacy load — decode every host into a fresh Vec,
    // then attribute each host through the topology trie
    let legacy_topo = {
        let text = std::fs::read_to_string(dir.join("topology.pfx2as")).unwrap();
        let table = pfx2as::read_table(text.as_bytes()).unwrap();
        Topology::build(SynthTable {
            table,
            ases: Vec::new(),
            class_by_asn: BTreeMap::new(),
        })
    };
    let before_cold = time(cold_reps, || {
        let bytes = std::fs::read(&snap_path).unwrap();
        let snap: Snapshot = Snapshot::decode(&bytes).unwrap();
        let mut attributed = 0u64;
        for a in snap.hosts.iter() {
            if legacy_topo.block_of_addr(a).is_some() {
                attributed += 1;
            }
        }
        assert_eq!(attributed, snap.hosts.len() as u64);
        snap
    });
    drop(legacy_topo);
    // after: the mapped load through the real corpus path (fresh corpus
    // per call, opened untimed, so the month cache is cold every time)
    let after_cold = time_setup(
        cold_reps,
        || CorpusGroundTruth::open(&dir).unwrap(),
        |corpus| {
            let snap = corpus.load_snapshot(1, Protocol::Http).unwrap();
            assert!(snap.hosts.is_mapped());
            (snap, corpus)
        },
    );
    let cold_speedup = before_cold.median / after_cold.median;
    assert!(
        cold_speedup >= 4.0,
        "zero-copy cold load must be ≥ 4x over the legacy decode \
         (got {cold_speedup:.2}x)"
    );
    report
        .head()
        .time("before_cold_load_ms", &before_cold, 1e3, 2)
        .time("after_cold_load_ms", &after_cold, 1e3, 2)
        .set("cold_load_speedup", fixed(cold_speedup, 2));

    // ---- warm replay at 1 and 4 workers (fully resident cache)
    let kinds: Vec<StrategyKind> = [0.90, 0.93, 0.95, 0.97]
        .iter()
        .map(|&phi| StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi,
        })
        .collect();
    let all_resident = CorpusOptions {
        cache_snapshots: scale.months as usize + 1,
        cache_bytes: None,
    };
    let corpus = CorpusGroundTruth::open_with(&dir, &all_resident).unwrap();
    corpus.validate().unwrap(); // also warms the cache: every month stays
    let reps = reps(3, 2);
    let mut r1 = Vec::new();
    let warm_w1 = time(reps, || {
        r1 = CampaignPool::serial().run_matrix(&corpus, &kinds, 7)
    });
    let mut r4 = Vec::new();
    let warm_w4 = time(reps, || {
        r4 = CampaignPool::new(4).run_matrix(&corpus, &kinds, 7)
    });
    assert_eq!(r1, r4, "replay is byte-identical at any worker count");
    let warm_ratio = warm_w1.median / warm_w4.median;
    drop(corpus);
    report
        .head()
        .time("warm_replay_secs_w1", &warm_w1, 1.0, 3)
        .time("warm_replay_secs_w4", &warm_w4, 1.0, 3)
        .set("warm_w1_over_w4", fixed(warm_ratio, 2));

    // ---- bounded-memory replay under a hard byte ceiling
    let cache_bytes = (snapshot_bytes_total as f64 * scale.cache_fraction) as u64;
    let rss_before = rss_field("VmRSS:");
    let peak_reset = reset_peak_rss();
    let bounded = CorpusOptions {
        cache_snapshots: scale.months as usize + 1,
        cache_bytes: Some(cache_bytes as usize),
    };
    let corpus = CorpusGroundTruth::open_with(&dir, &bounded).unwrap();
    let tb = Instant::now();
    let rb = CampaignPool::new(4).run_matrix(&corpus, &kinds, 7);
    let bounded_secs = tb.elapsed().as_secs_f64();
    assert_eq!(rb, r1, "the cache ceiling must not change results");
    let peak_rss = rss_field("VmHWM:");
    let replay_rss_delta = peak_rss.saturating_sub(rss_before);
    // The cost model the corpus layer promises: the month cache holds at
    // most `cache_bytes`, and each replay worker transiently pins up to
    // two snapshot buffers of its own (the month it is evaluating plus
    // the one it is loading, both possibly already evicted from the
    // cache). Everything else — rank vectors, selections — is the
    // slack.
    let max_snapshot_bytes = n_m0.max(scale.hosts_per_month + scale.hosts_per_month / 8) * 4 + 64;
    let rss_bound = cache_bytes + 4 * 2 * max_snapshot_bytes + scale.rss_slack_bytes;
    if peak_reset {
        assert!(
            replay_rss_delta <= rss_bound,
            "bounded replay RSS {replay_rss_delta} exceeds cache ceiling {cache_bytes} \
             + 4 workers x 2 snapshots ({max_snapshot_bytes} each) + slack {}",
            scale.rss_slack_bytes
        );
    }

    report
        .head()
        .set("cache_bytes_ceiling", cache_bytes)
        .set("bounded_replay_secs", fixed(bounded_secs, 3))
        .set("bounded_replay_rss_delta_bytes", replay_rss_delta)
        .set("rss_bound_bytes", rss_bound)
        .set("rss_ceiling_asserted", peak_reset)
        .set(
            "note",
            concat!(
                "ingest = the month-0 list as rendered (sorted); ",
                "ingest_shuffled = a seeded shuffle of it, as scanners emit. ",
                "before = legacy cold load reconstructed inline (decode ",
                "rebuilds every host Vec, then one trie walk per host); after = ",
                "mapped decode + covered-count sweep, read-optimized month cache, ",
                "byte-ceiling eviction; both are medians of cold loads. rss bound = ",
                "ceiling + 4 workers x 2 transient snapshot buffers + slack. On one ",
                "core, warm w1/w4 ~ 1 means no cache plateau, not a parallel speedup."
            ),
        );
    report.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
