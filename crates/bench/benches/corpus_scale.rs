//! The corpus fast path at routed-v4 scale.
//!
//! Builds a synthetic-but-routed-shaped corpus — the paper's scopes:
//! ~2.8 B announced addresses carved from the IANA-allocated space by
//! the calibrated `SynthConfig` sweep — with millions of responsive
//! hosts per month, then measures the four claims of the corpus layer:
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
//!    The acceptance bar is a ≥ 4× speedup.
//! 3. **Warm replay wall-clock at 1/4 workers**: a 4-cell TASS matrix
//!    replayed off a fully-resident month cache. Reads take no
//!    exclusive lock, so added workers must not introduce a cache
//!    plateau (this container is 1-core, so the honest expectation is
//!    ratio ≈ 1, not a speedup).
//! 4. **Bounded-memory replay**: the same matrix under a hard
//!    `cache_bytes` ceiling a fifth of the corpus size, with peak RSS
//!    recorded; when the kernel lets us reset the RSS high-water mark
//!    (`/proc/self/clear_refs`), the bench *asserts* the replay phase
//!    stayed inside the corpus layer's cost model — cache ceiling, plus
//!    two transient snapshot buffers per worker, plus fixed slack. The
//!    process re-execs itself once with `MALLOC_MMAP_THRESHOLD_` pinned
//!    so evicted buffers actually leave RSS instead of lingering in
//!    glibc's per-thread arenas.
//!
//! Results go to `BENCH_corpus_scale.json` at the repo root. Set
//! `CORPUS_SCALE_QUICK=1` for the CI-sized run (same structure and
//! assertions, ~100× smaller corpus).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use tass_bgp::synth::{generate, SynthConfig};
use tass_bgp::{pfx2as, ScanUnit, SynthTable, ViewKind};
use tass_core::campaign::CampaignPool;
use tass_core::StrategyKind;
use tass_model::corpus::{
    migrate_corpus, stream_address_list_to_snapshot, CorpusBuilder, CorpusGroundTruth,
    CorpusOptions, IngestOptions,
};
use tass_model::{GroundTruth, HostSet, Protocol, Snapshot, Topology};
use tass_net::V4;

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

fn main() {
    // glibc's dynamic mmap threshold rises past the snapshot buffer
    // size after the first few frees, after which freed month buffers
    // are retained in per-thread heap arenas instead of returned to the
    // OS — RSS then measures allocator retention, not cache policy.
    // Pin the threshold (start-time-only tunable, hence the re-exec) so
    // snapshot-sized allocations stay mmap-backed and eviction is
    // visible to the RSS assertion.
    if std::env::var_os("MALLOC_MMAP_THRESHOLD_").is_none() {
        let exe = std::env::current_exe().expect("own path");
        let status = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .status()
            .expect("re-exec with pinned malloc threshold");
        std::process::exit(status.code().unwrap_or(1));
    }

    let quick = std::env::var("CORPUS_SCALE_QUICK").is_ok();
    let scale = if quick {
        Scale {
            l_prefix_count: 3_000,
            hosts_per_month: 60_000,
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
    if std::env::var("CORPUS_SCALE_GEN_ONLY").is_ok() {
        return;
    }

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
    eprintln!(
        "corpus_scale: ingest {:.2} M addrs/s sorted, {:.2} M addrs/s shuffled \
         ({n_m0} hosts); {} snapshots, {:.1} MiB total",
        ingest_aps / 1e6,
        ingest_shuffled_aps / 1e6,
        scale.months + 1,
        snapshot_bytes_total as f64 / (1 << 20) as f64,
    );

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

    // ---- cold month-load latency, before vs after
    let reps = if quick { 2 } else { 3 };
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
    let mut before_cold_secs = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let bytes = std::fs::read(&snap_path).unwrap();
        let snap: Snapshot = Snapshot::decode(&bytes).unwrap();
        let mut attributed = 0u64;
        for a in snap.hosts.iter() {
            if legacy_topo.block_of_addr(a).is_some() {
                attributed += 1;
            }
        }
        assert_eq!(attributed, snap.hosts.len() as u64);
        before_cold_secs = before_cold_secs.min(t.elapsed().as_secs_f64());
    }
    drop(legacy_topo);
    // after: the mapped load through the real corpus path (fresh corpus
    // per rep, so the month cache is cold every time)
    let mut after_cold_secs = f64::MAX;
    for _ in 0..reps {
        let corpus = CorpusGroundTruth::open(&dir).unwrap();
        let t = Instant::now();
        let snap = corpus.load_snapshot(1, Protocol::Http).unwrap();
        assert!(snap.hosts.is_mapped());
        after_cold_secs = after_cold_secs.min(t.elapsed().as_secs_f64());
    }
    let cold_speedup = before_cold_secs / after_cold_secs;
    eprintln!(
        "corpus_scale: cold month load {:.1} ms → {:.1} ms ({cold_speedup:.1}x)",
        before_cold_secs * 1e3,
        after_cold_secs * 1e3,
    );
    assert!(
        cold_speedup >= 4.0,
        "zero-copy cold load must be ≥ 4x over the legacy decode \
         (got {cold_speedup:.2}x)"
    );

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
    let t1 = Instant::now();
    let r1 = CampaignPool::serial().run_matrix(&corpus, &kinds, 7);
    let warm_w1_secs = t1.elapsed().as_secs_f64();
    let t4 = Instant::now();
    let r4 = CampaignPool::new(4).run_matrix(&corpus, &kinds, 7);
    let warm_w4_secs = t4.elapsed().as_secs_f64();
    assert_eq!(r1, r4, "replay is byte-identical at any worker count");
    let warm_ratio = warm_w1_secs / warm_w4_secs;
    drop(corpus);
    eprintln!(
        "corpus_scale: warm replay {warm_w1_secs:.2}s x1, {warm_w4_secs:.2}s x4 \
         ({warm_ratio:.2}x; 4 campaign cells)",
    );

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
    let rss_asserted = peak_reset;
    if peak_reset {
        assert!(
            replay_rss_delta <= rss_bound,
            "bounded replay RSS {replay_rss_delta} exceeds cache ceiling {cache_bytes} \
             + 4 workers x 2 snapshots ({max_snapshot_bytes} each) + slack {}",
            scale.rss_slack_bytes
        );
    }
    eprintln!(
        "corpus_scale: bounded replay {bounded_secs:.2}s under {:.1} MiB ceiling, \
         phase RSS +{:.1} MiB of {:.1} MiB budget (assert {})",
        cache_bytes as f64 / (1 << 20) as f64,
        replay_rss_delta as f64 / (1 << 20) as f64,
        rss_bound as f64 / (1 << 20) as f64,
        if rss_asserted {
            "on"
        } else {
            "off: clear_refs denied"
        },
    );

    let record = format!(
        concat!(
            "{{\"bench\":\"corpus_scale\",\"quick\":{},",
            "\"announced_addresses\":{},\"table_prefixes\":{},\"scan_units\":{},",
            "\"snapshots\":{},\"hosts_per_month\":{},\"snapshot_bytes_total\":{},",
            "\"ingest_addrs_per_sec\":{:.0},\"ingest_shuffled_addrs_per_sec\":{:.0},",
            "\"migrate_secs\":{:.3},",
            "\"before_cold_load_ms\":{:.2},\"after_cold_load_ms\":{:.2},",
            "\"cold_load_speedup\":{:.2},",
            "\"warm_replay_secs_w1\":{:.3},\"warm_replay_secs_w4\":{:.3},",
            "\"warm_w1_over_w4\":{:.2},",
            "\"cache_bytes_ceiling\":{},\"bounded_replay_secs\":{:.3},",
            "\"bounded_replay_rss_delta_bytes\":{},\"rss_bound_bytes\":{},",
            "\"rss_ceiling_asserted\":{},",
            "\"note\":\"ingest = the month-0 list as rendered (sorted); ",
            "ingest_shuffled = a seeded shuffle of it, as scanners emit. ",
            "before = legacy cold load reconstructed inline (decode ",
            "rebuilds every host Vec, then one trie walk per host); after = ",
            "mapped decode + covered-count sweep, read-optimized month cache, ",
            "byte-ceiling eviction. rss bound = ceiling + 4 workers x 2 ",
            "transient snapshot buffers + slack. 1-core container: warm w1/w4 ",
            "~ 1 means no cache plateau, not a parallel speedup.\"}}\n"
        ),
        quick,
        announced,
        synth.table.len(),
        view.len(),
        scale.months + 1,
        scale.hosts_per_month,
        snapshot_bytes_total,
        ingest_aps,
        ingest_shuffled_aps,
        migrate_secs,
        before_cold_secs * 1e3,
        after_cold_secs * 1e3,
        cold_speedup,
        warm_w1_secs,
        warm_w4_secs,
        warm_ratio,
        cache_bytes,
        bounded_secs,
        replay_rss_delta,
        rss_bound,
        rss_asserted,
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_corpus_scale.json");
    std::fs::write(&path, &record).expect("write BENCH_corpus_scale.json");
    eprintln!("corpus_scale → {}", path.display());
    let _ = std::fs::remove_dir_all(&dir);
}
