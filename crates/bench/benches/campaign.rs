//! The cycle loop: strategy selection, per-cycle feedback, re-ranking.
//!
//! PR 7 made the probe path lock-free and batched, so matrix campaigns
//! now spend their time in the *selection* layer. This sweep measures
//! cycles-per-second of `CampaignPool::run_matrix` over the standard
//! 4-protocol matrix for the feedback strategies (`Tass`,
//! `ReseedingTass`, `AdaptiveTass`) at 1/2/4 workers, plus the bytes
//! allocated per cycle on a serial run (a counting global allocator —
//! the copy-free feedback claim is an allocation claim, so it is
//! measured, not asserted). Results go to `BENCH_campaign.json` at the
//! repo root. No baseline is pinned: a comparison is only meaningful
//! against the parent revision built and run on the same machine.
//!
//! Runs fast enough for CI (set `CAMPAIGN_BENCH_QUICK=1` to shrink the
//! rep count); throughput varies with the machine, but the sweep
//! structure, cycle counts, and allocation numbers are deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;
use tass_bench::scenario;
use tass_bgp::ViewKind;
use tass_core::campaign::CampaignPool;
use tass_core::StrategyKind;

/// A pass-through allocator that counts every byte, so the bench can
/// report allocated-bytes-per-cycle and peak live heap for the cycle
/// loop itself.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static IN_USE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let live = IN_USE.fetch_add(layout.size() as i64, Ordering::Relaxed) + layout.size() as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        IN_USE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The feedback-strategy sweep: every strategy whose cycle loop reads
/// the ranking or the per-cycle responsive set.
fn sweep_kinds() -> Vec<(&'static str, StrategyKind)> {
    vec![
        (
            "tass",
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
        ),
        (
            "reseeding_tass",
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 2,
            },
        ),
        (
            "adaptive_tass",
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.90,
                explore: 0.05,
            },
        ),
    ]
}

/// One timed cell: cycles/s of the 4-protocol matrix for one strategy
/// at a worker count, plus (allocated bytes, cycles) for the runs.
fn measure(
    universe: &tass_model::Universe,
    kind: StrategyKind,
    workers: usize,
    reps: usize,
) -> (f64, u64, u64) {
    let pool = if workers == 1 {
        CampaignPool::serial()
    } else {
        CampaignPool::new(workers)
    };
    let kinds = [kind];
    // warm-up (also the cycle count: deterministic across reps)
    let cycles: u64 = pool
        .run_matrix(universe, &kinds, 7)
        .iter()
        .map(|r| r.months.len() as u64)
        .sum();
    let alloc0 = ALLOCATED.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..reps {
        let c: u64 = pool
            .run_matrix(universe, &kinds, 7)
            .iter()
            .map(|r| r.months.len() as u64)
            .sum();
        assert_eq!(c, cycles);
    }
    let secs = t0.elapsed().as_secs_f64();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - alloc0;
    (
        cycles as f64 * reps as f64 / secs,
        allocated / (cycles * reps as u64),
        cycles,
    )
}

fn main() {
    // `cargo bench` passes harness flags; ignore them.
    let quick = std::env::var("CAMPAIGN_BENCH_QUICK").is_ok();
    let reps = if quick { 2 } else { 8 };

    let s = scenario();
    let mut rows = String::new();
    let mut total_cycles = 0u64;
    for (name, kind) in sweep_kinds() {
        for workers in [1usize, 2, 4] {
            let (cps, bytes_per_cycle, cycles) = measure(&s.universe, kind, workers, reps);
            total_cycles = total_cycles.max(cycles);
            eprintln!(
                "campaign {name:>15} x{workers}: {cps:7.0} cycles/s, \
                 {bytes_per_cycle} B/cycle",
            );
            if !rows.is_empty() {
                rows.push(',');
            }
            rows.push_str(&format!(
                concat!(
                    "\n  {{\"strategy\":\"{}\",\"workers\":{},",
                    "\"cps\":{:.0},\"alloc_bytes_per_cycle\":{}}}"
                ),
                name, workers, cps, bytes_per_cycle
            ));
        }
    }

    let peak = PEAK.load(Ordering::Relaxed);
    let record = format!(
        concat!(
            "{{\"bench\":\"campaign\",\"matrix_cycles\":{},\"reps\":{},",
            "\"peak_live_heap_bytes\":{},\"sweep\":[{}\n]}}\n"
        ),
        total_cycles, reps, peak, rows
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    std::fs::write(&path, &record).expect("write BENCH_campaign.json");
    eprintln!("campaign sweep → {}", path.display());
}
