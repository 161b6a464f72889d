//! The cycle loop: strategy selection, per-cycle feedback, re-ranking,
//! the sharded campaign matrix and the streaming plan path.
//!
//! Rows, all medians with quartiles (see the `tass_bench` docs):
//!
//! * `cycle_loop` — cycles per second (`cps`) of
//!   `CampaignPool::run_matrix` over the 4-protocol matrix, with the
//!   bytes allocated per cycle (a counting global allocator: the
//!   copy-free feedback claim is an allocation claim, so it is
//!   measured, not asserted). Swept for each feedback strategy
//!   (`Tass`, `ReseedingTass`, `AdaptiveTass`) at 1/2/4 workers, and
//!   for the standard matrix — one strategy of every cost class — at
//!   1/2/4/8 workers;
//! * `matrix_speedup` — the standard matrix's serial median over its
//!   4-worker median. Campaigns are independent, so on an N-core
//!   machine this should be ≥ 2×; on one core it honestly reads ~1×.
//!   The pooled results are asserted byte-identical to serial;
//! * `plan_stream` — addresses per second of a full-scan `ProbePlan`
//!   streamed over a /10 of space (4M addresses) with O(1) state per
//!   prefix, never materialising the target vector.
//!
//! Results go to `BENCH_campaign.json` at the repo root. No baseline is
//! pinned: a comparison is only meaningful against the parent revision
//! built and run on the same machine. `BENCH_QUICK=1` shrinks the rep
//! count for CI; cycle counts and allocation numbers are deterministic
//! either way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use tass_bench::{fixed, reps, scenario, time, Report, Row};
use tass_bgp::ViewKind;
use tass_core::campaign::CampaignPool;
use tass_core::{ProbePlan, StrategyKind};
use tass_net::Prefix;

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

const MORE: ViewKind = ViewKind::MoreSpecific;

const TASS: StrategyKind = StrategyKind::Tass {
    view: MORE,
    phi: 0.95,
};

fn reseeding(delta_t: u32) -> StrategyKind {
    StrategyKind::ReseedingTass {
        view: MORE,
        phi: 0.95,
        delta_t,
    }
}

/// The standard matrix: one strategy of every cost class.
fn standard_matrix() -> Vec<StrategyKind> {
    vec![
        StrategyKind::FullScan,
        TASS,
        StrategyKind::IpHitlist,
        reseeding(3),
    ]
}

/// The sweep: every strategy whose cycle loop reads the ranking or the
/// per-cycle responsive set at 1/2/4 workers, then the standard matrix
/// at 1/2/4/8 workers.
fn sweep() -> Vec<(&'static str, Vec<StrategyKind>, &'static [usize])> {
    let adaptive = StrategyKind::AdaptiveTass {
        view: MORE,
        phi: 0.90,
        explore: 0.05,
    };
    vec![
        ("tass", vec![TASS], &[1, 2, 4]),
        ("reseeding_tass", vec![reseeding(2)], &[1, 2, 4]),
        ("adaptive_tass", vec![adaptive], &[1, 2, 4]),
        ("standard_matrix", standard_matrix(), &[1, 2, 4, 8]),
    ]
}

/// The /10 full-scan stream: addresses per second, never materialised.
fn plan_stream_row(report: &mut Report, reps: usize) {
    // a /10 of space (4M addresses) as three uneven announced prefixes
    let announced: Vec<Prefix> = ["10.0.0.0/11", "10.32.0.0/12", "10.48.0.0/12"]
        .iter()
        .map(|p| p.parse().unwrap())
        .collect();
    let space: u64 = announced.iter().map(|p| p.size()).sum();
    let t = time(reps, || {
        ProbePlan::All
            .stream(0, black_box(&announced), 0xF00D)
            .fold(0u64, |acc, a| acc ^ u64::from(a))
    });
    report.row(
        Row::new("plan_stream")
            .set("plan", "full_scan_slash10")
            .set("addresses", space)
            .rate("addrs_per_sec", &t, space as f64, 0),
    );
}

fn main() {
    // `cargo bench` passes harness flags; ignore them.
    let reps = reps(8, 2);
    let s = scenario();
    let mut report = Report::new("campaign", Some("BENCH_campaign.json"));
    let mut matrix_cycles = None;
    let mut standard_medians = Vec::new();
    for (name, kinds, workers_list) in sweep() {
        for &workers in workers_list {
            let pool = CampaignPool::new(workers);
            let mut cycles = None;
            let alloc0 = ALLOCATED.load(Ordering::Relaxed);
            let t = time(reps, || {
                let c: u64 = pool
                    .run_matrix(&s.universe, &kinds, 7)
                    .iter()
                    .map(|r| r.months.len() as u64)
                    .sum();
                // deterministic: every rep runs the same cycles
                assert_eq!(*cycles.get_or_insert(c), c);
            });
            let cycles = cycles.expect("timed at least once");
            // the warm-up call allocates like every timed one
            let calls = reps as u64 + 1;
            let allocated = ALLOCATED.load(Ordering::Relaxed) - alloc0;
            matrix_cycles.get_or_insert(cycles);
            if name == "standard_matrix" {
                standard_medians.push((workers, t.median));
            }
            report.row(
                Row::new("cycle_loop")
                    .set("strategy", name)
                    .set("workers", workers)
                    .set("cycles", cycles)
                    .rate("cps", &t, cycles as f64, 0)
                    .set("alloc_bytes_per_cycle", allocated / (cycles * calls)),
            );
        }
    }

    // the headline scaling number, from the standard matrix's rows, and
    // the check that makes it a fair comparison
    let median_at = |w| standard_medians.iter().find(|&&(n, _)| n == w).unwrap().1;
    let kinds = standard_matrix();
    let serial = CampaignPool::serial().run_matrix(&s.universe, &kinds, 7);
    let pooled = CampaignPool::new(4).run_matrix(&s.universe, &kinds, 7);
    assert_eq!(serial, pooled, "pooled matrix must be byte-identical");
    report.row(
        Row::new("matrix_speedup")
            .set("workers", 4usize)
            .set("speedup", fixed(median_at(1) / median_at(4), 2))
            .set(
                "cores",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            ),
    );

    plan_stream_row(&mut report, reps);

    report
        .head()
        .set("matrix_cycles", matrix_cycles.expect("sweep is not empty"))
        .set("reps", reps)
        .set("peak_live_heap_bytes", PEAK.load(Ordering::Relaxed));
    report.finish();
}
