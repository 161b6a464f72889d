//! One bench per paper exhibit: regenerates each table/figure at bench
//! scale and measures the cost of doing so. The measured *values* land in
//! `results/` when run through the `repro` binary; these benches guard the
//! *cost* of every step of the reproduction pipeline, exhibits picked
//! from the index in `tass_experiments::exhibits::all`:
//!
//! | bench               | exhibit            |
//! |---------------------|--------------------|
//! | `fig1_scoping`      | Figure 1           |
//! | `fig2_deagg`        | Figure 2           |
//! | `fig3_lengths`      | Figure 3           |
//! | `fig4_rank`         | Figure 4           |
//! | `table1_selection`  | Table 1            |
//! | `sec34_stats`       | §3.4 statistics    |
//! | `fig5_hitlist`      | Figure 5           |
//! | `fig6_campaign`     | Figure 6 (a and b) |
//! | `efficiency_claims` | abstract / §5      |
//! | `ablation_random`   | ablation (ours)    |
//! | `adaptive_feedback` | feedback loop (ours) |
//! | `scan_validation`   | engine-in-the-loop |
//! | `universe_generation` | the seeding "full scan" itself |

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tass_bench::scenario;
use tass_experiments::exhibits;
use tass_experiments::{Scenario, ScenarioConfig};

fn bench_exhibit(c: &mut Criterion, bench_name: &str, id: &str) {
    let s = scenario();
    let f = exhibits::by_id(id).unwrap_or_else(|| panic!("exhibit {id} missing"));
    c.bench_function(bench_name, |b| b.iter(|| f(black_box(s)).text.len()));
}

fn exhibits_benches(c: &mut Criterion) {
    bench_exhibit(c, "fig1_scoping", "fig1");
    bench_exhibit(c, "fig2_deagg", "fig2");
    bench_exhibit(c, "fig3_lengths", "fig3");
    bench_exhibit(c, "fig4_rank", "fig4");
    bench_exhibit(c, "table1_selection", "table1");
    bench_exhibit(c, "sec34_stats", "sec34");
    bench_exhibit(c, "fig5_hitlist", "fig5");
    bench_exhibit(c, "fig6_campaign", "fig6a");
    bench_exhibit(c, "efficiency_claims", "efficiency");
    bench_exhibit(c, "ablation_random", "ablation");
    bench_exhibit(c, "adaptive_feedback", "adaptive");
    bench_exhibit(c, "scan_validation", "scan_validation");
}

fn universe_generation(c: &mut Criterion) {
    c.bench_function("universe_generation", |b| {
        b.iter(|| {
            let cfg = ScenarioConfig {
                seed: 0x17EA,
                l_prefix_count: 200,
                host_scale: 1.0,
                months: 6,
            };
            Scenario::build(black_box(&cfg))
                .universe
                .snapshot(6, tass_model::Protocol::Http)
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = exhibits_benches, universe_generation
}
criterion_main!(benches);
