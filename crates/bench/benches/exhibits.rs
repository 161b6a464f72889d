//! One bench per paper exhibit: regenerates each table/figure at bench
//! scale and measures the cost of doing so. The measured *values* land in
//! `results/` when run through the `repro` binary; these benches guard the
//! *cost* of every step of the reproduction pipeline, exhibits picked
//! from the index in `tass_experiments::exhibits::all` (`EXHIBITS` maps
//! each row name to its exhibit id), plus `universe_generation`, the
//! seeding "full scan" itself.
//!
//! Each row is the median time with its quartiles (see the `tass_bench`
//! docs). Rows are printed, not written to a file.

use std::hint::black_box;
use tass_bench::{reps, scenario, time, Report, Row};
use tass_experiments::exhibits;
use tass_experiments::{Scenario, ScenarioConfig};

const EXHIBITS: [(&str, &str); 12] = [
    ("fig1_scoping", "fig1"),
    ("fig2_deagg", "fig2"),
    ("fig3_lengths", "fig3"),
    ("fig4_rank", "fig4"),
    ("table1_selection", "table1"),
    ("sec34_stats", "sec34"),
    ("fig5_hitlist", "fig5"),
    ("fig6_campaign", "fig6a"),
    ("efficiency_claims", "efficiency"),
    ("ablation_random", "ablation"),
    ("adaptive_feedback", "adaptive"),
    ("scan_validation", "scan_validation"),
];

fn main() {
    let reps = reps(10, 2);
    let s = scenario();
    let mut report = Report::new("exhibits", None);
    for (name, id) in EXHIBITS {
        let f = exhibits::by_id(id).unwrap_or_else(|| panic!("exhibit {id} missing"));
        let t = time(reps, || f(black_box(s)).text.len());
        report.row(
            Row::new("exhibit")
                .set("name", name)
                .set("exhibit", id)
                .time("ms", &t, 1e3, 3),
        );
    }
    let t = time(reps, || {
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
    });
    report.row(
        Row::new("exhibit")
            .set("name", "universe_generation")
            .time("ms", &t, 1e3, 3),
    );
    report.finish();
}
