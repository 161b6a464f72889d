//! Table 1: IPv4 address-space coverage of the protocols at coverage
//! targets φ ∈ {1, 0.99, 0.95, 0.7, 0.5}, for less- and more-specific
//! prefixes.
//!
//! The paper's central cost table: how much of the announced space must be
//! scanned to keep a fraction φ of the hosts. The measured values are
//! printed side by side with the paper's, and the per-cell numbers are
//! also emitted as CSV (`repro` writes it under `results/` by default).

use crate::table::{f3, TextTable};
use crate::{ExhibitOutput, Scenario};
use tass_core::density::rank_units;
use tass_core::select::select_prefixes;
use tass_model::Protocol;

/// The φ grid of the paper's Table 1.
pub const PHI_GRID: [f64; 5] = [1.0, 0.99, 0.95, 0.7, 0.5];

/// The paper's Table 1, for comparison: `paper_values[view][phi][protocol]`
/// with view 0 = less specific, 1 = more specific; protocols in
/// FTP, HTTP, HTTPS, CWMP order.
pub const PAPER_TABLE1: [[[f64; 4]; 5]; 2] = [
    [
        [0.762, 0.828, 0.832, 0.477],
        [0.470, 0.548, 0.542, 0.142],
        [0.273, 0.362, 0.343, 0.099],
        [0.031, 0.064, 0.065, 0.043],
        [0.008, 0.021, 0.024, 0.024],
    ],
    [
        [0.574, 0.648, 0.645, 0.332],
        [0.371, 0.440, 0.427, 0.113],
        [0.206, 0.279, 0.262, 0.085],
        [0.023, 0.048, 0.052, 0.037],
        [0.006, 0.017, 0.020, 0.021],
    ],
];

/// Compute the measured Table 1 cells: `[view][phi][protocol]`.
pub fn measure(s: &Scenario) -> [[[f64; 4]; 5]; 2] {
    let topo = s.universe.topology();
    let mut out = [[[0.0f64; 4]; 5]; 2];
    for (vi, view) in [&topo.l_view, &topo.m_view].into_iter().enumerate() {
        for proto in Protocol::ALL {
            let rank = rank_units(view, &s.universe.snapshot(0, proto).hosts);
            for (pi, &phi) in PHI_GRID.iter().enumerate() {
                let sel = select_prefixes(&rank, phi);
                out[vi][pi][proto.index()] = sel.space_fraction;
            }
        }
    }
    out
}

/// Run the exhibit.
pub fn run(s: &Scenario) -> ExhibitOutput {
    let measured = measure(s);
    let mut text = String::from(
        "Table 1: IPv4 address-space coverage at host-coverage targets phi\n\
         (measured | paper) — lower is cheaper scanning.\n\n",
    );
    let mut csv = TextTable::new(["view", "phi", "protocol", "measured", "paper"]);

    for (vi, vname) in [(0usize, "less specific"), (1usize, "more specific")] {
        let mut t = TextTable::new(["phi", "FTP", "HTTP", "HTTPS", "CWMP"]);
        for (pi, &phi) in PHI_GRID.iter().enumerate() {
            let cells: Vec<String> = (0..4)
                .map(|proto| {
                    format!(
                        "{} | {}",
                        f3(measured[vi][pi][proto]),
                        f3(PAPER_TABLE1[vi][pi][proto])
                    )
                })
                .collect();
            let mut row = vec![format!("{phi}")];
            row.extend(cells);
            t.row(row);
            for proto in Protocol::ALL {
                csv.row([
                    vname.to_string(),
                    phi.to_string(),
                    proto.name().to_string(),
                    format!("{:.4}", measured[vi][pi][proto.index()]),
                    format!("{:.4}", PAPER_TABLE1[vi][pi][proto.index()]),
                ]);
            }
        }
        text.push_str(&format!("{vname} prefixes:\n{}\n", t.render()));
    }
    text.push_str(
        "Shape checks (paper): coverage drops steeply as phi is relaxed\n\
         (phi 1 -> 0.99 alone cuts 20-30+ points); CWMP is far cheaper than\n\
         the web protocols at phi = 1; the more-specific view is cheaper\n\
         than the less-specific view at every phi.\n",
    );
    ExhibitOutput {
        id: "table1",
        title: "Address-space coverage at phi targets (Table 1)",
        text,
        csv: vec![("table1".into(), csv.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;

    #[test]
    #[allow(clippy::needless_range_loop)] // indexing a 3-D measurement cube
    fn table1_shape_holds() {
        let s = Scenario::build(&ScenarioConfig::small(3));
        let m = measure(&s);
        for vi in 0..2 {
            for proto in 0..4 {
                // monotone in phi
                for pi in 1..PHI_GRID.len() {
                    assert!(
                        m[vi][pi][proto] <= m[vi][pi - 1][proto] + 1e-12,
                        "space coverage must shrink as phi relaxes"
                    );
                }
            }
        }
        // m-view cheaper than l-view at phi=1 for every protocol
        for proto in 0..4 {
            assert!(
                m[1][0][proto] < m[0][0][proto],
                "more-specific must be cheaper at phi=1 (proto {proto})"
            );
        }
        // CWMP (index 3) cheaper than HTTP (1) at phi=1, l-view
        assert!(m[0][0][3] < m[0][0][1]);
        // phi=0.5 is dramatically cheap (paper: <= 2.4% everywhere)
        for vi in 0..2 {
            for proto in 0..4 {
                assert!(
                    m[vi][4][proto] < 0.15,
                    "phi=0.5 should cost little space, got {}",
                    m[vi][4][proto]
                );
            }
        }
    }

    #[test]
    fn renders_with_paper_comparison() {
        let s = Scenario::build(&ScenarioConfig::small(3));
        let out = run(&s);
        assert!(out.text.contains("less specific prefixes:"));
        assert!(out.text.contains("more specific prefixes:"));
        assert!(out.text.contains("0.762"), "paper value must be shown");
        // csv: 2 views x 5 phis x 4 protocols = 40 data rows + header
        assert_eq!(out.csv[0].1.lines().count(), 41);
    }
}
