//! Scenario sanity: does the synthetic Internet match the paper's
//! dataset statistics?
//!
//! The paper reports for the CAIDA 2015/09/07 table: 595,644 prefixes,
//! 54 % m-prefixes, m-prefixes covering 34.4 % of advertised space, and
//! hitrates (responsive/advertised) under 2 % for all protocols. This
//! exhibit prints our analogues so every other exhibit can be read in
//! context.

use crate::table::{f3, pct, thousands, TextTable};
use crate::{ExhibitOutput, Scenario};
use tass_model::Protocol;

/// Run the exhibit.
pub fn run(s: &Scenario) -> ExhibitOutput {
    let topo = s.universe.topology();
    let stats = topo.synth.table.stats();

    let mut t = TextTable::new(["statistic", "paper (2015/09/07)", "this scenario"]);
    t.row([
        "table entries".to_string(),
        "595,644".to_string(),
        thousands(stats.entries as u64),
    ]);
    t.row([
        "l-prefixes".to_string(),
        "~275,000".to_string(),
        thousands(stats.l_prefixes as u64),
    ]);
    t.row([
        "m-prefix share".to_string(),
        "0.54".to_string(),
        f3(stats.m_share),
    ]);
    t.row([
        "m-prefix space share".to_string(),
        "0.344".to_string(),
        f3(stats.m_space_share),
    ]);
    t.row([
        "advertised addresses".to_string(),
        "~2.8 billion".to_string(),
        thousands(stats.advertised_addrs),
    ]);
    t.row([
        "scan units (l-view)".to_string(),
        "~275,000".to_string(),
        thousands(topo.l_view.len() as u64),
    ]);
    t.row([
        "scan units (m-view)".to_string(),
        "~600,000+".to_string(),
        thousands(topo.m_view.len() as u64),
    ]);

    let mut hosts = TextTable::new(["protocol", "hosts at t0", "hitrate vs advertised"]);
    for proto in Protocol::ALL {
        let n = s.universe.snapshot(0, proto).len() as u64;
        hosts.row([
            proto.name().to_string(),
            thousands(n),
            pct(n as f64 / stats.advertised_addrs as f64),
        ]);
    }

    let text = format!(
        "Calibration: synthetic topology vs the paper's dataset\n\n{}\n\
         Host populations (model scale; the paper's absolute counts are \
         ~20-50x larger,\nall evaluation quantities are ratios and scale \
         out — see the tass-model population docs):\n\n{}",
        t.render(),
        hosts.render()
    );
    ExhibitOutput {
        id: "calibration",
        title: "Scenario calibration vs paper dataset statistics",
        text,
        csv: vec![("calibration_hosts".into(), hosts.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;

    #[test]
    fn renders_and_reports() {
        let s = Scenario::build(&ScenarioConfig::small(3));
        let out = run(&s);
        assert_eq!(out.id, "calibration");
        assert!(out.text.contains("m-prefix share"));
        assert!(out.text.contains("FTP"));
        assert_eq!(out.csv.len(), 1);
        assert!(out.csv[0].1.lines().count() >= 5);
    }
}
