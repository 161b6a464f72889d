//! The paper's quoted claims, asserted one by one against the simulation.
//!
//! Each test quotes the sentence it checks. Bands are widened to what a
//! calibrated simulation can promise across seeds (`repro` prints the
//! point values of the default scenario), but every *ordering* and
//! *order of magnitude* is asserted strictly.

use tass::bgp::ViewKind;
use tass::core::campaign::run_campaign;
use tass::core::density::rank_units;
use tass::core::metrics::{efficiency_ratio, monthly_decay};
use tass::core::select::select_prefixes;
use tass::core::strategy::StrategyKind;
use tass::model::{Protocol, Universe, UniverseConfig};

fn universe() -> Universe {
    Universe::generate(&UniverseConfig::small(0xC1A1))
}

/// "we can reduce scan traffic between 25-90% and miss only 1-10% of the
/// hosts, depending on desired trade-offs and protocols" (abstract).
#[test]
fn abstract_traffic_reduction_vs_miss() {
    let u = universe();
    for proto in Protocol::ALL {
        let t0 = u.snapshot(0, proto);
        let rank = rank_units(&u.topology().m_view, &t0.hosts);
        for phi in [0.99, 0.95] {
            let sel = select_prefixes(&rank, phi);
            let reduction = 1.0 - sel.space_fraction;
            assert!(
                reduction >= 0.25,
                "{proto} phi={phi}: traffic reduction {reduction} below the paper's floor"
            );
            let t6 = u.snapshot(6, proto);
            let found: u64 = sel
                .sorted_prefixes()
                .iter()
                .map(|p| t6.hosts.count_in_prefix(*p) as u64)
                .sum();
            let miss = 1.0 - found as f64 / t6.len() as f64;
            assert!(
                miss <= 0.12,
                "{proto} phi={phi}: missing {miss} after six months, paper bands 1-10%"
            );
        }
    }
}

/// "TASS enables researchers to collect responses from 90-99% of the
/// available hosts for six months by scanning only 10-75% of the announced
/// IPv4 address space in each scan cycle (protocol dependent)" (§1).
#[test]
fn intro_coverage_space_band() {
    let u = universe();
    for proto in Protocol::ALL {
        let r = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            proto,
            1,
        );
        assert!(
            r.final_hitrate() >= 0.88,
            "{proto}: {} hosts found at month six",
            r.final_hitrate()
        );
        assert!(
            (0.01..=0.75).contains(&r.probe_space_fraction),
            "{proto}: probes {} of announced space",
            r.probe_space_fraction
        );
    }
}

/// "the hitrate for responsive prefixes decreases by about 0.3 percent per
/// month compared to what a full scan would find" (§1 / Fig 6a, l-view),
/// and "For m-prefixes, accuracy decreases at a rate of up to 0.7% per
/// month" (§4.2).
#[test]
fn tass_decay_rates() {
    let u = universe();
    for proto in Protocol::ALL {
        let l = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            proto,
            1,
        );
        let m = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 1.0,
            },
            proto,
            1,
        );
        let dl = monthly_decay(&l.months);
        let dm = monthly_decay(&m.months);
        assert!(
            (0.0..0.01).contains(&dl),
            "{proto}: l decay {dl} out of band (≈0.3%/mo)"
        );
        assert!(dm < 0.015, "{proto}: m decay {dm} out of band (≤~1%/mo)");
        assert!(
            dm >= dl - 1e-4,
            "{proto}: m must decay at least as fast as l"
        );
    }
}

/// "the accuracy of the hitlist approach quickly drops to 80% within one
/// month … Over the course of six months, the accuracy drops to 71% for
/// HTTP and to 43% for CWMP" (§4.1 / Figure 5).
#[test]
fn hitlist_decay_fig5() {
    let u = universe();
    let http = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Http, 1);
    let cwmp = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Cwmp, 1);
    // month 1: noticeable cliff for web (paper ~0.8; accept 0.75..0.92)
    assert!(
        (0.70..0.95).contains(&http.hitrate(1)),
        "HTTP month-1 {}",
        http.hitrate(1)
    );
    // six-month: HTTP around 0.6-0.75, CWMP way below
    assert!(
        (0.5..0.8).contains(&http.final_hitrate()),
        "HTTP {}",
        http.final_hitrate()
    );
    assert!(
        (0.2..0.55).contains(&cwmp.final_hitrate()),
        "CWMP {}",
        cwmp.final_hitrate()
    );
    assert!(cwmp.final_hitrate() < http.final_hitrate() - 0.15);
    // monotone decay
    for r in [&http, &cwmp] {
        for mth in 1..=6u32 {
            assert!(r.hitrate(mth) <= r.hitrate(mth - 1) + 0.01);
        }
    }
}

/// "responsive prefixes obtained from a full FTP scan cover 98% of all FTP
/// hosts 6 months later" (§1; the paper's own Fig 6a shows ≈0.98-0.995).
#[test]
fn ftp_six_month_coverage() {
    let u = universe();
    let r = run_campaign(
        &u,
        StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 1.0,
        },
        Protocol::Ftp,
        1,
    );
    assert!(
        r.final_hitrate() >= 0.95,
        "FTP phi=1 six-month coverage {} below the paper's ~98%",
        r.final_hitrate()
    );
}

/// "prefix selection based on density is roughly twice as efficient as a
/// full scan, for the FTP protocol" at full coverage (§3.4), and
/// "periodical TASS scans are 1.25 to 10 times more efficient" (§1).
#[test]
fn efficiency_multiples() {
    let u = universe();
    let full = run_campaign(&u, StrategyKind::FullScan, Protocol::Ftp, 1);
    let phi1 = run_campaign(
        &u,
        StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 1.0,
        },
        Protocol::Ftp,
        1,
    );
    let e1 = efficiency_ratio(&phi1.months[6].eval, &full.months[6].eval);
    assert!(
        e1 >= 1.5,
        "FTP phi=1 efficiency {e1} should be roughly 2x the full scan"
    );
    for proto in Protocol::ALL {
        let full = run_campaign(&u, StrategyKind::FullScan, proto, 1);
        let t = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            proto,
            1,
        );
        let e = efficiency_ratio(&t.months[6].eval, &full.months[6].eval);
        assert!(
            e >= 1.25,
            "{proto}: efficiency {e} below the paper's 1.25x floor"
        );
    }
}

/// "Even a small reduction of host coverage, say from φ = 1 to φ = 0.99,
/// results in a reduction of scan overhead by 20-30%" (§5).
#[test]
fn phi_relaxation_cuts_overhead() {
    let u = universe();
    let mut cuts = Vec::new();
    for proto in Protocol::ALL {
        let t0 = u.snapshot(0, proto);
        let rank = rank_units(&u.topology().l_view, &t0.hosts);
        let a = select_prefixes(&rank, 1.0);
        let b = select_prefixes(&rank, 0.99);
        cuts.push(1.0 - b.selected_space as f64 / a.selected_space.max(1) as f64);
    }
    // at least half the protocols land in/above the paper's band
    let big = cuts.iter().filter(|&&c| c >= 0.15).count();
    assert!(
        big >= 2,
        "phi 1->0.99 cuts {cuts:?}, expected 20-30% for most protocols"
    );
    assert!(
        cuts.iter().all(|&c| c > 0.02),
        "every protocol must save something: {cuts:?}"
    );
}

/// "TASS compiles prefix hitlists and exhibits only 1-10% fluctuation
/// after six months" (§2, vs Fan & Heidemann's 40-50% for addresses).
#[test]
fn prefix_vs_address_stability() {
    let u = universe();
    for proto in [Protocol::Http, Protocol::Ftp] {
        let tass = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            proto,
            1,
        );
        let hit = run_campaign(&u, StrategyKind::IpHitlist, proto, 1);
        let tass_fluct = 1.0 - tass.final_hitrate();
        let addr_fluct = 1.0 - hit.final_hitrate();
        assert!(
            tass_fluct <= 0.10,
            "{proto}: TASS fluctuation {tass_fluct} above 10%"
        );
        assert!(
            addr_fluct > 3.0 * tass_fluct,
            "{proto}: prefixes must be far more stable than addresses ({tass_fluct} vs {addr_fluct})"
        );
    }
}
