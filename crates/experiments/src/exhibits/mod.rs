//! One module per paper exhibit; [`all`] is the index.

pub mod ablation;
pub mod adaptive;
pub mod calibration;
pub mod corpus;
pub mod efficiency;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod ipv6;
pub mod pareto;
pub mod scan_validation;
pub mod sec34;
pub mod table1;

use crate::{ExhibitOutput, Scenario};

/// The function type every exhibit exposes.
pub type ExhibitFn = fn(&Scenario) -> ExhibitOutput;

/// All exhibits in presentation order.
pub fn all() -> Vec<(&'static str, ExhibitFn)> {
    vec![
        ("calibration", calibration::run as ExhibitFn),
        ("fig1", fig1::run as ExhibitFn),
        ("fig2", fig2::run as ExhibitFn),
        ("fig3", fig3::run as ExhibitFn),
        ("fig4", fig4::run as ExhibitFn),
        ("table1", table1::run as ExhibitFn),
        ("sec34", sec34::run as ExhibitFn),
        ("fig5", fig5::run as ExhibitFn),
        ("fig6a", fig6::run_a as ExhibitFn),
        ("fig6b", fig6::run_b as ExhibitFn),
        ("efficiency", efficiency::run as ExhibitFn),
        ("ablation", ablation::run as ExhibitFn),
        ("adaptive", adaptive::run as ExhibitFn),
        ("pareto", pareto::run as ExhibitFn),
        ("ipv6", ipv6::run as ExhibitFn),
        ("corpus", corpus::run as ExhibitFn),
        ("scan_validation", scan_validation::run as ExhibitFn),
    ]
}

/// Look up an exhibit by id.
pub fn by_id(id: &str) -> Option<ExhibitFn> {
    all()
        .into_iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f)
}

#[cfg(test)]
mod tests {
    #[test]
    fn ids_unique_and_lookup_works() {
        let all = super::all();
        let mut ids: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
        assert!(super::by_id("table1").is_some());
        assert!(super::by_id("nope").is_none());
    }
}
