//! # tass-experiments — reproduction harness
//!
//! One module per table/figure of the paper ([`exhibits::all`] is the
//! exhibit index; `repro --list` prints it). The `repro` binary runs any
//! subset and writes aligned text tables to stdout plus CSV files under
//! `results/`.
//!
//! ```no_run
//! use tass_experiments::{Scenario, ScenarioConfig, exhibits};
//!
//! let scenario = Scenario::build(&ScenarioConfig::small(42));
//! let out = exhibits::table1::run(&scenario);
//! println!("{}", out.text);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhibits;
pub mod scenario;
pub mod selectcli;
pub mod table;

pub use scenario::{Scenario, ScenarioConfig};

/// The rendered output of one exhibit.
#[derive(Debug, Clone)]
pub struct ExhibitOutput {
    /// Exhibit identifier, e.g. `"table1"`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The rendered text report.
    pub text: String,
    /// CSV artifacts as `(file stem, contents)`.
    pub csv: Vec<(String, String)>,
}
