//! Timing wrappers that measure the `strategy` and `corpus` layers from
//! outside: they implement the library's own `Strategy`,
//! `PreparedStrategy` and `GroundTruth` traits, forward every call to
//! the wrapped value, and record a span around it. They forward
//! `wants_feedback` and `selection` too, so the campaign loop takes
//! exactly the branches it takes without them.

use crate::trace;
use std::sync::Arc;
use std::time::Instant;
use tass_core::{CycleOutcome, PreparedStrategy, ProbePlan, Selection, Strategy, StrategyKind};
use tass_model::source::GroundTruth;
use tass_model::{CorpusError, Protocol, Snapshot, Topology};

/// A registry strategy whose lifecycle calls are timed.
#[derive(Debug)]
pub struct TimedStrategy(Box<dyn Strategy>);

impl TimedStrategy {
    /// Wrap the strategy `kind` opens into.
    pub fn new(kind: StrategyKind) -> TimedStrategy {
        TimedStrategy(kind.strategy())
    }
}

impl Strategy for TimedStrategy {
    fn label(&self) -> String {
        self.0.label()
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        let start = Instant::now();
        let inner = self.0.prepare(topo, t0, seed);
        trace::record("strategy.prepare", start, Instant::now());
        Box::new(TimedPrepared(inner))
    }
}

#[derive(Debug)]
struct TimedPrepared(Box<dyn PreparedStrategy>);

impl PreparedStrategy for TimedPrepared {
    fn plan(&mut self, cycle: u32) -> ProbePlan {
        let start = Instant::now();
        let plan = self.0.plan(cycle);
        trace::record("strategy.plan", start, Instant::now());
        plan
    }

    fn observe(&mut self, cycle: u32, outcome: &CycleOutcome) {
        let start = Instant::now();
        self.0.observe(cycle, outcome);
        trace::record("strategy.observe", start, Instant::now());
    }

    fn wants_feedback(&self) -> bool {
        self.0.wants_feedback()
    }

    fn selection(&self) -> Option<&Selection> {
        self.0.selection()
    }
}

/// A ground-truth source whose month loads are timed.
pub struct TimedSource<'a, G: ?Sized>(pub &'a G);

impl<G: GroundTruth + ?Sized> GroundTruth for TimedSource<'_, G> {
    fn topology(&self) -> &Topology {
        self.0.topology()
    }

    fn months(&self) -> u32 {
        self.0.months()
    }

    fn protocols(&self) -> Vec<Protocol> {
        self.0.protocols()
    }

    fn load_snapshot(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        let start = Instant::now();
        let snap = self.0.load_snapshot(month, protocol);
        trace::record("corpus.load", start, Instant::now());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_core::{parse_spec, run_campaign, run_campaign_strategy};
    use tass_model::{Universe, UniverseConfig};

    /// One spec per `StrategyKind` variant.
    const EVERY_KIND: [&str; 8] = [
        "full-scan",
        "ip-hitlist",
        "tass:more:0.95",
        "random-sample:0.01",
        "block24:0.01",
        "random-prefix:less:0.05",
        "reseeding-tass:more:0.9:2",
        "adaptive-tass:less:0.9:0.05",
    ];

    #[test]
    fn wrapped_campaigns_are_byte_identical_for_every_kind() {
        let universe = Universe::generate(&UniverseConfig::small(11));
        trace::set_enabled(true);
        for spec in EVERY_KIND {
            let kind = parse_spec(spec).unwrap();
            for protocol in [Protocol::Http, Protocol::Cwmp] {
                let want = serde_json::to_string(&run_campaign(&universe, kind, protocol, 7));
                let got = serde_json::to_string(&run_campaign_strategy(
                    &TimedSource(&universe),
                    &TimedStrategy::new(kind),
                    protocol,
                    7,
                ));
                assert_eq!(got.unwrap(), want.unwrap(), "{spec} {protocol:?}");
            }
        }
        let spans = trace::drain();
        trace::set_enabled(false);
        for name in ["strategy.prepare", "strategy.plan", "corpus.load"] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
        assert!(spans.iter().any(|s| s.name == "strategy.observe"));
    }
}
