//! The scanning strategies the paper evaluates — as an open, trait-based
//! lifecycle.
//!
//! The paper's §3.1 recipe is a *loop*: "scan prefixes 1…k repeatedly
//! until t₀ + Δt, **then start over at step 1**". The strategy layer
//! models exactly that loop:
//!
//! 1. [`Strategy::prepare`] — seed from the t₀ full scan, yielding a
//!    stateful [`PreparedStrategy`];
//! 2. [`PreparedStrategy::plan`] — each cycle, decide *what to probe* as a
//!    typed [`ProbePlan`] (prefix list / address set / fresh sample /
//!    everything);
//! 3. [`PreparedStrategy::observe`] — receive the cycle's
//!    [`CycleOutcome`] and adapt: re-rank densities, re-seed, or ignore it
//!    (the static baselines do).
//!
//! [`StrategyKind`] remains as a thin constructor/registry so CLIs,
//! serde, and exhibit tables can still name strategies as plain data;
//! [`StrategyKind::strategy`] opens any kind into the trait object.
//!
//! Implemented strategies:
//!
//! * [`FullScan`] — the baseline everything is measured against;
//! * [`Tass`] — the paper's contribution, parameterised by view
//!   granularity and host-coverage target φ;
//! * [`IpHitlist`] — §4.1: re-probe exactly the addresses responsive at
//!   t₀ (maximally efficient, decays fastest);
//! * [`RandomSample`] — §2: probe a uniform random sample of announced
//!   space each cycle (Rossow-style);
//! * [`Block24Sample`] — §2: Heidemann-style /24-block panel: 50 % random
//!   blocks, 25 % previously-responsive blocks, 25 % densest blocks;
//! * [`RandomPrefix`] — ablation: random scan units under the same
//!   address-space budget as a TASS selection;
//! * [`ReseedingTass`] — the paper's literal Δt loop: full re-scan and
//!   re-rank every Δt cycles (feedback-driven; new in the trait redesign);
//! * [`AdaptiveTass`] — re-ranks densities from each cycle's *own*
//!   observed responses plus a small rotating exploration budget — no
//!   full re-scan ever (feedback-driven; new in the trait redesign).

use crate::density::DensityCounts;
use crate::plan::{CycleOutcome, ProbePlan};
use crate::select::{select_prefixes_budgeted, Selection};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use tass_bgp::{View, ViewKind};
use tass_model::{PrefixCount, Snapshot, Topology, V6Space};
use tass_net::{AddrFamily, Prefix, V4, V6};

pub use crate::plan::Eval;

/// The family → seeding-context binding. Lives in `tass_model::source`
/// now (next to the [`tass_model::GroundTruth`] source trait that names
/// it); re-exported here because the strategy lifecycle is where
/// implementors meet it.
pub use tass_model::FamilySpace;

/// A scanning strategy: a recipe for seeding from a t₀ full scan,
/// generic over the address family (default IPv4).
///
/// Implement this (plus [`PreparedStrategy`] for the per-campaign state)
/// to plug a new strategy of either family into
/// [`crate::campaign::run_campaign_strategy`], the exhibits, and the scan
/// engine. All built-in strategies go through this same interface; the
/// seeding context is the family's [`FamilySpace::Space`].
pub trait Strategy<F: FamilySpace = V4>: fmt::Debug {
    /// Short human-readable label (used in tables and CSV).
    fn label(&self) -> String;

    /// Seed the strategy from the t₀ ground truth, producing the stateful
    /// per-campaign lifecycle object.
    ///
    /// `seed` drives the randomized strategies (samples, random prefixes);
    /// TASS and the hitlist are deterministic.
    fn prepare(
        &self,
        space: &F::Space,
        t0: &Snapshot<F>,
        seed: u64,
    ) -> Box<dyn PreparedStrategy<F>>;
}

/// The per-campaign lifecycle of a prepared strategy, generic over the
/// address family (default IPv4).
///
/// Driven as `plan(0) → observe(0) → plan(1) → observe(1) → …` by
/// [`crate::campaign::run_campaign_strategy`] (or by a real scanning
/// loop feeding actual `ScanReport`s back in).
pub trait PreparedStrategy<F: AddrFamily = V4>: fmt::Debug {
    /// Decide what to probe this cycle.
    fn plan(&mut self, cycle: u32) -> ProbePlan<F>;

    /// Receive the cycle's outcome. Static strategies ignore it; adaptive
    /// ones re-rank, re-seed, or otherwise update state.
    fn observe(&mut self, cycle: u32, outcome: &CycleOutcome<F>) {
        let _ = (cycle, outcome);
    }

    /// Whether this strategy consumes [`observe`](Self::observe)
    /// feedback. Defaults to `true` so user-defined strategies get their
    /// outcomes without opting in; the built-in static strategies return
    /// `false`, letting the campaign driver skip materialising each
    /// cycle's responsive host set.
    fn wants_feedback(&self) -> bool {
        true
    }

    /// The TASS selection details, when the strategy has one (for tables
    /// and the CLI whitelist output). Reflects the *current* selection for
    /// adaptive strategies.
    fn selection(&self) -> Option<&Selection<F>> {
        None
    }
}

/// Which strategy to prepare — the closed, serializable registry form.
///
/// This is plain data for CLIs, config files, and exhibit tables; call
/// [`StrategyKind::strategy`] to open it into the trait-based lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Scan the whole announced space every cycle.
    FullScan,
    /// TASS with the given view granularity and coverage target φ.
    Tass {
        /// l-prefixes or the deaggregated m-partition.
        view: ViewKind,
        /// Host-coverage target φ (1.0 = all responsive prefixes).
        phi: f64,
    },
    /// Re-probe the exact addresses responsive at t₀.
    IpHitlist,
    /// Probe `fraction` of the announced space at uniform random each
    /// cycle (fresh sample every cycle).
    RandomSample {
        /// Fraction of announced addresses sampled.
        fraction: f64,
    },
    /// Heidemann-style /24-block panel covering `fraction` of announced
    /// space: 50 % random blocks, 25 % previously responsive, 25 % densest.
    Block24Sample {
        /// Fraction of announced space covered by the panel.
        fraction: f64,
    },
    /// Ablation: random scan units (same view as TASS) until the given
    /// address-space budget is met.
    RandomPrefix {
        /// View granularity to draw units from.
        view: ViewKind,
        /// Address-space budget as a fraction of announced space.
        space_fraction: f64,
    },
    /// The paper's literal Δt loop: scan the selection each cycle, and
    /// every `delta_t` cycles run a full re-scan and re-rank from it.
    ReseedingTass {
        /// l-prefixes or the deaggregated m-partition.
        view: ViewKind,
        /// Host-coverage target φ.
        phi: f64,
        /// Re-seed period in cycles ([`ReseedingTass::NEVER`] = never).
        delta_t: u32,
    },
    /// Feedback-only TASS: re-rank densities from each cycle's own
    /// observed responses plus a rotating exploration budget.
    AdaptiveTass {
        /// l-prefixes or the deaggregated m-partition.
        view: ViewKind,
        /// Host-coverage target φ.
        phi: f64,
        /// Fraction of announced space explored per cycle outside the
        /// current selection.
        explore: f64,
    },
}

impl StrategyKind {
    /// Short human-readable label. Matches the corresponding
    /// [`Strategy::label`] without allocating a trait object (exhibit
    /// tables call this in loops).
    pub fn label(&self) -> String {
        match *self {
            StrategyKind::FullScan => FullScan.label(),
            StrategyKind::Tass { view, phi } => Tass { view, phi }.label(),
            StrategyKind::IpHitlist => IpHitlist.label(),
            StrategyKind::RandomSample { fraction } => RandomSample { fraction }.label(),
            StrategyKind::Block24Sample { fraction } => Block24Sample { fraction }.label(),
            StrategyKind::RandomPrefix {
                view,
                space_fraction,
            } => RandomPrefix {
                view,
                space_fraction,
            }
            .label(),
            StrategyKind::ReseedingTass { view, phi, delta_t } => {
                ReseedingTass { view, phi, delta_t }.label()
            }
            StrategyKind::AdaptiveTass { view, phi, explore } => {
                AdaptiveTass { view, phi, explore }.label()
            }
        }
    }

    /// Open the registry entry into the trait-based lifecycle.
    pub fn strategy(&self) -> Box<dyn Strategy> {
        match *self {
            StrategyKind::FullScan => Box::new(FullScan),
            StrategyKind::Tass { view, phi } => Box::new(Tass { view, phi }),
            StrategyKind::IpHitlist => Box::new(IpHitlist),
            StrategyKind::RandomSample { fraction } => Box::new(RandomSample { fraction }),
            StrategyKind::Block24Sample { fraction } => Box::new(Block24Sample { fraction }),
            StrategyKind::RandomPrefix {
                view,
                space_fraction,
            } => Box::new(RandomPrefix {
                view,
                space_fraction,
            }),
            StrategyKind::ReseedingTass { view, phi, delta_t } => {
                Box::new(ReseedingTass { view, phi, delta_t })
            }
            StrategyKind::AdaptiveTass { view, phi, explore } => {
                Box::new(AdaptiveTass { view, phi, explore })
            }
        }
    }
}

// ------------------------------------------------------------------ static

/// A prepared strategy with a fixed plan: probes the same targets every
/// cycle and ignores feedback. All six seed strategies reduce to this
/// (and so do the static v6 strategies — the type is family-generic):
/// each builds its plan in its own [`Strategy::prepare`].
#[derive(Debug, Clone)]
pub struct StaticPrepared<F: AddrFamily = V4> {
    plan: ProbePlan<F>,
    selection: Option<Selection<F>>,
}

impl<F: AddrFamily> StaticPrepared<F> {
    /// Wrap a fixed plan (and optional selection details).
    pub fn new(plan: ProbePlan<F>, selection: Option<Selection<F>>) -> StaticPrepared<F> {
        StaticPrepared { plan, selection }
    }
}

impl<F: AddrFamily> PreparedStrategy<F> for StaticPrepared<F> {
    fn plan(&mut self, _cycle: u32) -> ProbePlan<F> {
        self.plan.clone()
    }

    fn wants_feedback(&self) -> bool {
        false
    }

    fn selection(&self) -> Option<&Selection<F>> {
        self.selection.as_ref()
    }
}

/// The periodic full scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullScan;

impl Strategy for FullScan {
    fn label(&self) -> String {
        "full-scan".into()
    }

    fn prepare(&self, _topo: &Topology, _t0: &Snapshot, _seed: u64) -> Box<dyn PreparedStrategy> {
        Box::new(StaticPrepared::new(ProbePlan::All, None))
    }
}

/// TASS, seeded once at t₀ (the paper's §4 evaluation setting).
#[derive(Debug, Clone, Copy)]
pub struct Tass {
    /// l-prefixes or the deaggregated m-partition.
    pub view: ViewKind,
    /// Host-coverage target φ.
    pub phi: f64,
}

impl Strategy for Tass {
    fn label(&self) -> String {
        format!("tass-{}-phi{}", self.view, self.phi)
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, _seed: u64) -> Box<dyn PreparedStrategy> {
        // one bulk sweep over the snapshot's hosts, rank top-k only
        let counts = DensityCounts::units(view_of(topo, self.view), t0);
        let sel = select_prefixes_budgeted(counts, self.phi, 0);
        Box::new(StaticPrepared::new(
            ProbePlan::Prefixes(sel.sorted_prefixes()),
            Some(sel),
        ))
    }
}

/// The §4.1 IP-address hitlist.
#[derive(Debug, Clone, Copy, Default)]
pub struct IpHitlist;

impl Strategy for IpHitlist {
    fn label(&self) -> String {
        "ip-hitlist".into()
    }

    fn prepare(&self, _topo: &Topology, t0: &Snapshot, _seed: u64) -> Box<dyn PreparedStrategy> {
        Box::new(StaticPrepared::new(
            ProbePlan::Addrs(t0.hosts.clone()),
            None,
        ))
    }
}

/// A fresh uniform random address sample each cycle.
#[derive(Debug, Clone, Copy)]
pub struct RandomSample {
    /// Fraction of announced addresses sampled per cycle.
    pub fraction: f64,
}

impl Strategy for RandomSample {
    fn label(&self) -> String {
        format!("random-sample-{}", self.fraction)
    }

    fn prepare(&self, topo: &Topology, _t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        let per_cycle = (topo.announced_space() as f64 * self.fraction).round() as u64;
        Box::new(StaticPrepared::new(
            ProbePlan::FreshSample { per_cycle, seed },
            None,
        ))
    }
}

/// The Heidemann-style /24-block panel.
#[derive(Debug, Clone, Copy)]
pub struct Block24Sample {
    /// Fraction of announced space covered by the panel.
    pub fraction: f64,
}

impl Strategy for Block24Sample {
    fn label(&self) -> String {
        format!("block24-sample-{}", self.fraction)
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        Box::new(StaticPrepared::new(
            ProbePlan::Prefixes(block24_panel(topo, t0, self.fraction, seed)),
            None,
        ))
    }
}

/// Random scan units at a fixed space budget (ablation).
#[derive(Debug, Clone, Copy)]
pub struct RandomPrefix {
    /// View granularity to draw units from.
    pub view: ViewKind,
    /// Address-space budget as a fraction of announced space.
    pub space_fraction: f64,
}

impl Strategy for RandomPrefix {
    fn label(&self) -> String {
        format!("random-prefix-{}-{}", self.view, self.space_fraction)
    }

    fn prepare(&self, topo: &Topology, _t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        let v = view_of(topo, self.view);
        let budget = (topo.announced_space() as f64 * self.space_fraction) as u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut picked = Vec::new();
        let mut space = 0u64;
        let n = v.len();
        let mut tried = std::collections::HashSet::new();
        while space < budget && tried.len() < n {
            let i = rng.random_range(0..n);
            if tried.insert(i) {
                let p = v.units()[i].prefix;
                picked.push(p);
                space += p.size();
            }
        }
        picked.sort_unstable();
        Box::new(StaticPrepared::new(ProbePlan::Prefixes(picked), None))
    }
}

// ---------------------------------------------------------------- feedback

fn view_of(topo: &Topology, kind: ViewKind) -> &View {
    match kind {
        ViewKind::LessSpecific => &topo.l_view,
        ViewKind::MoreSpecific => &topo.m_view,
    }
}

/// The paper's §3.1 step 5, taken literally: "scan prefixes 1…k
/// repeatedly until t₀ + Δt, then start over at step 1". Every `delta_t`
/// cycles the strategy plans a full re-scan; its observed responses
/// become the new seeding scan and the selection is re-ranked from them.
///
/// With `delta_t == `[`ReseedingTass::NEVER`] it never re-seeds and is
/// exactly the static [`Tass`] evaluated in §4.
#[derive(Debug, Clone, Copy)]
pub struct ReseedingTass {
    /// l-prefixes or the deaggregated m-partition.
    pub view: ViewKind,
    /// Host-coverage target φ.
    pub phi: f64,
    /// Re-seed period in cycles ([`ReseedingTass::NEVER`] disables).
    pub delta_t: u32,
}

impl ReseedingTass {
    /// Sentinel `delta_t`: never re-seed (equivalent to static TASS).
    pub const NEVER: u32 = u32::MAX;
}

impl Strategy for ReseedingTass {
    fn label(&self) -> String {
        if self.delta_t == Self::NEVER {
            format!("reseeding-tass-{}-phi{}-never", self.view, self.phi)
        } else {
            format!(
                "reseeding-tass-{}-phi{}-dt{}",
                self.view, self.phi, self.delta_t
            )
        }
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, _seed: u64) -> Box<dyn PreparedStrategy> {
        let view = view_of(topo, self.view).clone();
        let counts = DensityCounts::units(&view, t0);
        let selection = select_prefixes_budgeted(counts, self.phi, 0);
        let sorted_plan = selection.sorted_prefixes();
        Box::new(ReseedingPrepared {
            view,
            phi: self.phi,
            delta_t: self.delta_t,
            selection,
            sorted_plan,
        })
    }
}

#[derive(Debug, Clone)]
struct ReseedingPrepared {
    view: View,
    phi: f64,
    delta_t: u32,
    selection: Selection,
    /// The selection's prefixes in address order, recomputed once per
    /// reselection — so a cycle's plan is a memcpy, not a sort.
    sorted_plan: Vec<Prefix>,
}

impl ReseedingPrepared {
    fn is_reseed_cycle(&self, cycle: u32) -> bool {
        self.delta_t != ReseedingTass::NEVER
            && self.delta_t > 0
            && cycle > 0
            && cycle.is_multiple_of(self.delta_t)
    }
}

impl PreparedStrategy for ReseedingPrepared {
    fn plan(&mut self, cycle: u32) -> ProbePlan {
        if self.is_reseed_cycle(cycle) {
            // step 1 again: the amortised full scan
            ProbePlan::All
        } else {
            ProbePlan::Prefixes(self.sorted_plan.clone())
        }
    }

    fn observe(&mut self, cycle: u32, outcome: &CycleOutcome) {
        if self.is_reseed_cycle(cycle) {
            // steps 2–4 from the fresh scan's responses: the whole view
            // counts in one bulk sweep over the shared snapshot, and only
            // the ~k densest units get sorted (last cycle's k as the hint)
            let counts = DensityCounts::units(&self.view, &outcome.responsive);
            self.selection = select_prefixes_budgeted(counts, self.phi, self.selection.k);
            self.sorted_plan = self.selection.sorted_prefixes();
        }
    }

    fn selection(&self) -> Option<&Selection> {
        Some(&self.selection)
    }
}

/// Feedback-only TASS: never re-scans everything. Each cycle it probes
/// the current selection plus a small rotating *exploration* slice of
/// unselected units, then re-ranks densities from what the cycle actually
/// observed. Host churn into previously-unselected prefixes is discovered
/// by exploration and pulled into the selection — so accuracy decays more
/// slowly than the t₀-frozen [`Tass`] at a small, bounded probe overhead.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveTass {
    /// l-prefixes or the deaggregated m-partition.
    pub view: ViewKind,
    /// Host-coverage target φ.
    pub phi: f64,
    /// Fraction of announced space explored per cycle outside the
    /// current selection (e.g. `0.1`).
    pub explore: f64,
}

impl Strategy for AdaptiveTass {
    fn label(&self) -> String {
        format!(
            "adaptive-tass-{}-phi{}-explore{}",
            self.view, self.phi, self.explore
        )
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, _seed: u64) -> Box<dyn PreparedStrategy> {
        let view = view_of(topo, self.view).clone();
        // one bulk sweep over the sorted t₀ hosts — identical counts to
        // attributing every host through the trie (view units are
        // disjoint, so containment and longest-match agree), at
        // O(units log hosts) instead of a trie walk per host
        let mut counts = Vec::with_capacity(view.len());
        t0.hosts
            .count_prefixes_into(&mut view.units().iter().map(|vu| vu.prefix), &mut counts);
        let mut prepared = AdaptivePrepared {
            phi: self.phi,
            explore: self.explore,
            counts,
            selection: Selection::default(),
            selected: Vec::new(),
            explore_cursor: 0,
            last_planned: Vec::new(),
            view,
        };
        prepared.reselect();
        Box::new(prepared)
    }
}

#[derive(Debug, Clone)]
struct AdaptivePrepared {
    view: View,
    phi: f64,
    explore: f64,
    /// Last observed responsive count per scan unit (seeded from t₀).
    counts: Vec<u64>,
    selection: Selection,
    /// Unit indices currently selected, for membership tests.
    selected: Vec<u32>,
    /// Rotating cursor over unit indices for exploration.
    explore_cursor: usize,
    /// Unit indices probed by the most recent plan (selection + explored).
    last_planned: Vec<u32>,
}

impl AdaptivePrepared {
    /// Re-run TASS steps 2–4 over the current per-unit count estimates
    /// (top-k ranking, hinted by the current selection size).
    fn reselect(&mut self) {
        let counts = DensityCounts::from_unit_counts(&self.view, &self.counts);
        self.selection = select_prefixes_budgeted(counts, self.phi, self.selection.k);
        // map each selected prefix back to its unit index by binary
        // search over the address-sorted unit array — selected prefixes
        // *are* unit prefixes, so no longest-match trie walk is needed
        let units = self.view.units();
        self.selected = self
            .selection
            .prefixes
            .iter()
            .map(|p| {
                units
                    .binary_search_by_key(p, |vu| vu.prefix)
                    .expect("selected prefixes come from the view") as u32
            })
            .collect();
        self.selected.sort_unstable();
    }

    fn is_selected(&self, unit: u32) -> bool {
        self.selected.binary_search(&unit).is_ok()
    }
}

impl PreparedStrategy for AdaptivePrepared {
    fn plan(&mut self, _cycle: u32) -> ProbePlan {
        let mut planned: Vec<u32> = self.selected.clone();
        // rotate an exploration budget through the unselected units
        let budget = (self.view.total_space() as f64 * self.explore) as u64;
        let n = self.view.len();
        let mut spent = 0u64;
        let mut visited = 0usize;
        while spent < budget && visited < n {
            let idx = ((self.explore_cursor + visited) % n) as u32;
            visited += 1;
            if self.is_selected(idx) {
                continue;
            }
            planned.push(idx);
            spent += self.view.units()[idx as usize].prefix.size();
        }
        self.explore_cursor = (self.explore_cursor + visited) % n.max(1);
        planned.sort_unstable();
        planned.dedup();
        self.last_planned = planned.clone();
        let mut prefixes: Vec<Prefix> = planned
            .iter()
            .map(|&i| self.view.units()[i as usize].prefix)
            .collect();
        prefixes.sort_unstable();
        ProbePlan::Prefixes(prefixes)
    }

    fn observe(&mut self, _cycle: u32, outcome: &CycleOutcome) {
        // update the density estimate of every unit this cycle probed,
        // from the cycle's own responses — no full scan anywhere. The
        // planned units are ascending, so this is one bulk sweep over
        // the responsive view, not a rank query per unit.
        let units = self.view.units();
        let mut probed = Vec::with_capacity(self.last_planned.len());
        outcome.responsive.count_prefixes_into(
            &mut self.last_planned.iter().map(|&u| units[u as usize].prefix),
            &mut probed,
        );
        for (&unit, &c) in self.last_planned.iter().zip(&probed) {
            self.counts[unit as usize] = c;
        }
        self.reselect();
    }

    fn selection(&self) -> Option<&Selection> {
        Some(&self.selection)
    }
}

// ----------------------------------------------------------------- IPv6

/// Re-probe the exact v6 addresses responsive at t₀ — the only v6
/// baseline that exists in practice (public hitlists), maximally
/// efficient and fastest to decay, as in §4.1 for v4.
#[derive(Debug, Clone, Copy, Default)]
pub struct V6Hitlist;

impl Strategy<V6> for V6Hitlist {
    fn label(&self) -> String {
        "v6-hitlist".into()
    }

    fn prepare(
        &self,
        _space: &V6Space,
        t0: &Snapshot<V6>,
        _seed: u64,
    ) -> Box<dyn PreparedStrategy<V6>> {
        Box::new(StaticPrepared::new(
            ProbePlan::Addrs(t0.hosts.clone()),
            None,
        ))
    }
}

/// TASS transplanted to IPv6: attribute the t₀ hitlist's hosts to their
/// enclosing `/block_len` blocks, rank the blocks by density
/// ρᵢ = cᵢ / 2^(128−block_len), and select the smallest set covering a
/// fraction φ of hosts — then probe those blocks exhaustively each
/// cycle, re-ranking from each cycle's own responses (the hosts churn
/// *within* pools, so the dense blocks persist even as addresses
/// change). This is the regime where topology-aware selection is not an
/// optimisation but the only option: the enclosing space is 2⁸⁰⁺
/// addresses.
#[derive(Debug, Clone, Copy)]
pub struct V6BlockTass {
    /// Host-coverage target φ.
    pub phi: f64,
    /// Block granularity the hitlist is attributed at (e.g. 116).
    pub block_len: u8,
}

impl Strategy<V6> for V6BlockTass {
    fn label(&self) -> String {
        format!("v6-block-tass-len{}-phi{}", self.block_len, self.phi)
    }

    fn prepare(
        &self,
        _space: &V6Space,
        t0: &Snapshot<V6>,
        _seed: u64,
    ) -> Box<dyn PreparedStrategy<V6>> {
        let blocks = blocks_of(t0.hosts.iter(), self.block_len);
        let mut counts = Vec::with_capacity(blocks.len());
        t0.hosts
            .count_prefixes_into(&mut blocks.iter().copied(), &mut counts);
        let mut prepared = V6BlockPrepared {
            phi: self.phi,
            block_len: self.block_len,
            blocks,
            counts,
            selection: Selection::default(),
        };
        prepared.reselect();
        Box::new(prepared)
    }
}

/// The distinct `/len` blocks an ascending host iteration occupies
/// (sorted) — works on owned `HostSet`s and copy-free `HostSetView`s
/// alike.
fn blocks_of(hosts: impl Iterator<Item = u128>, block_len: u8) -> Vec<Prefix<V6>> {
    let mut blocks: Vec<Prefix<V6>> = hosts
        .map(|a| Prefix::<V6>::new_truncate(a, block_len).expect("block_len <= 128"))
        .collect();
    blocks.dedup(); // hosts are sorted, so equal blocks are adjacent
    blocks
}

#[derive(Debug, Clone)]
struct V6BlockPrepared {
    phi: f64,
    block_len: u8,
    /// Every dense block ever observed, sorted by address.
    blocks: Vec<Prefix<V6>>,
    /// Last observed responsive count per block (index-aligned). Counts
    /// of unprobed blocks persist — the φ cutoff always ranks the *whole*
    /// known table, so the selection never compounds its own cutoff.
    counts: Vec<u64>,
    selection: Selection<V6>,
}

impl V6BlockPrepared {
    /// Steps 2–4 over the maintained per-block counts (top-k ranking,
    /// hinted by the current selection size).
    fn reselect(&mut self) {
        let counts = DensityCounts::prefix_counts(&self.blocks, &self.counts);
        self.selection = select_prefixes_budgeted(counts, self.phi, self.selection.k);
    }
}

impl PreparedStrategy<V6> for V6BlockPrepared {
    fn plan(&mut self, _cycle: u32) -> ProbePlan<V6> {
        ProbePlan::Prefixes(self.selection.sorted_prefixes())
    }

    fn observe(&mut self, _cycle: u32, outcome: &CycleOutcome<V6>) {
        // update the counts of every block this cycle probed from its own
        // responses (blocks persist even as hosts renumber inside them),
        // and adopt any newly discovered blocks
        for block in &self.selection.prefixes {
            if let Ok(i) = self.blocks.binary_search(block) {
                self.counts[i] = outcome.responsive.count_in_prefix(*block) as u64;
            }
        }
        for block in blocks_of(outcome.responsive.iter(), self.block_len) {
            if let Err(i) = self.blocks.binary_search(&block) {
                self.blocks.insert(i, block);
                self.counts
                    .insert(i, outcome.responsive.count_in_prefix(block) as u64);
            }
        }
        self.reselect();
    }

    fn selection(&self) -> Option<&Selection<V6>> {
        Some(&self.selection)
    }
}

/// A fresh uniform random sample of the seeded v6 space each cycle —
/// the §2 baseline transplanted to v6, where it collapses: the announced
/// space is 2⁸⁰⁺ addresses, so any affordable sample has a hitrate
/// indistinguishable from zero. Included to *show* that collapse.
#[derive(Debug, Clone, Copy)]
pub struct V6FreshSample {
    /// Addresses sampled per cycle.
    pub per_cycle: u64,
}

impl Strategy<V6> for V6FreshSample {
    fn label(&self) -> String {
        format!("v6-fresh-sample-{}", self.per_cycle)
    }

    fn prepare(
        &self,
        _space: &V6Space,
        _t0: &Snapshot<V6>,
        seed: u64,
    ) -> Box<dyn PreparedStrategy<V6>> {
        Box::new(StaticPrepared::new(
            ProbePlan::FreshSample {
                per_cycle: self.per_cycle,
                seed,
            },
            None,
        ))
    }
}

/// Build the Heidemann-style /24 panel: 50 % random announced blocks,
/// 25 % blocks responsive at t₀, 25 % densest blocks at t₀.
fn block24_panel(topo: &Topology, t0: &Snapshot, fraction: f64, seed: u64) -> Vec<Prefix> {
    let announced = topo.announced_space();
    let target_blocks = ((announced as f64 * fraction) / 256.0).round().max(1.0) as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut chosen: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();

    // responsive /24s at t0, with counts
    let mut counts: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for a in t0.hosts.iter() {
        *counts.entry(a >> 8).or_insert(0) += 1;
    }
    let mut responsive: Vec<(u32, u32)> = counts.into_iter().collect();
    responsive.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // 25%: densest blocks ("other policies" in the paper's description)
    for &(block, _) in responsive.iter().take(target_blocks / 4) {
        chosen.insert(block);
    }
    // 25%: previously responsive (uniform among responsive)
    let quarter = target_blocks / 4;
    let mut added = 0usize;
    while added < quarter && chosen.len() < responsive.len().min(target_blocks) {
        let pick = responsive[rng.random_range(0..responsive.len())].0;
        if chosen.insert(pick) {
            added += 1;
        }
    }
    // 50%: random announced /24s (sample random addresses, take their /24)
    let units = topo.m_view.units();
    if !units.is_empty() {
        let mut guard = 0;
        while chosen.len() < target_blocks && guard < target_blocks * 64 {
            guard += 1;
            let u = &units[rng.random_range(0..units.len())];
            let size = u.prefix.size();
            let off = rng.random_range(0..size);
            let addr = (u64::from(u.prefix.first()) + off) as u32;
            chosen.insert(addr >> 8);
        }
    }
    chosen
        .into_iter()
        .map(|b| Prefix::new(b << 8, 24).expect("block id shifted left is /24-aligned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_model::{Protocol, Universe, UniverseConfig};

    fn small_universe() -> Universe {
        Universe::generate(&UniverseConfig::small(21))
    }

    /// The cycle-0 plan of a registry strategy prepared at `t0` — for the
    /// static strategies, the plan every cycle probes.
    fn plan0(kind: StrategyKind, u: &Universe, t0: &Snapshot, seed: u64) -> ProbePlan {
        kind.strategy().prepare(u.topology(), t0, seed).plan(0)
    }

    #[test]
    fn full_scan_always_perfect() {
        let u = small_universe();
        let announced = u.topology().announced_space();
        let plan = plan0(StrategyKind::FullScan, &u, u.snapshot(0, Protocol::Http), 1);
        for month in 0..=6 {
            let e = plan.evaluate(u.snapshot(month, Protocol::Http), month, announced);
            assert_eq!(e.found, e.total);
            assert_eq!(e.hitrate, 1.0);
        }
        assert_eq!(plan.probe_count(announced), announced);
    }

    #[test]
    fn tass_phi1_month0_is_perfect() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Ftp);
        let announced = u.topology().announced_space();
        for view in [ViewKind::LessSpecific, ViewKind::MoreSpecific] {
            let plan = plan0(StrategyKind::Tass { view, phi: 1.0 }, &u, t0, 1);
            let e = plan.evaluate(t0, 0, announced);
            assert_eq!(
                e.hitrate, 1.0,
                "{view}: all t0 hosts are in responsive prefixes"
            );
            assert!(plan.probe_count(announced) < announced);
        }
    }

    #[test]
    fn tass_phi95_month0_exceeds_95() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let kind = StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        };
        let mut prepared = kind.strategy().prepare(u.topology(), t0, 1);
        let e = prepared
            .plan(0)
            .evaluate(t0, 0, u.topology().announced_space());
        assert!(
            e.hitrate > 0.95,
            "hitrate {} must exceed phi at t0",
            e.hitrate
        );
        assert!(e.hitrate < 1.0, "phi=0.95 should not cover everything");
        let sel = prepared.selection().unwrap();
        assert!(sel.space_fraction < 1.0);
    }

    #[test]
    fn m_view_selection_needs_less_space_than_l_view() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let announced = u.topology().announced_space();
        let l = plan0(
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            &u,
            t0,
            1,
        )
        .probe_count(announced);
        let m = plan0(
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 1.0,
            },
            &u,
            t0,
            1,
        )
        .probe_count(announced);
        assert!(
            m < l,
            "paper §3.3: m-prefixes are denser, so full coverage is cheaper: {m} vs {l}"
        );
    }

    #[test]
    fn hitlist_perfect_at_t0_then_decays() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Cwmp);
        let announced = u.topology().announced_space();
        let plan = plan0(StrategyKind::IpHitlist, &u, t0, 1);
        assert_eq!(plan.probe_count(announced), t0.len() as u64);
        let e0 = plan.evaluate(t0, 0, announced);
        assert_eq!(e0.hitrate, 1.0);
        let e3 = plan.evaluate(u.snapshot(3, Protocol::Cwmp), 3, announced);
        let e6 = plan.evaluate(u.snapshot(6, Protocol::Cwmp), 6, announced);
        assert!(
            e3.hitrate < 0.95,
            "CWMP hitlist must decay, got {}",
            e3.hitrate
        );
        assert!(e6.hitrate < e3.hitrate, "decay must continue");
    }

    #[test]
    fn tass_decays_slower_than_hitlist() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let announced = u.topology().announced_space();
        let tass = plan0(
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            &u,
            t0,
            1,
        );
        let hit = plan0(StrategyKind::IpHitlist, &u, t0, 1);
        let t6 = u.snapshot(6, Protocol::Http);
        let tass6 = tass.evaluate(t6, 6, announced).hitrate;
        let hit6 = hit.evaluate(t6, 6, announced).hitrate;
        assert!(
            tass6 > hit6 + 0.05,
            "paper's core claim: TASS {tass6} must hold up much better than hitlist {hit6}"
        );
        assert!(
            tass6 > 0.9,
            "TASS l-view phi=1 should stay above 0.9 over 6 months"
        );
    }

    #[test]
    fn random_prefix_worse_than_tass_at_same_budget() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let announced = u.topology().announced_space();
        let tass = plan0(
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            &u,
            t0,
            1,
        );
        let budget = tass.space_fraction(announced);
        let rand = plan0(
            StrategyKind::RandomPrefix {
                view: ViewKind::MoreSpecific,
                space_fraction: budget,
            },
            &u,
            t0,
            99,
        );
        let e_tass = tass.evaluate(t0, 0, announced);
        let e_rand = rand.evaluate(t0, 0, announced);
        assert!(
            e_tass.hitrate > e_rand.hitrate + 0.2,
            "density ranking must beat random prefixes: {} vs {}",
            e_tass.hitrate,
            e_rand.hitrate
        );
    }

    #[test]
    fn block24_panel_respects_budget_and_mix() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let plan = plan0(StrategyKind::Block24Sample { fraction: 0.01 }, &u, t0, 5);
        let announced = u.topology().announced_space();
        let frac = plan.probe_count(announced) as f64 / announced as f64;
        assert!(
            (0.004..0.02).contains(&frac),
            "panel covers {frac}, wanted ≈ 0.01"
        );
        // the panel includes some responsive blocks, so it finds some hosts
        let e = plan.evaluate(t0, 0, announced);
        assert!(e.found > 0);
        assert!(e.hitrate < 0.9, "a 1% panel cannot cover most hosts");
    }

    #[test]
    fn random_sample_efficiency_matches_density() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let plan = plan0(StrategyKind::RandomSample { fraction: 0.05 }, &u, t0, 5);
        let e = plan.evaluate(t0, 0, u.topology().announced_space());
        // expected hitrate of a uniform sample ≈ sample fraction
        assert!(
            (0.02..0.09).contains(&e.hitrate),
            "sample hitrate {} should be near its 5% coverage",
            e.hitrate
        );
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            StrategyKind::FullScan,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 1.0,
            },
            StrategyKind::IpHitlist,
            StrategyKind::RandomSample { fraction: 0.01 },
            StrategyKind::Block24Sample { fraction: 0.01 },
            StrategyKind::RandomPrefix {
                view: ViewKind::LessSpecific,
                space_fraction: 0.1,
            },
            StrategyKind::ReseedingTass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
                delta_t: 3,
            },
            StrategyKind::ReseedingTass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
                delta_t: ReseedingTass::NEVER,
            },
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
        ];
        let labels: std::collections::BTreeSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn trait_prepare_matches_static_prepared() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let kind = StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        };
        let mut prepared = kind.strategy().prepare(u.topology(), t0, 1);
        let first = prepared.plan(0);
        // a static strategy is frozen at t₀: its plan is the selection's
        // prefixes in address order, bit for bit, every cycle
        assert_eq!(
            first,
            ProbePlan::Prefixes(prepared.selection().unwrap().sorted_prefixes())
        );
        for cycle in 1..=6 {
            assert_eq!(prepared.plan(cycle), first, "cycle {cycle}");
        }
        assert!(!prepared.wants_feedback());
    }

    #[test]
    fn prepared_rejects_feedback_strategies() {
        // the feedback strategies cannot be frozen into one t₀ plan: they
        // ask the campaign driver for every cycle's outcome, and only the
        // six static strategies decline it
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let feedback = [
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 3,
            },
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
        ];
        for kind in feedback {
            let prepared = kind.strategy().prepare(u.topology(), t0, 1);
            assert!(prepared.wants_feedback(), "{kind:?} must want feedback");
        }
        let frozen = [
            StrategyKind::FullScan,
            StrategyKind::IpHitlist,
            StrategyKind::RandomSample { fraction: 0.01 },
        ];
        for kind in frozen {
            let prepared = kind.strategy().prepare(u.topology(), t0, 1);
            assert!(!prepared.wants_feedback(), "{kind:?} is static");
        }
    }

    #[test]
    fn reseeding_plans_full_scan_on_schedule() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let strat = ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            delta_t: 3,
        };
        let mut prepared = strat.prepare(u.topology(), t0, 1);
        for cycle in 0..=6u32 {
            let plan = prepared.plan(cycle);
            if cycle > 0 && cycle % 3 == 0 {
                assert_eq!(plan, ProbePlan::All, "cycle {cycle} must re-seed");
            } else {
                assert!(
                    matches!(plan, ProbePlan::Prefixes(_)),
                    "cycle {cycle} scans the selection"
                );
            }
            let truth = tass_model::GroundTruth::snapshot(&u, cycle, Protocol::Http);
            let outcome = CycleOutcome {
                cycle,
                probes: plan.probe_count(u.topology().announced_space()),
                responsive: plan.observed(&truth, cycle, u.topology().announced_space()),
            };
            prepared.observe(cycle, &outcome);
        }
    }

    #[test]
    fn adaptive_explores_beyond_selection() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let strat = AdaptiveTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            explore: 0.1,
        };
        let mut prepared = strat.prepare(u.topology(), t0, 1);
        let announced = u.topology().announced_space();
        let static_probes = plan0(
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            &u,
            t0,
            1,
        )
        .probe_count(announced);
        let plan = prepared.plan(0);
        let probes = plan.probe_count(announced);
        assert!(probes > static_probes, "exploration adds probes");
        assert!(
            probes < announced,
            "but stays far below a full scan: {probes} vs {announced}"
        );
    }
}
