//! `probe-logical` and `probe-wire`: scan rounds through
//! `ScanEngine::run_plan`.
//!
//! A round runs three plans of the kinds strategies produce — a TASS
//! `Prefixes` plan, an `Addrs` hitlist and a `FreshSample` — against a
//! responder holding one month's hosts. The logical workload runs one
//! thread on a perfect network with no blocklist, which isolates the
//! per-probe cost of the engine's logical path (where the single-thread
//! regression was measured). The wire workload runs two threads on the
//! wire path, with lossy and duplicating faults and the IANA blocklist,
//! so the codec, fault draws, validation, the shared rate bucket and
//! the cross-thread aggregation do the work.
//!
//! The traced run also times the probe path's public stage functions
//! over the same plans, one stage at a time, and reports what share of
//! `run_plan`'s time those stage costs do not explain.

use crate::{stats, trace, Bench, Phase};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tass_core::{parse_spec, ProbePlan};
use tass_model::source::GroundTruth;
use tass_model::{FamilySpace, HostSet, Protocol, Snapshot, Universe, UniverseConfig};
use tass_net::{Prefix, V4};
use tass_scan::rate::AtomicTokenBucket;
use tass_scan::wire::{parse_frame, FrameSpec};
use tass_scan::{
    Blocklist, FaultConfig, FrameBuf, Responder, ScanConfig, ScanEngine, SimNetwork, SynTemplate,
};

/// Probes in the round's TASS plan (a subset of the full selection)
/// and in its fresh sample, for the logical and the wire path: sized so
/// a round takes a few tens of milliseconds and a run holds enough
/// rounds for a tail percentile.
const LOGICAL_PROBES: (u64, u64) = (200_000, 50_000);
const WIRE_PROBES: (u64, u64) = (120_000, 30_000);
/// The month-0 universe probed. The seed varies the scan order, the
/// fresh sample and the fault draws, not the universe or the prefixes:
/// which prefixes a round scans changes its per-prefix set-up cost.
const UNIVERSE_SEED: u64 = 0x1A55;
/// Addresses per plan the stage timings walk.
const STAGE_ADDRS: usize = 200_000;
const PORT: u16 = 80;

struct PlanCase {
    name: &'static str,
    plan: ProbePlan,
    /// The responsive set the round must reproduce.
    expected: HostSet,
}

/// A prepared probe workload.
pub struct ProbeBench {
    wire: bool,
    engine: ScanEngine,
    network: Arc<SimNetwork>,
    announced: Vec<Prefix>,
    cases: Vec<PlanCase>,
    cfg: ScanConfig,
    hosts: HostSet,
    faults: FaultConfig,
    net_seed: u64,
    /// `run_plan` time, probes and responses of the last phase, summed
    /// over plans (what the stage costs are set against).
    last_run_ms: f64,
    last_probes: u64,
    last_responses: u64,
    setup: Phase,
}

/// The largest selected prefix a round's TASS plan takes (a /18), so
/// the round's subset holds dozens of prefixes rather than a few large
/// ones.
const MAX_PREFIX_SIZE: u64 = 1 << 14;

/// Keep prefixes of at most [`MAX_PREFIX_SIZE`] addresses, in address
/// order, while they fit the budget.
fn fit_prefixes(prefixes: &[Prefix], budget: u64) -> Vec<Prefix> {
    let mut total = 0;
    let mut out = Vec::new();
    for &p in prefixes {
        if p.size() <= MAX_PREFIX_SIZE && total + p.size() <= budget {
            total += p.size();
            out.push(p);
        }
    }
    out
}

impl ProbeBench {
    /// Build the universe, plans, network and oracles for `seed`.
    pub fn setup(seed: u64, wire: bool) -> ProbeBench {
        let universe = Universe::generate(&UniverseConfig::small(UNIVERSE_SEED));
        let (tass_probes, sample_probes) = if wire { WIRE_PROBES } else { LOGICAL_PROBES };
        let topo = universe.topology();
        let t0: Arc<Snapshot> = GroundTruth::snapshot(&universe, 0, Protocol::Http);
        let announced = <V4 as FamilySpace>::announced_prefixes(topo);
        let announced_space = topo.announced_space();
        let plan_of = |spec: &str| {
            parse_spec(spec)
                .expect("benchmark specs parse")
                .strategy()
                .prepare(topo, &t0, seed)
                .plan(0)
        };
        let tass = match plan_of("tass:more:0.95") {
            ProbePlan::Prefixes(ps) => ProbePlan::Prefixes(fit_prefixes(&ps, tass_probes)),
            other => panic!("TASS plans are prefix plans, got {other:?}"),
        };
        let plans = [
            ("tass", tass),
            ("hitlist", plan_of("ip-hitlist")),
            (
                "sample",
                ProbePlan::FreshSample {
                    per_cycle: sample_probes,
                    seed: seed ^ 0x5A3B_1E00,
                },
            ),
        ];

        let faults = if wire {
            FaultConfig::lossy()
        } else {
            FaultConfig::default()
        };
        let net_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let hosts = t0.hosts.clone();
        let network = Arc::new(SimNetwork::new(
            Responder::new().with_service(Protocol::Http, hosts.clone()),
            faults,
            net_seed,
        ));
        let engine = ScanEngine::new(Arc::clone(&network));
        let cfg = ScanConfig::for_port(PORT)
            .unlimited_rate()
            .threads(if wire { 2 } else { 1 })
            .blocklist(if wire {
                Blocklist::iana_default()
            } else {
                Blocklist::empty()
            })
            .wire_level(wire)
            .seed(seed);

        let mut setup = Phase::default();
        let cases = plans
            .into_iter()
            .map(|(name, plan)| {
                let expected = if wire {
                    // the lossy outcome must not depend on the thread count
                    let one = cfg.clone().threads(1);
                    engine
                        .run_plan(&plan, 0, &announced, &one)
                        .expect("v4 plans stream")
                        .responsive
                } else if let ProbePlan::FreshSample { .. } = plan {
                    // a sample's observed() set is drawn per host, not per
                    // probe; the stream oracle is what the engine probes
                    let mut hit: Vec<u32> = plan
                        .materialize(0, &announced)
                        .into_iter()
                        .filter(|&a| t0.hosts.contains(a))
                        .collect();
                    hit.sort_unstable();
                    hit.dedup();
                    HostSet::from_sorted_unique(hit)
                } else {
                    plan.observed(&t0, 0, announced_space).materialize()
                };
                if expected.is_empty() && name != "sample" {
                    setup.check(Some(format!("{name}: oracle responsive set is empty")));
                }
                PlanCase {
                    name,
                    plan,
                    expected,
                }
            })
            .collect();
        ProbeBench {
            wire,
            engine,
            network,
            announced,
            cases,
            cfg,
            hosts,
            faults,
            net_seed,
            last_run_ms: 0.0,
            last_probes: 0,
            last_responses: 0,
            setup,
        }
    }
}

impl Bench for ProbeBench {
    fn setup_checks(&self) -> Option<&Phase> {
        Some(&self.setup)
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let before = self.network.stats();
        let mut per_plan: Vec<Vec<f64>> = vec![Vec::new(); self.cases.len()];
        let (mut probes, mut blocked, mut responses, mut invalid, mut distinct) = (0, 0, 0, 0, 0);
        let mut run_ms = 0.0;
        let start = Instant::now();
        let mut round = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            round += 1;
            let root = trace::new_id();
            let probes_before = probes;
            let t0 = Instant::now();
            for (case, samples) in self.cases.iter().zip(&mut per_plan) {
                let s = Instant::now();
                let report = self
                    .engine
                    .run_plan(&case.plan, 0, &self.announced, &self.cfg)
                    .expect("v4 plans stream");
                let e = Instant::now();
                trace::record_as(0, "engine.run_plan", root, round, s, e);
                let ms = (e - s).as_secs_f64() * 1e3;
                samples.push(ms);
                run_ms += ms;
                probes += report.probes_sent;
                blocked += report.blocked_skipped;
                responses += report.responses;
                invalid += report.validation_failures;
                distinct += report.responsive.len() as u64;
                phase.check((report.responsive != case.expected).then(|| {
                    format!(
                        "{}: {} responsive, oracle {}",
                        case.name,
                        report.responsive.len(),
                        case.expected.len()
                    )
                }));
            }
            let t1 = Instant::now();
            trace::record_as(root, "op.round", 0, round, t0, t1);
            phase.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
            phase.busy_s += (t1 - t0).as_secs_f64();
            phase
                .rates
                .push((probes - probes_before) as f64 / (t1 - t0).as_secs_f64());
        }
        phase.work = probes as f64;
        self.last_run_ms = run_ms;
        self.last_probes = probes;
        self.last_responses = responses;

        let after = self.network.stats();
        let n = |x: u64| x as f64;
        phase.layer = vec![
            ("engine.run_plan_ms.tass", stats::median(&per_plan[0])),
            ("engine.run_plan_ms.hitlist", stats::median(&per_plan[1])),
            ("engine.run_plan_ms.sample", stats::median(&per_plan[2])),
            ("engine.probes_sent", n(probes)),
            ("engine.blocked_skipped", n(blocked)),
            ("engine.responses", n(responses)),
            ("engine.validation_failures", n(invalid)),
            ("engine.hit_ratio", n(distinct) / n(probes.max(1))),
            (
                "engine.dup_ratio",
                n(responses.saturating_sub(distinct)) / n(responses.max(1)),
            ),
            ("net.probes_lost", n(after.probes_lost - before.probes_lost)),
            (
                "net.responses_lost",
                n(after.responses_lost - before.responses_lost),
            ),
            ("net.duplicated", n(after.duplicated - before.duplicated)),
        ];
        phase.notes.push(("rounds", round.to_string()));
        phase
    }

    fn layer_extras(&mut self) -> Vec<(&'static str, f64)> {
        let per = |dur: f64, count: usize| dur * 1e9 / count.max(1) as f64;
        // the stream stage, per plan, and the addresses it yields
        let mut addrs: Vec<u32> = Vec::new();
        let mut stream_s = 0.0;
        let mut streamed = 0usize;
        for case in &self.cases {
            let s = Instant::now();
            let mut it = case
                .plan
                .stream_shard(0, &self.announced, self.cfg.seed, 0, 1);
            let mut taken = 0usize;
            for a in it.by_ref() {
                black_box(a);
                if taken < STAGE_ADDRS {
                    addrs.push(a);
                }
                taken += 1;
            }
            stream_s += s.elapsed().as_secs_f64();
            streamed += taken;
        }
        let stream_ns = per(stream_s, streamed);

        let s = Instant::now();
        let blocked = addrs
            .iter()
            .filter(|&&a| self.cfg.blocklist.is_blocked(a))
            .count();
        black_box(blocked);
        let blocklist_ns = per(s.elapsed().as_secs_f64(), addrs.len());

        let bucket = AtomicTokenBucket::unlimited();
        let batches = addrs.len() / 64;
        let s = Instant::now();
        for _ in 0..batches {
            black_box(bucket.take_n(64));
        }
        let rate_ns = per(s.elapsed().as_secs_f64(), batches);

        // a fresh network, so the stage calls leave the engine's
        // counters alone
        let network: SimNetwork = SimNetwork::new(
            Responder::new().with_service(Protocol::Http, self.hosts.clone()),
            self.faults,
            self.net_seed,
        );
        let mut out = vec![
            ("plan.stream_ns_per_probe", stream_ns),
            ("blocklist.ns_per_probe", blocklist_ns),
            ("rate.ns_per_batch", rate_ns),
        ];
        let per_probe = if self.wire {
            let mut tmpl = SynTemplate::new(&FrameSpec::<V4> {
                src_ip: self.cfg.source_ip,
                dst_port: PORT,
                ..FrameSpec::default()
            });
            let s = Instant::now();
            for (i, &a) in addrs.iter().enumerate() {
                tmpl.set_target(a, 40_000 + (i as u16 & 0x3FF), i as u32);
                black_box(tmpl.frame());
            }
            let encode_ns = per(s.elapsed().as_secs_f64(), addrs.len());
            let frames: Vec<FrameBuf> = addrs
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    tmpl.set_target(a, 40_000 + (i as u16 & 0x3FF), i as u32);
                    FrameBuf::from_slice(tmpl.frame())
                })
                .collect();
            let s = Instant::now();
            let mut replies = 0usize;
            for f in &frames {
                replies += network.transmit(f).map_or(0, |r| r.len());
            }
            black_box(replies);
            let transmit_ns = per(s.elapsed().as_secs_f64(), frames.len());
            let s = Instant::now();
            let parsed = frames.iter().filter(|f| parse_frame(f).is_ok()).count();
            black_box(parsed);
            let parse_ns = per(s.elapsed().as_secs_f64(), frames.len());
            out.extend([
                ("wire.encode_ns", encode_ns),
                ("net.transmit_ns", transmit_ns),
                ("wire.parse_ns", parse_ns),
            ]);
            let reply_share = self.last_responses as f64 / self.last_probes.max(1) as f64;
            encode_ns + transmit_ns + parse_ns * reply_share
        } else {
            let s = Instant::now();
            let mut open = 0usize;
            for &a in &addrs {
                open += usize::from(network.probe_logical(a, PORT).is_some());
            }
            black_box(open);
            let logical_ns = per(s.elapsed().as_secs_f64(), addrs.len());
            out.push(("net.probe_logical_ns", logical_ns));
            logical_ns
        };
        let per_probe_ns = stream_ns + blocklist_ns + rate_ns / 64.0 + per_probe;
        let attributed_ms =
            self.last_probes as f64 * per_probe_ns / 1e6 / self.cfg.threads.max(1) as f64;
        out.push((
            "engine.unattributed_frac",
            1.0 - attributed_ms / self.last_run_ms.max(1e-9),
        ));
        out
    }
}
