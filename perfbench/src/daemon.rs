//! `daemon-mix`: an open loop of campaign submissions against an
//! in-process `tassd` over loopback HTTP.
//!
//! Jobs arrive at a fixed offered rate, whatever the daemon's state, and
//! each job's latency runs from its *scheduled* send time to its result
//! body being fetched and found byte-identical to the library's own
//! serialization. Connection A submits on schedule, polls and fetches
//! `/results`; connection B follows the jobs in submission order on
//! `/results/stream` and checks that the chunks concatenate to the same
//! bytes. The mix is mostly cheap static strategies with a tail of
//! expensive ones, over three tenants. The source is in memory and
//! evaluation is analytic, so the corpus and the packet engine do no
//! work here.
//!
//! The traced run adds what only an in-process observer can see: queue
//! wait and run time from the job's queued → running → done transitions
//! (sampled through `ServiceCore::job_view`), and sampled direct
//! `ServiceCore` calls on the same jobs, whose difference from the HTTP
//! round trips is the share of `httpd` plus loopback.

use crate::{stats, trace, Bench, Phase};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tass_core::{parse_spec, run_campaign, CampaignJob, StrategyKind};
use tass_model::registry::SourceRegistry;
use tass_model::{Protocol, Universe, UniverseConfig};
use tass_service::{
    api, HttpClient, HttpServer, HttpdConfig, ServiceConfig, ServiceCore, ShutdownMode,
    SubmitRequest, Tassd, TenantQuota,
};

/// Offered load, jobs per second: a third to a half of what the daemon
/// completes with this mix on a 2-core machine (100–150 jobs/s,
/// depending on how busy the host is), so the queue stays short unless
/// a change slows the request path, and queueing does not amplify the
/// machine's own speed swings into the latency.
pub const OFFERED_PER_S: f64 = 50.0;

/// The strategy mix: spec and weight per block of 20 submissions. The
/// weights put the median job inside the hitlist mode rather than on a
/// boundary between two strategies' costs.
const MIX: [(&str, usize); 5] = [
    ("ip-hitlist", 8),
    ("tass:more:0.95", 6),
    ("reseeding-tass:more:0.95:3", 3),
    ("adaptive-tass:more:0.95:0.05", 2),
    ("block24:0.01", 1),
];
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
const SOURCE: &str = "paper";
/// Campaign seeds per (strategy, protocol).
const CAMPAIGN_SEEDS: u64 = 2;
/// How often connection A re-polls a pending job.
const POLL_GAP: Duration = Duration::from_millis(2);
/// How often the traced run's observer samples job states.
const OBSERVE_GAP: Duration = Duration::from_micros(200);
/// Every n-th job is also driven through direct `ServiceCore` calls in
/// the traced run.
const DIRECT_EVERY: usize = 10;
/// Give up on jobs still unfinished this long after the window closes.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One distinct campaign the schedule draws from, with its oracle.
struct JobSpec {
    kind: StrategyKind,
    spec: &'static str,
    protocol: Protocol,
    seed: u64,
    /// `serde_json::to_string(&run_campaign(..).with_job(..))`.
    body: String,
    /// The campaign run alone through `run_campaign`, in milliseconds.
    solo_ms: f64,
    cycles: u32,
}

/// A prepared daemon-mix workload.
pub struct DaemonMix {
    daemon: Option<Tassd>,
    server: Option<HttpServer>,
    core: Arc<ServiceCore>,
    addr: SocketAddr,
    jobs: Vec<JobSpec>,
    seed: u64,
    setup: Phase,
}

/// Latency of an open-loop operation: measured from when it was due,
/// so a stall that delays later sends counts against them too.
pub fn open_loop_latency_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// A tiny seeded generator for the schedule's shuffles.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next pseudo-random value.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The job index of each of the first `n` submissions. Strategies
/// follow one fixed block holding the mix's exact proportions, spread
/// by smooth weighted round robin so expensive jobs never bunch up (a
/// bunch would make queueing, not the code, set the latency). The seed
/// rotates where the block starts; protocols and campaign seeds cycle
/// under it, so over a run every (strategy, protocol, seed) job occurs.
fn schedule(seed: u64, n: usize) -> Vec<usize> {
    let total: i64 = MIX.iter().map(|m| m.1 as i64).sum();
    let mut current = [0i64; MIX.len()];
    let block: Vec<usize> = (0..total)
        .map(|_| {
            for (c, m) in current.iter_mut().zip(&MIX) {
                *c += m.1 as i64;
            }
            let pick = (0..MIX.len())
                .max_by_key(|&i| (current[i], std::cmp::Reverse(i)))
                .expect("non-empty mix");
            current[pick] -= total;
            pick
        })
        .collect();
    let offset = (SplitMix(seed ^ 0xD1CE_5EED).next() % (4 * total as u64)) as usize;
    (0..n)
        .map(|slot| {
            let k = slot + offset;
            let round = k / block.len();
            let spec = block[k % block.len()];
            let proto = (k + round) % 4;
            let cseed = (round / 4) % CAMPAIGN_SEEDS as usize;
            (spec * 4 + proto) * CAMPAIGN_SEEDS as usize + cseed
        })
        .collect()
}

fn submit_body(job: &JobSpec) -> String {
    format!(
        r#"{{"source":"{SOURCE}","strategy":"{}","protocol":"{}","seed":{}}}"#,
        job.spec,
        job.protocol.tag(),
        job.seed
    )
}

fn parse_id(body: &str) -> Option<u64> {
    let rest = &body[body.find(r#""id":"#)? + 5..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

impl DaemonMix {
    /// Generate the universe, compute every job's oracle, start the
    /// daemon and warm it up.
    pub fn setup(seed: u64) -> DaemonMix {
        // the paper-scale source is fixed; the seed picks the campaign
        // seeds and the submission order
        let universe = Universe::generate(&UniverseConfig::default());
        let mut jobs = Vec::new();
        for &(spec, _) in &MIX {
            let kind = parse_spec(spec).expect("benchmark specs parse");
            for protocol in Protocol::ALL {
                for c in 0..CAMPAIGN_SEEDS {
                    let cseed = seed.wrapping_mul(CAMPAIGN_SEEDS).wrapping_add(c + 1);
                    let start = Instant::now();
                    let result = run_campaign(&universe, kind, protocol, cseed)
                        .with_job(CampaignJob::new(kind, protocol, cseed));
                    let solo_ms = start.elapsed().as_secs_f64() * 1e3;
                    jobs.push(JobSpec {
                        kind,
                        spec,
                        protocol,
                        seed: cseed,
                        body: serde_json::to_string(&result).expect("results serialize"),
                        solo_ms,
                        cycles: result.months.len() as u32,
                    });
                }
            }
        }
        let mut registry = SourceRegistry::new();
        registry
            .insert_v4(SOURCE, Arc::new(universe))
            .expect("fresh registry");
        let daemon = Tassd::start(
            Arc::new(registry),
            ServiceConfig {
                workers: 2,
                quota: TenantQuota {
                    max_pending: 1 << 20,
                    ..TenantQuota::default()
                },
                checkpoint_dir: None,
                month_delay: Duration::ZERO,
            },
        )
        .expect("daemon starts");
        let core = daemon.core();
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            daemon.core(),
            api::router(),
            HttpdConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.addr();
        let mut bench = DaemonMix {
            daemon: Some(daemon),
            server: Some(server),
            core,
            addr,
            jobs,
            seed,
            setup: Phase::default(),
        };
        bench.warm_up();
        bench
    }

    /// Run one job of each strategy end to end, unmeasured.
    fn warm_up(&mut self) {
        let mut client = HttpClient::connect(self.addr);
        for spec_idx in 0..MIX.len() {
            let job = &self.jobs[spec_idx * 4 * CAMPAIGN_SEEDS as usize];
            let err = (|| -> Result<(), String> {
                let (status, body) = client
                    .post("/v1/campaigns", Some(TENANTS[0]), &submit_body(job))
                    .map_err(|e| e.to_string())?;
                let id = parse_id(&body)
                    .filter(|_| status == 201)
                    .ok_or(format!("warm-up submit: {status} {body}"))?;
                let deadline = Instant::now() + DRAIN_LIMIT;
                loop {
                    let (_, view) = client
                        .get(&format!("/v1/campaigns/{id}"), Some(TENANTS[0]))
                        .map_err(|e| e.to_string())?;
                    if view.contains(r#""status":"done""#) {
                        break;
                    }
                    if view.contains(r#""status":"failed""#) || Instant::now() > deadline {
                        return Err(format!("warm-up job {id}: {view}"));
                    }
                    thread::sleep(POLL_GAP);
                }
                let (status, body) = client
                    .get(&format!("/v1/campaigns/{id}/results"), Some(TENANTS[0]))
                    .map_err(|e| e.to_string())?;
                (status == 200 && body == job.body)
                    .then_some(())
                    .ok_or(format!("warm-up job {id}: result differs from the oracle"))
            })()
            .err();
            self.setup.check(err);
        }
    }
}

impl Drop for DaemonMix {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(daemon) = self.daemon.take() {
            if let Err(e) = daemon.shutdown(ShutdownMode::Drain) {
                eprintln!("perfbench: daemon shutdown: {e}");
            }
        }
    }
}

/// A submitted job connection A is waiting on.
struct Flight {
    job: usize,
    tenant: &'static str,
    id: u64,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    direct: bool,
    next_poll: Instant,
}

/// A job connection A saw through to a verified result.
struct Finished {
    flight: Flight,
    seen_done: Instant,
    verified: Instant,
}

/// What connection B saw.
#[derive(Default)]
struct Followed {
    phase: Phase,
    ttfb_us: Vec<f64>,
    first_month_ms: Vec<f64>,
    requests: u64,
    reconnects: u64,
}

/// Connection B: stream each submitted job's result in order.
fn follow(
    addr: SocketAddr,
    rx: mpsc::Receiver<(u64, &'static str, usize, Instant)>,
    jobs: &[JobSpec],
) -> Followed {
    let mut client = HttpClient::connect(addr);
    let mut out = Followed::default();
    for (id, tenant, job, due) in rx {
        let requested = Instant::now();
        let mut stamps: Vec<Instant> = Vec::with_capacity(16);
        let res = client.get_stream(
            &format!("/v1/campaigns/{id}/results/stream"),
            Some(tenant),
            |_| stamps.push(Instant::now()),
        );
        out.requests += 1;
        let err = match res {
            Ok((200, body)) if body == jobs[job].body.as_bytes() => None,
            Ok((200, _)) => Some(format!("stream {id}: chunks differ from the oracle")),
            Ok((status, _)) => Some(format!("stream {id}: status {status}")),
            Err(e) => Some(format!("stream {id}: {e}")),
        };
        if err.is_none() {
            if let Some(first) = stamps.first() {
                out.ttfb_us
                    .push(first.saturating_duration_since(requested).as_secs_f64() * 1e6);
            }
            // piece 0 is the envelope prefix, piece 1 the first month
            if let Some(&month) = stamps.get(1) {
                out.first_month_ms.push(open_loop_latency_ms(due, month));
            }
        }
        out.phase.check(err);
    }
    out.reconnects = client.reconnects();
    out
}

/// The traced run's observer: first time each job was seen running and
/// seen finished.
type Transitions = HashMap<u64, (Option<Instant>, Option<Instant>)>;

fn observe(core: &ServiceCore, rx: mpsc::Receiver<(u64, &'static str)>) -> Transitions {
    let mut seen = Transitions::new();
    let mut watch: Vec<(u64, &'static str)> = Vec::new();
    let mut open = true;
    while open || !watch.is_empty() {
        loop {
            match rx.try_recv() {
                Ok(w) => watch.push(w),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let now = Instant::now();
        watch.retain(|&(id, tenant)| {
            let entry = seen.entry(id).or_default();
            match core.job_view(tenant, id).map(|v| v.status) {
                Some(s) if s == "running" => {
                    entry.0.get_or_insert(now);
                    true
                }
                Some(s) if s == "queued" => true,
                _ => {
                    entry.1 = Some(now);
                    false
                }
            }
        });
        thread::sleep(OBSERVE_GAP);
    }
    seen
}

impl Bench for DaemonMix {
    fn setup_checks(&self) -> Option<&Phase> {
        Some(&self.setup)
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let traced = trace::enabled();
        let n = (OFFERED_PER_S * seconds).round().max(1.0) as usize;
        let slots = schedule(self.seed, n);
        let interval = Duration::from_secs_f64(1.0 / OFFERED_PER_S);
        let jobs = &self.jobs;
        let core = &*self.core;
        let addr = self.addr;

        let mut phase = Phase::default();
        let mut lag_ms = Vec::with_capacity(n);
        let (mut submit_us, mut poll_us, mut results_us) = (Vec::new(), Vec::new(), Vec::new());
        let (mut submit_call_us, mut view_call_us, mut result_call_us) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut finished: Vec<Finished> = Vec::with_capacity(n);
        let (mut polls, mut rejected, mut requests) = (0u64, 0u64, 0u64);

        let (follow_tx, follow_rx) = mpsc::channel();
        let (watch_tx, watch_rx) = mpsc::channel();
        let (followed, transitions, reconnects_a, start) = thread::scope(|s| {
            let follower = s.spawn(move || follow(addr, follow_rx, jobs));
            let observer = traced.then(|| s.spawn(move || observe(core, watch_rx)));
            let mut client = HttpClient::connect(addr);
            let start = Instant::now() + Duration::from_millis(5);
            let due = |i: usize| start + interval * i as u32;
            let mut next = 0usize;
            let mut pending: Vec<Flight> = Vec::new();
            loop {
                let now = Instant::now();
                if next < n && now >= due(next) {
                    let job = slots[next];
                    let tenant = TENANTS[next % TENANTS.len()];
                    let direct = traced && next.is_multiple_of(DIRECT_EVERY);
                    let sent = Instant::now();
                    lag_ms.push(open_loop_latency_ms(due(next), sent));
                    let id = if direct {
                        let j = &jobs[job];
                        let r = core.submit(
                            tenant,
                            SubmitRequest {
                                source: SOURCE.to_string(),
                                kind: j.kind,
                                protocol: Some(j.protocol),
                                seed: j.seed,
                                months: None,
                            },
                        );
                        submit_call_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        r.map_err(|e| format!("direct submit: {e}"))
                    } else {
                        requests += 1;
                        let r =
                            client.post("/v1/campaigns", Some(tenant), &submit_body(&jobs[job]));
                        submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        match r {
                            Ok((201, body)) => parse_id(&body).ok_or(format!("submit: {body}")),
                            Ok((status, body)) => Err(format!("submit: {status} {body}")),
                            Err(e) => Err(format!("submit: {e}")),
                        }
                    };
                    let submitted = Instant::now();
                    match id {
                        Ok(id) => {
                            follow_tx
                                .send((id, tenant, job, due(next)))
                                .expect("follower alive");
                            if traced {
                                let _ = watch_tx.send((id, tenant));
                            }
                            pending.push(Flight {
                                job,
                                tenant,
                                id,
                                due: due(next),
                                sent,
                                submitted,
                                direct,
                                next_poll: submitted + POLL_GAP,
                            });
                        }
                        Err(e) => {
                            rejected += 1;
                            phase.check(Some(e));
                        }
                    }
                    next += 1;
                    continue;
                }
                if next >= n && pending.is_empty() {
                    break;
                }
                if now > due(n) + DRAIN_LIMIT {
                    for f in pending.drain(..) {
                        phase.check(Some(format!(
                            "job {} unfinished after the drain limit",
                            f.id
                        )));
                    }
                    break;
                }
                let mut i = 0;
                let mut polled = false;
                while i < pending.len() {
                    if next < n && Instant::now() >= due(next) {
                        break;
                    }
                    if pending[i].next_poll > Instant::now() {
                        i += 1;
                        continue;
                    }
                    polled = true;
                    let f = &pending[i];
                    let t = Instant::now();
                    requests += 1;
                    polls += 1;
                    let view = client.get(&format!("/v1/campaigns/{}", f.id), Some(f.tenant));
                    poll_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let done = match &view {
                        Ok((200, body)) if body.contains(r#""status":"done""#) => Ok(true),
                        Ok((200, body)) if !body.contains(r#""status":"failed""#) => Ok(false),
                        Ok((status, body)) => Err(format!("poll {}: {status} {body}", f.id)),
                        Err(e) => Err(format!("poll {}: {e}", f.id)),
                    };
                    match done {
                        Ok(false) => {
                            pending[i].next_poll = Instant::now() + POLL_GAP;
                            i += 1;
                        }
                        Err(e) => {
                            pending.swap_remove(i);
                            phase.check(Some(e));
                        }
                        Ok(true) => {
                            let f = pending.swap_remove(i);
                            let seen_done = Instant::now();
                            requests += 1;
                            let r = client
                                .get(&format!("/v1/campaigns/{}/results", f.id), Some(f.tenant));
                            results_us.push(seen_done.elapsed().as_secs_f64() * 1e6);
                            let oracle = &jobs[f.job].body;
                            let err = match r {
                                Ok((200, body)) if body == *oracle => None,
                                Ok((200, _)) => {
                                    Some(format!("results {}: body differs from the oracle", f.id))
                                }
                                Ok((status, _)) => {
                                    Some(format!("results {}: status {status}", f.id))
                                }
                                Err(e) => Some(format!("results {}: {e}", f.id)),
                            };
                            let verified = Instant::now();
                            if traced && f.direct && err.is_none() {
                                let t = Instant::now();
                                let view = core.job_view(f.tenant, f.id);
                                view_call_us.push(t.elapsed().as_secs_f64() * 1e6);
                                let t = Instant::now();
                                let body = core.job_result(f.tenant, f.id);
                                result_call_us.push(t.elapsed().as_secs_f64() * 1e6);
                                if view.is_none() || body.as_deref().ok() != Some(oracle.as_str()) {
                                    phase.check(Some(format!(
                                        "direct calls on job {} disagree",
                                        f.id
                                    )));
                                }
                            }
                            if err.is_none() {
                                phase
                                    .latencies_ms
                                    .push(open_loop_latency_ms(f.due, verified));
                                finished.push(Finished {
                                    flight: f,
                                    seen_done,
                                    verified,
                                });
                            }
                            phase.check(err);
                        }
                    }
                }
                if !polled {
                    let mut wake = pending
                        .iter()
                        .map(|f| f.next_poll)
                        .min()
                        .unwrap_or_else(|| Instant::now() + POLL_GAP);
                    if next < n {
                        wake = wake.min(due(next));
                    }
                    let now = Instant::now();
                    if wake > now {
                        thread::sleep(wake - now);
                    }
                }
            }
            drop(follow_tx);
            drop(watch_tx);
            let followed = follower.join().expect("follower thread");
            let transitions = observer
                .map(|o| o.join().expect("observer thread"))
                .unwrap_or_default();
            (followed, transitions, client.reconnects(), start)
        });

        phase.absorb_counts(&followed.phase);
        let last = finished.iter().map(|f| f.verified).max().unwrap_or(start);
        phase.work = finished.len() as f64;
        phase.busy_s = last.saturating_duration_since(start).as_secs_f64();
        let lag = stats::summarize(&lag_ms);
        phase.notes = vec![
            ("offered_per_s", format!("{OFFERED_PER_S}")),
            ("loadgen_lag_ms_p50", format!("{:.4}", lag.p50)),
            (
                "loadgen_lag_ms_tail",
                format!("{:.4} (p{})", lag.tail, lag.tail_pct),
            ),
            (
                "reconnects",
                (reconnects_a + followed.reconnects).to_string(),
            ),
        ];

        // queue wait and run time from the observed transitions, laid
        // out back to back on each job's timeline
        let (mut queue_ms, mut run_ms) = (Vec::new(), Vec::new());
        for f in finished.iter().filter(|_| traced) {
            let fl = &f.flight;
            let (running, done) = transitions.get(&fl.id).copied().unwrap_or((None, None));
            let b3 = running
                .or(done)
                .unwrap_or(fl.submitted)
                .clamp(fl.submitted, f.seen_done);
            let b4 = done.unwrap_or(f.seen_done).clamp(b3, f.seen_done);
            queue_ms.push((b3 - fl.submitted).as_secs_f64() * 1e3);
            run_ms.push((b4 - b3).as_secs_f64() * 1e3);
            let root = trace::new_id();
            let job = fl.id;
            let submit = if fl.direct {
                "service.submit"
            } else {
                "httpd.submit"
            };
            trace::record_as(0, "loadgen.lag", root, job, fl.due, fl.sent);
            trace::record_as(0, submit, root, job, fl.sent, fl.submitted);
            trace::record_as(0, "service.queue_wait", root, job, fl.submitted, b3);
            trace::record_as(0, "campaign.run", root, job, b3, b4);
            trace::record_as(0, "httpd.poll_detect", root, job, b4, f.seen_done);
            trace::record_as(0, "httpd.results", root, job, f.seen_done, f.verified);
            trace::record_as(root, "op.job", 0, job, fl.due, f.verified);
        }
        let solo: Vec<f64> = finished
            .iter()
            .map(|f| jobs[f.flight.job].solo_ms)
            .collect();
        let s = |v: &[f64]| stats::summarize(v);
        let run = s(&run_ms);
        let solo_p50 = stats::median(&solo);
        phase.layer = vec![
            ("loadgen.lag_ms.tail", lag.tail),
            ("httpd.submit_rtt_us.p50", s(&submit_us).p50),
            ("httpd.submit_rtt_us.tail", s(&submit_us).tail),
            ("httpd.poll_rtt_us.p50", s(&poll_us).p50),
            ("httpd.poll_rtt_us.tail", s(&poll_us).tail),
            ("httpd.results_rtt_us.p50", s(&results_us).p50),
            ("httpd.stream_ttfb_us.p50", s(&followed.ttfb_us).p50),
            ("httpd.first_month_ms.p50", s(&followed.first_month_ms).p50),
            ("httpd.requests", (requests + followed.requests) as f64),
            (
                "httpd.reconnects",
                (reconnects_a + followed.reconnects) as f64,
            ),
            ("service.submit_call_us.p50", s(&submit_call_us).p50),
            ("service.job_view_call_us.p50", s(&view_call_us).p50),
            ("service.result_call_us.p50", s(&result_call_us).p50),
            ("service.queue_wait_ms.p50", s(&queue_ms).p50),
            ("service.queue_wait_ms.tail", s(&queue_ms).tail),
            ("service.run_ms.p50", run.p50),
            ("service.run_ms.tail", run.tail),
            (
                "service.polls_per_job",
                polls as f64 / finished.len().max(1) as f64,
            ),
            ("service.rejected", rejected as f64),
            ("campaign.solo_ms.p50", solo_p50),
            ("campaign.contention_ratio", run.p50 / solo_p50.max(1e-9)),
            (
                "campaign.cycles",
                finished
                    .iter()
                    .map(|f| jobs[f.flight.job].cycles as f64)
                    .sum(),
            ),
        ];
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_scheduled_time() {
        let due = Instant::now();
        // the generator stalled: the job went out 50 ms late and its
        // result arrived 10 ms after that
        let sent = due + Duration::from_millis(50);
        let done = sent + Duration::from_millis(10);
        assert_eq!(open_loop_latency_ms(due, done).round(), 60.0);
        assert!(open_loop_latency_ms(due, done) > open_loop_latency_ms(sent, done));
        // a completion can never precede its due time
        assert_eq!(open_loop_latency_ms(done, due), 0.0);
    }

    #[test]
    fn schedule_keeps_the_mix_and_spreads_protocols_and_seeds() {
        let block: usize = MIX.iter().map(|m| m.1).sum();
        let n = block * 40;
        let slots = schedule(9, n);
        let per_job = 4 * CAMPAIGN_SEEDS as usize;
        for (i, &(_, w)) in MIX.iter().enumerate() {
            let count = slots.iter().filter(|&&j| j / per_job == i).count();
            assert_eq!(count, w * 40);
        }
        for j in 0..MIX.len() * per_job {
            assert!(slots.contains(&j), "job {j} never scheduled");
        }
        assert_eq!(schedule(9, n), slots);
        assert_ne!(schedule(10, n), slots);
    }
}
