//! `corpus-ingest` and `corpus-replay`: the corpus write and read paths
//! over the same data, a paper-scale `Universe` rendered to plain-text
//! address lists.
//!
//! `corpus-ingest` repeatedly builds a corpus from those lists with
//! `CorpusBuilder::add_address_list_file` (at most `nproc` parser
//! workers), finishes and opens it, and checks every month against the
//! universe it came from. `corpus-replay` ingests once during set-up and
//! then replays rows of a strategy × protocol × seed matrix on
//! `CampaignPool::new(2)` from `CorpusGroundTruth`, whose byte ceiling
//! is below the corpus size so months are evicted and mapped again;
//! every result must equal the same campaign run on the in-memory
//! universe. Neither workload touches HTTP, the service or the engine.

use crate::daemon::SplitMix;
use crate::timed::{TimedSource, TimedStrategy};
use crate::{stats, trace, Bench, Phase, OUT_DIR};
use std::fs;
use std::io::{BufWriter, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tass_core::{parse_spec, run_campaign_strategy, CampaignPool, CampaignResult, StrategyKind};
use tass_model::source::GroundTruth;
use tass_model::{
    export_universe, CorpusBuilder, CorpusGroundTruth, CorpusOptions, IngestOptions, Protocol,
    Universe, UniverseConfig,
};

/// Parser workers for ingestion and campaign workers for replay.
const WORKERS: usize = 2;

/// The replay matrix's strategies (one per registry kind except the
/// uniform sample, which the fresh-sample kind covers).
const REPLAY_KINDS: [&str; 8] = [
    "full-scan",
    "ip-hitlist",
    "tass:more:0.95",
    "random-sample:0.01",
    "block24:0.01",
    "random-prefix:more:0.05",
    "reseeding-tass:more:0.95:3",
    "adaptive-tass:more:0.95:0.05",
];
/// Campaign seeds per protocol in the replay matrix.
const REPLAY_SEEDS: u64 = 2;
/// The month cache holds at most this share of the corpus's bytes.
const CACHE_SHARE: usize = 2;

/// One rendered address list.
struct ListFile {
    month: u32,
    protocol: Protocol,
    path: PathBuf,
    addrs: usize,
}

/// The paper-scale universe both corpus workloads render. It is fixed;
/// the seed varies the ingest order and the replayed campaigns.
fn universe() -> Universe {
    Universe::generate(&UniverseConfig::default())
}

/// A work directory of this process under the output directory.
fn work_dir(workload: &str) -> PathBuf {
    let dir = Path::new(OUT_DIR).join(format!("work-{workload}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

/// Render every month and protocol of `u` as one address per line.
fn render_lists(u: &Universe, dir: &Path) -> Vec<ListFile> {
    fs::create_dir_all(dir).expect("create the list directory");
    let mut out = Vec::new();
    for month in 0..=u.months() {
        for protocol in Protocol::ALL {
            let path = dir.join(format!("m{month}-{}.txt", protocol.tag()));
            let hosts = &u.snapshot(month, protocol).hosts;
            let mut w = BufWriter::new(fs::File::create(&path).expect("create an address list"));
            for a in hosts.iter() {
                writeln!(w, "{}", Ipv4Addr::from(a)).expect("write an address list");
            }
            w.flush().expect("flush an address list");
            out.push(ListFile {
                month,
                protocol,
                path,
                addrs: hosts.len(),
            });
        }
    }
    out
}

fn ingest_options() -> IngestOptions {
    IngestOptions {
        workers: WORKERS,
        ..IngestOptions::default()
    }
}

/// Check that every month of the corpus holds exactly the universe's
/// hosts.
fn verify_corpus(gt: &CorpusGroundTruth, u: &Universe, phase: &mut Phase) {
    for month in 0..=u.months() {
        for protocol in Protocol::ALL {
            let want = &u.snapshot(month, protocol).hosts;
            let err = match gt.load_snapshot(month, protocol) {
                Ok(snap) if snap.hosts == *want => None,
                Ok(snap) => Some(format!(
                    "month {month} {}: {} hosts in the corpus, universe has {}",
                    protocol.tag(),
                    snap.hosts.len(),
                    want.len()
                )),
                Err(e) => Some(format!("month {month} {}: {e}", protocol.tag())),
            };
            phase.check(err);
        }
    }
}

/// A prepared corpus-ingest workload.
pub struct Ingest {
    universe: Universe,
    work: PathBuf,
    lists: Vec<ListFile>,
    rounds: u64,
}

impl Ingest {
    /// Generate the universe and render its address lists.
    pub fn setup(seed: u64) -> Ingest {
        let universe = universe();
        let work = work_dir("ingest");
        let mut lists = render_lists(&universe, &work.join("lists"));
        let mut rng = SplitMix(seed ^ 0x1267_E575);
        for i in (1..lists.len()).rev() {
            lists.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Ingest {
            universe,
            work,
            lists,
            rounds: 0,
        }
    }
}

impl Drop for Ingest {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.work);
    }
}

impl Bench for Ingest {
    fn measure(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let (mut finish_ms, mut open_ms) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            self.rounds += 1;
            let dir = self.work.join(format!("corpus-{}", self.rounds));
            let s = Instant::now();
            let mut builder = CorpusBuilder::create(&dir, &self.universe.topology().synth.table)
                .expect("create a corpus");
            phase.busy_s += s.elapsed().as_secs_f64();
            for (i, lf) in self.lists.iter().enumerate() {
                let job = self.rounds * 1000 + i as u64;
                let root = trace::new_id();
                let s = Instant::now();
                let r = builder.add_address_list_file(
                    lf.month,
                    lf.protocol,
                    &lf.path,
                    &ingest_options(),
                );
                let e = Instant::now();
                trace::record_as(0, "corpus.ingest", root, job, s, e);
                trace::record_as(root, "op.ingest", 0, job, s, e);
                phase.latencies_ms.push((e - s).as_secs_f64() * 1e3);
                phase.busy_s += (e - s).as_secs_f64();
                match r {
                    Ok(()) => phase.work += lf.addrs as f64,
                    Err(e) => phase.check(Some(format!("ingest {}: {e}", lf.path.display()))),
                }
            }
            // finishing and opening the corpus are root operations of
            // their own
            let round = self.rounds;
            let op = |name: &str, s: Instant| {
                let e = Instant::now();
                let root = trace::new_id();
                trace::record_as(0, name, root, round, s, e);
                trace::record_as(root, "op.corpus", 0, round, s, e);
                (e - s).as_secs_f64()
            };
            let s = Instant::now();
            let finished = builder.finish();
            let dt = op("corpus.finish", s);
            finish_ms.push(dt * 1e3);
            phase.busy_s += dt;
            let s = Instant::now();
            let opened = finished.and_then(|_| CorpusGroundTruth::open(&dir));
            let dt = op("corpus.open", s);
            open_ms.push(dt * 1e3);
            phase.busy_s += dt;
            match opened {
                Ok(gt) => verify_corpus(&gt, &self.universe, &mut phase),
                Err(e) => phase.check(Some(format!("finish or open: {e}"))),
            }
            let _ = fs::remove_dir_all(&dir);
        }
        phase.layer = vec![
            ("corpus.open_ms", stats::median(&open_ms)),
            ("corpus.finish_ms", stats::median(&finish_ms)),
            (
                "corpus.ingest_ms_per_month.p50",
                stats::median(&phase.latencies_ms),
            ),
        ];
        phase
    }
}

/// One operation of the replay: every kind once, two kinds per protocol
/// (kind `i` of row `r` replays protocol `(i / 2 + r) % 4`), so every
/// row costs about the same while the rows of one seed cover the whole
/// kind × protocol matrix. The two workers start on jobs of the same
/// protocol, so some month loads hit the cache and the rest are evicted
/// and mapped again.
struct Row {
    jobs: Vec<(StrategyKind, Protocol)>,
    seed: u64,
    /// Serialized results of the same row on the in-memory universe.
    oracle: Vec<String>,
}

/// A prepared corpus-replay workload.
pub struct Replay {
    corpus: CorpusGroundTruth,
    work: PathBuf,
    rows: Vec<Row>,
    rng: SplitMix,
    setup: Phase,
}

impl Replay {
    /// Export the universe as a corpus (the write path is
    /// corpus-ingest's to measure), open it with a month cache smaller
    /// than the corpus, and compute the matrix on the universe.
    pub fn setup(seed: u64) -> Replay {
        let universe = universe();
        let work = work_dir("replay");
        let dir = work.join("corpus");
        export_universe(&universe, &dir).expect("export the universe");
        let corpus_bytes: u64 = fs::read_dir(dir.join("snapshots"))
            .expect("list snapshots")
            .map(|e| e.and_then(|e| e.metadata()).map_or(0, |m| m.len()))
            .sum();
        let corpus = CorpusGroundTruth::open_with(
            &dir,
            &CorpusOptions {
                cache_snapshots: 64,
                cache_bytes: Some(corpus_bytes as usize / CACHE_SHARE),
            },
        )
        .expect("open the corpus");
        let mut setup = Phase::default();
        verify_corpus(&corpus, &universe, &mut setup);

        let kinds: Vec<StrategyKind> = REPLAY_KINDS
            .iter()
            .map(|s| parse_spec(s).expect("benchmark specs parse"))
            .collect();
        let pool = CampaignPool::new(WORKERS);
        let mut rows = Vec::new();
        for c in 0..REPLAY_SEEDS {
            let rseed = seed.wrapping_mul(REPLAY_SEEDS).wrapping_add(c + 1);
            for r in 0..Protocol::ALL.len() {
                let jobs: Vec<(StrategyKind, Protocol)> = kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, Protocol::ALL[(i / 2 + r) % Protocol::ALL.len()]))
                    .collect();
                let oracle = pool
                    .run_campaigns(&universe, &jobs, rseed)
                    .iter()
                    .map(|r| serde_json::to_string(r).expect("results serialize"))
                    .collect();
                rows.push(Row {
                    jobs,
                    seed: rseed,
                    oracle,
                });
            }
        }
        Replay {
            corpus,
            work,
            rows,
            rng: SplitMix(seed ^ 0x0C0F_FEE5),
            setup,
        }
    }

    /// The row on `CampaignPool`, as users replay it.
    fn run_row(&self, row: &Row) -> Vec<CampaignResult> {
        CampaignPool::new(WORKERS).run_campaigns(&self.corpus, &row.jobs, row.seed)
    }

    /// The row with every strategy call and month load timed: the same
    /// campaigns on the same number of workers claiming jobs from one
    /// cursor, through `run_campaign_strategy` (which `run_campaign` is
    /// a thin wrapper of) so the timing wrappers can be passed in.
    /// Returns the results and the workers' summed busy seconds.
    fn run_row_traced(&self, row: &Row, row_no: u64) -> (Vec<CampaignResult>, f64) {
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<CampaignResult>>> = Mutex::new(vec![None; row.jobs.len()]);
        let busy = Mutex::new(0.0);
        let worker = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(kind, protocol)) = row.jobs.get(i) else {
                break;
            };
            let job = row_no * 100 + i as u64;
            let root = trace::new_id();
            let run = trace::new_id();
            trace::set_context(run, job);
            let s = Instant::now();
            let result = run_campaign_strategy(
                &TimedSource(&self.corpus),
                &TimedStrategy::new(kind),
                protocol,
                row.seed,
            );
            let e = Instant::now();
            trace::set_context(0, 0);
            trace::record_as(run, "campaign.run", root, job, s, e);
            trace::record_as(root, "op.campaign", 0, job, s, e);
            *busy.lock().expect("busy lock") += (e - s).as_secs_f64();
            slots.lock().expect("slot lock")[i] = Some(result);
        };
        std::thread::scope(|s| {
            for _ in 1..WORKERS {
                s.spawn(worker);
            }
            worker();
        });
        let results = slots
            .into_inner()
            .expect("slot lock")
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect();
        (results, busy.into_inner().expect("busy lock"))
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.work);
    }
}

impl Bench for Replay {
    fn setup_checks(&self) -> Option<&Phase> {
        Some(&self.setup)
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let traced = trace::enabled();
        let mut phase = Phase::default();
        let mut busy = 0.0;
        let mut order: Vec<usize> = Vec::new();
        let mut row_no = 0u64;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            if order.is_empty() {
                // a fresh pass over every row, in seeded order
                order = (0..self.rows.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, (self.rng.next() % (i as u64 + 1)) as usize);
                }
            }
            let row = &self.rows[order.pop().expect("refilled above")];
            row_no += 1;
            let s = Instant::now();
            let results = if traced {
                let (r, b) = self.run_row_traced(row, row_no);
                busy += b;
                r
            } else {
                self.run_row(row)
            };
            let dt = s.elapsed().as_secs_f64();
            phase.latencies_ms.push(dt * 1e3);
            phase.busy_s += dt;
            let cycles: usize = results.iter().map(|r| r.months.len()).sum();
            phase.rates.push(cycles as f64 / dt);
            for (result, want) in results.iter().zip(&row.oracle) {
                phase.work += result.months.len() as f64;
                let got = serde_json::to_string(result).expect("results serialize");
                phase.check((got != *want).then(|| {
                    format!(
                        "replay {} {} seed {}: differs from the in-memory run",
                        result.strategy,
                        result.protocol.tag(),
                        row.seed
                    )
                }));
            }
        }
        phase.layer = vec![
            ("campaign.cycles", phase.work),
            (
                "campaign.pool_busy_frac",
                busy / (phase.busy_s * WORKERS as f64).max(1e-9),
            ),
        ];
        phase
    }
}
