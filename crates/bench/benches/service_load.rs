//! `tassd` under load: what the HTTP control plane costs.
//!
//! Rows, all medians with quartiles (see the `tass_bench` docs) unless
//! they are latency distributions of their own:
//!
//! * `request` — per-request cost of the hand-rolled HTTP path over
//!   real loopback TCP: a `/v1/healthz` roundtrip, a status poll of a
//!   finished campaign, and a full `POST /v1/campaigns` submit (workers
//!   drain the queue concurrently);
//! * `epoll` / `epoll-slow-mix` — a concurrent-connection sweep: 16/64/
//!   256/1024 keep-alive clients, each submitting a burst of campaigns
//!   and then polling status under load, plus a row where
//!   slowloris-style connections drip bytes alongside the pollers. Each
//!   row records submissions/s, completion throughput, and p50/p99
//!   status-poll latency. Every client must ride one connection (zero
//!   reconnects) and no campaign may be dropped; a failure names its
//!   row and the error kind.
//!
//! The rows go to `BENCH_service.json` at the repo root. No baseline is
//! pinned: a comparison is only meaningful against the parent revision
//! built and run on the same machine. `BENCH_QUICK=1` shrinks the sweep
//! for CI smoke runs.

use std::io::{self, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use tass_bench::{fixed, quick, reps, time, Report, Row};
use tass_model::registry::SourceRegistry;
use tass_model::{Universe, UniverseConfig};
use tass_service::{
    api, HttpClient, HttpServer, HttpdConfig, ServiceConfig, ShutdownMode, Tassd, TenantQuota,
};

fn registry() -> Arc<SourceRegistry> {
    let mut reg = SourceRegistry::new();
    reg.insert_v4(
        "demo",
        Arc::new(Universe::generate(&UniverseConfig::small(7))),
    )
    .unwrap();
    Arc::new(reg)
}

/// A daemon tuned for load: no artificial month delay, quotas wide open.
fn start_daemon(workers: usize) -> (Tassd, HttpServer) {
    let daemon = Tassd::start(
        registry(),
        ServiceConfig {
            workers,
            quota: TenantQuota {
                max_pending: 10_000,
                max_concurrent: 64,
                submits_per_sec: 0.0,
                submit_burst: 8.0,
            },
            month_delay: Duration::ZERO,
            checkpoint_dir: None,
        },
    )
    .expect("daemon start");
    // a long keep-alive: at 1024 clients on few cores a connection can
    // legitimately sit idle for many seconds between its turns, and the
    // sweep asserts zero reconnects
    let http = HttpdConfig {
        keep_alive: Duration::from_secs(300),
        ..HttpdConfig::default()
    };
    let server =
        HttpServer::bind_with("127.0.0.1:0", daemon.core(), api::router(), http).expect("bind");
    (daemon, server)
}

fn submit(client: &mut HttpClient, tenant: &str, seed: u64) -> io::Result<u64> {
    let body =
        format!(r#"{{"source":"demo","strategy":"ip-hitlist","protocol":"http","seed":{seed}}}"#);
    let (status, body) = client.post("/v1/campaigns", Some(tenant), &body)?;
    assert_eq!(status, 201, "{body}");
    let pat = r#""id":"#;
    let rest = &body[body.find(pat).unwrap() + pat.len()..];
    Ok(rest
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap())
}

/// Poll until done, without recording latencies.
fn wait_done(client: &mut HttpClient, tenant: &str, id: u64) -> io::Result<()> {
    loop {
        let (status, body) = client.get(&format!("/v1/campaigns/{id}"), Some(tenant))?;
        assert_eq!(status, 200, "{body}");
        if body.contains(r#""status":"done""#) {
            return Ok(());
        }
        assert!(!body.contains(r#""status":"failed""#), "{body}");
        thread::sleep(Duration::from_millis(1));
    }
}

fn request_rows(report: &mut Report) {
    let reps = reps(20, 5);
    let (daemon, server) = start_daemon(2);
    let mut client = HttpClient::connect(server.addr());
    let mut row = |name: &str, t| {
        report.row(
            Row::new("request")
                .set("request", name)
                .time("us", &t, 1e6, 1),
        );
    };

    row(
        "healthz_roundtrip",
        time(reps, || {
            let (status, _) = client.get("/v1/healthz", None).expect("healthz");
            assert_eq!(status, 200);
        }),
    );
    let done_id = submit(&mut client, "bench", 1).expect("submit");
    wait_done(&mut client, "bench", done_id).expect("poll");
    row(
        "status_poll_done",
        time(reps, || {
            let (status, _) = client
                .get(&format!("/v1/campaigns/{done_id}"), Some("bench"))
                .expect("poll");
            assert_eq!(status, 200);
        }),
    );
    let mut seed = 100;
    row(
        "submit_campaign",
        time(reps, || {
            seed += 1;
            submit(&mut client, "bench", seed).expect("submit")
        }),
    );

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).expect("drain");
}

/// Keep connections dripping request bytes (one byte per 20 ms) until
/// told to stop — the slow-client mix the event loop must shrug off.
fn slowloris(addr: std::net::SocketAddr, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        let Ok(mut raw) = TcpStream::connect(addr) else {
            return;
        };
        let request = b"GET /v1/healthz HTTP/1.1\r\nHost: tassd\r\n\r\n";
        for byte in request {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            if raw.write_all(std::slice::from_ref(byte)).is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        // response (or reap) ends this connection; dial the next
        let mut sink = [0u8; 1024];
        use std::io::Read as _;
        let _ = raw.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = raw.read(&mut sink);
    }
}

/// What one sweep client saw.
struct ClientRun {
    submitted: Instant,
    done: Instant,
    poll_latencies: Vec<Duration>,
    reconnects: u64,
}

/// One sweep client: submit a burst of campaigns, wait for them, then
/// hammer status polls.
fn client_run(
    addr: std::net::SocketAddr,
    tenant: &str,
    first_seed: u64,
    campaigns: usize,
    polls: usize,
    barrier: &Barrier,
) -> io::Result<ClientRun> {
    let mut client = HttpClient::connect(addr);
    barrier.wait();
    let ids = (0..campaigns as u64)
        .map(|j| submit(&mut client, tenant, first_seed + j))
        .collect::<io::Result<Vec<u64>>>()?;
    let submitted = Instant::now();
    for &id in &ids {
        wait_done(&mut client, tenant, id)?;
    }
    let done = Instant::now();
    // poll phase: status requests under full connection load
    let mut poll_latencies = Vec::with_capacity(polls);
    for _ in 0..polls {
        let p0 = Instant::now();
        let (status, _) = client.get(&format!("/v1/campaigns/{}", ids[0]), Some(tenant))?;
        poll_latencies.push(p0.elapsed());
        assert_eq!(status, 200);
        thread::sleep(Duration::from_millis(1));
    }
    Ok(ClientRun {
        submitted,
        done,
        poll_latencies,
        reconnects: client.reconnects(),
    })
}

/// One row of the sweep: `clients` keep-alive connections submit a
/// burst of campaigns, wait for them, then hammer status polls (with
/// `slow_clients` slowloris connections dripping alongside).
fn sweep_row(
    label: &str,
    clients: usize,
    campaigns_per_client: usize,
    polls_per_client: usize,
    slow_clients: usize,
) -> Row {
    let (daemon, server) = start_daemon(2);
    let addr = server.addr();
    let row_name = format!("{label} row ({clients} clients, {slow_clients} slow)");

    let stop_slow = Arc::new(AtomicBool::new(false));
    let slow_handles: Vec<_> = (0..slow_clients)
        .map(|_| {
            let stop = Arc::clone(&stop_slow);
            thread::spawn(move || slowloris(addr, stop))
        })
        .collect();

    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let first_seed = (t * campaigns_per_client) as u64;
                let tenant = format!("client-{t}");
                client_run(
                    addr,
                    &tenant,
                    first_seed,
                    campaigns_per_client,
                    polls_per_client,
                    &barrier,
                )
            })
        })
        .collect();

    let t0 = Instant::now();
    barrier.wait();
    let results: Vec<io::Result<ClientRun>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = t0.elapsed();
    stop_slow.store(true, Ordering::Relaxed);

    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Drain).expect("drain");
    for h in slow_handles {
        let _ = h.join();
    }
    let runs: Vec<ClientRun> = results
        .into_iter()
        .enumerate()
        .map(|(t, r)| {
            r.unwrap_or_else(|e| panic!("{row_name}: client {t} failed ({:?}): {e}", e.kind()))
        })
        .collect();
    for (t, run) in runs.iter().enumerate() {
        assert_eq!(
            run.reconnects, 0,
            "keep-alive must hold: {row_name}, client {t} re-dialled"
        );
    }
    let total = (clients * campaigns_per_client) as u64;
    assert_eq!(report.completed, total, "{row_name} dropped campaigns");

    let submit_wall = runs
        .iter()
        .map(|r| r.submitted.duration_since(t0))
        .max()
        .expect("clients > 0");
    let done_wall = runs
        .iter()
        .map(|r| r.done.duration_since(t0))
        .max()
        .expect("clients > 0");
    let mut polls: Vec<Duration> = runs.into_iter().flat_map(|r| r.poll_latencies).collect();
    polls.sort_unstable();
    let ms = |d: Duration| fixed(d.as_secs_f64() * 1e3, 3);
    let mut row = Row::new(label);
    row.set("clients", clients)
        .set("campaigns_per_client", campaigns_per_client)
        .set("slow_clients", slow_clients)
        .set(
            "submissions_per_sec",
            fixed(total as f64 / submit_wall.as_secs_f64(), 1),
        )
        .set(
            "completions_per_sec",
            fixed(total as f64 / done_wall.as_secs_f64(), 1),
        )
        .set("poll_p50_ms", ms(polls[polls.len() / 2]))
        .set(
            "poll_p99_ms",
            ms(polls[(polls.len() * 99 / 100).min(polls.len() - 1)]),
        )
        .set("polls", polls.len())
        .set("wall_secs", fixed(wall.as_secs_f64(), 3));
    row
}

fn main() {
    let mut report = Report::new("service_load", Some("BENCH_service.json"));
    request_rows(&mut report);
    let (counts, polls): (&[usize], usize) = if quick() {
        (&[16, 64], 10)
    } else {
        (&[16, 64, 256, 1024], 50)
    };
    for &clients in counts {
        // a roughly constant total campaign load across rows, so rows
        // differ in connection count, not campaign work
        let per_client = (256 / clients).max(1);
        report.row(&sweep_row("epoll", clients, per_client, polls, 0));
    }
    // the slow-client mix at the headline connection count
    let (mix_clients, slow) = if quick() { (64, 4) } else { (256, 32) };
    let per_client = (256 / mix_clients).max(1);
    report.row(&sweep_row(
        "epoll-slow-mix",
        mix_clients,
        per_client,
        polls,
        slow,
    ));
    report.finish();
}
