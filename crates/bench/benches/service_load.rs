//! `tassd` under load: what the HTTP control plane costs.
//!
//! Two layers:
//!
//! * **criterion micro-benches** — per-request cost of the hand-rolled
//!   HTTP path over real loopback TCP: a `/v1/healthz` roundtrip, a
//!   status poll of a finished campaign, and a full `POST
//!   /v1/campaigns` submit (workers drain the queue concurrently);
//! * **a concurrent-connection sweep** — 16/64/256/1024 keep-alive
//!   clients, each submitting a burst of campaigns and then polling
//!   status under load, plus a row where slowloris-style connections
//!   drip bytes alongside the pollers. Each row records submissions/s,
//!   completion throughput, and p50/p99 status-poll latency to
//!   `BENCH_service.json` at the repo root. No baseline is pinned: a
//!   comparison is only meaningful against the parent revision built
//!   and run on the same machine.
//!
//! `SERVICE_BENCH_QUICK=1` shrinks the sweep for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use tass_model::registry::SourceRegistry;
use tass_model::{Universe, UniverseConfig};
use tass_service::{
    api, HttpClient, HttpServer, HttpdConfig, ServiceConfig, ShutdownMode, Tassd, TenantQuota,
};

fn quick() -> bool {
    std::env::var_os("SERVICE_BENCH_QUICK").is_some()
}

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

fn submit(client: &mut HttpClient, tenant: &str, seed: u64) -> u64 {
    let body =
        format!(r#"{{"source":"demo","strategy":"ip-hitlist","protocol":"http","seed":{seed}}}"#);
    let (status, body) = client
        .post("/v1/campaigns", Some(tenant), &body)
        .expect("submit");
    assert_eq!(status, 201, "{body}");
    let pat = r#""id":"#;
    let rest = &body[body.find(pat).unwrap() + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Poll until done, without recording latencies.
fn wait_done(client: &mut HttpClient, tenant: &str, id: u64) {
    loop {
        let (status, body) = client
            .get(&format!("/v1/campaigns/{id}"), Some(tenant))
            .expect("poll");
        assert_eq!(status, 200, "{body}");
        if body.contains(r#""status":"done""#) {
            return;
        }
        assert!(!body.contains(r#""status":"failed""#), "{body}");
        thread::sleep(Duration::from_millis(1));
    }
}

fn bench_control_plane(c: &mut Criterion) {
    let (daemon, server) = start_daemon(2);
    let mut client = HttpClient::connect(server.addr());
    let mut group = c.benchmark_group("service_load");

    group.bench_function("healthz_roundtrip", |b| {
        b.iter(|| {
            let (status, _) = client.get("/v1/healthz", None).expect("healthz");
            assert_eq!(status, 200);
        })
    });

    let done_id = submit(&mut client, "bench", 1);
    wait_done(&mut client, "bench", done_id);
    group.bench_function("status_poll_done", |b| {
        b.iter(|| {
            let (status, _) = client
                .get(&format!("/v1/campaigns/{done_id}"), Some("bench"))
                .expect("poll");
            assert_eq!(status, 200);
        })
    });

    let mut seed = 100;
    group.bench_function("submit_campaign", |b| {
        b.iter(|| {
            seed += 1;
            submit(&mut client, "bench", seed)
        })
    });

    group.finish();
    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).expect("drain");
}

/// One sweep row's measurements.
struct Row {
    clients: usize,
    campaigns_per_client: usize,
    slow_clients: usize,
    submissions_per_sec: f64,
    completions_per_sec: f64,
    poll_p50: Duration,
    poll_p99: Duration,
    polls: usize,
    wall: Duration,
}

impl Row {
    fn render(&self, label: &str) -> String {
        format!(
            concat!(
                "{{\"bench\":\"service_load\",\"row\":\"{}\",",
                "\"clients\":{},\"campaigns_per_client\":{},\"slow_clients\":{},",
                "\"submissions_per_sec\":{:.1},\"completions_per_sec\":{:.1},",
                "\"poll_p50_ms\":{:.3},\"poll_p99_ms\":{:.3},\"polls\":{},\"wall_secs\":{:.3}}}"
            ),
            label,
            self.clients,
            self.campaigns_per_client,
            self.slow_clients,
            self.submissions_per_sec,
            self.completions_per_sec,
            self.poll_p50.as_secs_f64() * 1e3,
            self.poll_p99.as_secs_f64() * 1e3,
            self.polls,
            self.wall.as_secs_f64(),
        )
    }
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

/// One row of the sweep: `clients` keep-alive connections submit a
/// burst of campaigns, wait for them, then hammer status polls (with
/// `slow_clients` slowloris connections dripping alongside).
fn sweep_row(
    clients: usize,
    campaigns_per_client: usize,
    polls_per_client: usize,
    slow_clients: usize,
) -> Row {
    let (daemon, server) = start_daemon(2);
    let addr = server.addr();

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
                let tenant = format!("client-{t}");
                let mut client = HttpClient::connect(addr);
                barrier.wait();
                let ids: Vec<u64> = (0..campaigns_per_client)
                    .map(|j| submit(&mut client, &tenant, (t * campaigns_per_client + j) as u64))
                    .collect();
                let submitted = Instant::now();
                for &id in &ids {
                    wait_done(&mut client, &tenant, id);
                }
                let done = Instant::now();
                // poll phase: status requests under full connection load
                let mut lat = Vec::with_capacity(polls_per_client);
                for _ in 0..polls_per_client {
                    let p0 = Instant::now();
                    let (status, _) = client
                        .get(&format!("/v1/campaigns/{}", ids[0]), Some(&tenant))
                        .expect("poll");
                    lat.push(p0.elapsed());
                    assert_eq!(status, 200);
                    thread::sleep(Duration::from_millis(1));
                }
                assert_eq!(client.reconnects(), 0, "keep-alive must hold");
                (submitted, done, lat)
            })
        })
        .collect();

    let t0 = Instant::now();
    barrier.wait();
    let results: Vec<(Instant, Instant, Vec<Duration>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = t0.elapsed();
    stop_slow.store(true, Ordering::Relaxed);

    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Drain).expect("drain");
    for h in slow_handles {
        let _ = h.join();
    }
    let total = (clients * campaigns_per_client) as u64;
    assert_eq!(report.completed, total, "sweep row dropped campaigns");

    let submit_wall = results
        .iter()
        .map(|(s, _, _)| s.duration_since(t0))
        .max()
        .expect("clients > 0");
    let done_wall = results
        .iter()
        .map(|(_, d, _)| d.duration_since(t0))
        .max()
        .expect("clients > 0");
    let mut polls: Vec<Duration> = results.into_iter().flat_map(|(_, _, l)| l).collect();
    polls.sort_unstable();
    Row {
        clients,
        campaigns_per_client,
        slow_clients,
        submissions_per_sec: total as f64 / submit_wall.as_secs_f64(),
        completions_per_sec: total as f64 / done_wall.as_secs_f64(),
        poll_p50: polls[polls.len() / 2],
        poll_p99: polls[(polls.len() * 99 / 100).min(polls.len() - 1)],
        polls: polls.len(),
        wall,
    }
}

/// The sweep: run every row, then write one line per row to
/// `BENCH_service.json`.
fn connection_sweep() {
    let (counts, polls): (&[usize], usize) = if quick() {
        (&[16, 64], 10)
    } else {
        (&[16, 64, 256, 1024], 50)
    };
    let mut lines = Vec::new();
    for &clients in counts {
        // a roughly constant total campaign load across rows, so rows
        // differ in connection count, not campaign work
        let per_client = (256 / clients).max(1);
        let row = sweep_row(clients, per_client, polls, 0);
        eprintln!("service_load sweep: {}", row.render("epoll"));
        lines.push(row.render("epoll"));
    }
    // the slow-client mix at the headline connection count
    let mix_clients = if quick() { 64 } else { 256 };
    let slow = if quick() { 4 } else { 32 };
    let row = sweep_row(mix_clients, (256 / mix_clients).max(1), polls, slow);
    eprintln!("service_load sweep: {}", row.render("epoll-slow-mix"));
    lines.push(row.render("epoll-slow-mix"));

    // quick mode exists for CI smoke coverage: the row assertions (zero
    // reconnects, no dropped campaigns) are the check, and a truncated
    // sweep must not clobber the checked-in full trajectory file
    if quick() {
        eprintln!("service_load sweep: quick mode, BENCH_service.json left untouched");
        return;
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write BENCH_service.json");
    eprintln!("service_load sweep → {}", path.display());
}

fn bench_fleet(c: &mut Criterion) {
    // run once, outside criterion's sampling loop — the sweep is the
    // measurement, criterion just hosts it
    connection_sweep();
    // keep criterion happy with a registered (cheap) benchmark so the
    // group shows up in reports
    c.bench_function("service_load/sweep_recorded", |b| b.iter(|| 1 + 1));
}

criterion_group!(benches, bench_control_plane, bench_fleet);
criterion_main!(benches);
