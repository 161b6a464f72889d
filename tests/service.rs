//! End-to-end tests of `tassd` over real loopback TCP: multi-tenant
//! fairness, quota enforcement, byte-identical results, and
//! checkpointed kill-then-resume.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tass::core::{run_campaign, CampaignJob, StrategyKind};
use tass::model::registry::SourceRegistry;
use tass::model::{Protocol, Universe, UniverseConfig};
use tass::service::{api, HttpClient, HttpServer, ServiceConfig, ShutdownMode, Tassd, TenantQuota};

const UNIVERSE_SEED: u64 = 5;

fn registry() -> Arc<SourceRegistry> {
    let mut reg = SourceRegistry::new();
    reg.insert_v4(
        "demo",
        Arc::new(Universe::generate(&UniverseConfig::small(UNIVERSE_SEED))),
    )
    .unwrap();
    Arc::new(reg)
}

fn submit_body(strategy: &str, seed: u64) -> String {
    format!(r#"{{"source":"demo","strategy":"{strategy}","protocol":"http","seed":{seed}}}"#)
}

/// POST a campaign, expect 201, return the id.
fn submit(client: &mut HttpClient, tenant: &str, strategy: &str, seed: u64) -> u64 {
    let (status, body) = client
        .post("/v1/campaigns", Some(tenant), &submit_body(strategy, seed))
        .unwrap();
    assert_eq!(status, 201, "submit failed: {body}");
    parse_field_u64(&body, "id")
}

/// Extract `"key":<integer>` from a flat JSON body.
fn parse_field_u64(body: &str, key: &str) -> u64 {
    let pat = format!(r#""{key}":"#);
    let rest = &body[body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-integer {key} in {body}"))
}

fn parse_field_str<'b>(body: &'b str, key: &str) -> &'b str {
    let pat = format!(r#""{key}":""#);
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len();
    &body[start..start + body[start..].find('"').unwrap()]
}

/// Poll a job's status endpoint until it reports `done`; return the
/// final status body.
fn wait_done(client: &mut HttpClient, tenant: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client
            .get(&format!("/v1/campaigns/{id}"), Some(tenant))
            .unwrap();
        assert_eq!(status, 200, "status poll failed: {body}");
        match parse_field_str(&body, "status") {
            "done" => return body,
            "failed" => panic!("job {id} failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// The byte-stable oracle: what the library produces locally for the
/// same job.
fn oracle(reg: &SourceRegistry, spec: &str, seed: u64) -> String {
    let kind: StrategyKind = tass::core::parse_spec(spec).unwrap();
    let source = reg.get_v4("demo").unwrap();
    let result = run_campaign(&*source, kind, Protocol::Http, seed).with_job(CampaignJob::new(
        kind,
        Protocol::Http,
        seed,
    ));
    serde_json::to_string(&result).unwrap()
}

/// The PR's acceptance test: two tenants submit overlapping batches over
/// real loopback TCP, the over-quota submission is rejected with a typed
/// error body, every accepted job completes, and results fetched over
/// HTTP are byte-identical to direct `run_campaign` runs.
#[test]
fn two_tenants_quotas_and_byte_identical_results() {
    let reg = registry();
    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 1,
            quota: TenantQuota {
                max_pending: 4,
                max_concurrent: 1,
                submits_per_sec: 0.0,
                submit_burst: 8.0,
            },
            month_delay: Duration::from_millis(25),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut alice = HttpClient::connect(server.addr());
    let mut bob = HttpClient::connect(server.addr());

    // tenant A fills its quota; the fifth submission bounces with a
    // typed 429 while the daemon keeps serving
    let alice_specs = [
        "full-scan",
        "ip-hitlist",
        "tass:more:0.95",
        "random-sample:0.01",
    ];
    let alice_ids: Vec<u64> = alice_specs
        .iter()
        .enumerate()
        .map(|(i, spec)| submit(&mut alice, "alice", spec, 10 + i as u64))
        .collect();
    let (status, body) = alice
        .post(
            "/v1/campaigns",
            Some("alice"),
            &submit_body("full-scan", 99),
        )
        .unwrap();
    assert_eq!(status, 429, "over-quota submission must bounce: {body}");
    assert!(body.contains(r#""code":"quota_exceeded""#), "{body}");
    assert!(body.contains(r#""message":"#), "{body}");

    // tenant B's overlapping batch is unaffected by A's quota
    let bob_specs = ["tass:less:0.9", "block24:0.05"];
    let bob_ids: Vec<u64> = bob_specs
        .iter()
        .enumerate()
        .map(|(i, spec)| submit(&mut bob, "bob", spec, 20 + i as u64))
        .collect();

    // tenants cannot see each other's jobs — same 404 as a nonexistent id
    let (status, body) = bob
        .get(&format!("/v1/campaigns/{}", alice_ids[0]), Some("bob"))
        .unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("unknown_campaign"), "{body}");

    // every accepted job completes, and its result bytes match the
    // library oracle exactly
    for (ids, specs, tenant, client, seed0) in [
        (&alice_ids, &alice_specs[..], "alice", &mut alice, 10),
        (&bob_ids, &bob_specs[..], "bob", &mut bob, 20),
    ] {
        for (i, (&id, spec)) in ids.iter().zip(specs).enumerate() {
            wait_done(client, tenant, id);
            let (status, got) = client
                .get(&format!("/v1/campaigns/{id}/results"), Some(tenant))
                .unwrap();
            assert_eq!(status, 200, "{got}");
            assert_eq!(
                got,
                oracle(&reg, spec, seed0 + i as u64),
                "HTTP result for {spec} must be byte-identical to run_campaign"
            );
        }
    }

    // a not-yet-submitted id answers 404; a pending fetch answers 409
    let (status, _) = alice
        .get("/v1/campaigns/999/results", Some("alice"))
        .unwrap();
    assert_eq!(status, 404);

    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Drain).unwrap();
    assert_eq!(report.completed as usize, alice_ids.len() + bob_ids.len());
    assert_eq!(report.checkpointed, 0);
}

/// Paged result fetches over real TCP: `?offset=&limit=` slices the
/// months array out of the stored result bytes, the unpaginated fetch
/// stays byte-identical to the library oracle, and malformed paging
/// parameters bounce with a typed 400.
#[test]
fn result_pages_over_http() {
    let spec = "tass:more:0.95";
    let seed = 42;
    let reg = registry();
    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 1,
            quota: TenantQuota::default(),
            month_delay: Duration::from_millis(1),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let id = submit(&mut client, "alice", spec, seed);
    wait_done(&mut client, "alice", id);

    let (status, full) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        full,
        oracle(&reg, spec, seed),
        "unpaged fetch must stay byte-identical"
    );

    let result: tass::core::CampaignResult = serde_json::from_str(&full).unwrap();
    let months = result.months.len();
    assert!(months >= 3, "demo source must span several months");
    for (query, offset, end) in [
        ("offset=1&limit=2", 1usize, 3usize),
        ("limit=1", 0, 1),
        ("offset=2", 2, months),
        (&format!("offset={months}&limit=4"), months, months),
    ] {
        let (status, got) = client
            .get(
                &format!("/v1/campaigns/{id}/results?{query}"),
                Some("alice"),
            )
            .unwrap();
        assert_eq!(status, 200, "{query}: {got}");
        let mut want = result.clone();
        want.months = result.months[offset.min(months)..end.min(months)].to_vec();
        assert_eq!(
            got,
            serde_json::to_string(&want).unwrap(),
            "page {query} must equal the re-serialised slice"
        );
    }

    // malformed paging is a typed 400; other tenants still get a 404
    let (status, body) = client
        .get(
            &format!("/v1/campaigns/{id}/results?offset=minus-one"),
            Some("alice"),
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_request"), "{body}");
    let (status, _) = client
        .get(
            &format!("/v1/campaigns/{id}/results?offset=0&limit=1"),
            Some("mallory"),
        )
        .unwrap();
    assert_eq!(status, 404);

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

/// A hostile body nested 200 000 arrays deep is one small request, far
/// under the body cap. It gets a typed 400 from the JSON parser's depth
/// limit instead of overflowing the event-loop thread's stack, and the
/// daemon keeps serving: healthz answers and a normal job still matches
/// the library oracle.
#[test]
fn deeply_nested_body_is_a_typed_400_and_the_daemon_survives() {
    let spec = "tass:more:0.95";
    let seed = 7;
    let reg = registry();
    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 1,
            quota: TenantQuota::default(),
            month_delay: Duration::from_millis(1),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());

    let (status, body) = client
        .post("/v1/campaigns", Some("mallory"), &"[".repeat(200_000))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains(r#""code":"bad_request""#), "{body}");

    let (status, body) = client.get("/v1/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = submit(&mut client, "alice", spec, seed);
    wait_done(&mut client, "alice", id);
    let (status, got) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, oracle(&reg, spec, seed));

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

/// Many concurrent tenants hammering submit + poll from their own
/// threads: nothing is dropped, every job completes, and round-robin
/// dispatch keeps completions interleaved across tenants rather than
/// first-come-first-served per tenant.
#[test]
fn stress_many_tenants_fair_completion_zero_drops() {
    const TENANTS: usize = 8;
    const JOBS_PER_TENANT: usize = 6;
    let reg = registry();
    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 2,
            quota: TenantQuota {
                max_pending: JOBS_PER_TENANT,
                max_concurrent: 1,
                submits_per_sec: 0.0,
                submit_burst: 8.0,
            },
            month_delay: Duration::from_millis(2),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..TENANTS)
        .map(|t| {
            thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let mut client = HttpClient::connect(addr);
                let ids: Vec<u64> = (0..JOBS_PER_TENANT)
                    .map(|j| {
                        submit(
                            &mut client,
                            &tenant,
                            "ip-hitlist",
                            (t * JOBS_PER_TENANT + j) as u64,
                        )
                    })
                    .collect();
                // poll every job to completion and collect the global
                // completion order stamps
                ids.iter()
                    .map(|&id| {
                        let body = wait_done(&mut client, &tenant, id);
                        parse_field_u64(&body, "completion_index")
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let completions: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // zero drops: every job of every tenant completed with a unique
    // completion stamp
    let total = TENANTS * JOBS_PER_TENANT;
    let mut all: Vec<u64> = completions.iter().flatten().copied().collect();
    all.sort_unstable();
    assert_eq!(all, (0..total as u64).collect::<Vec<_>>());

    // fairness: round-robin dispatch means every tenant finishes some
    // jobs in the first half of the global completion order — no tenant
    // is starved behind another's backlog
    let mut early = BTreeMap::new();
    for (t, stamps) in completions.iter().enumerate() {
        early.insert(t, stamps.iter().filter(|&&s| s < total as u64 / 2).count());
    }
    for (t, n) in &early {
        assert!(
            *n >= JOBS_PER_TENANT / 2 - 2,
            "tenant {t} starved: only {n} of its jobs in the first half ({early:?})"
        );
    }

    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Drain).unwrap();
    assert_eq!(report.completed as usize, total);
}

/// Kill the daemon mid-campaign, restart it over the same checkpoint
/// directory, and prove the resumed job finishes with results
/// byte-identical to a never-interrupted run.
#[test]
fn kill_then_resume_is_byte_identical() {
    let spec = "reseeding-tass:more:0.95:3";
    let seed = 13;
    let dir = std::env::temp_dir().join(format!("tassd-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = registry();
    let cfg = || ServiceConfig {
        workers: 1,
        quota: TenantQuota::default(),
        month_delay: Duration::from_millis(40),
        checkpoint_dir: Some(dir.clone()),
    };

    // first daemon: submit, let it get partway, checkpoint-shutdown
    let daemon = Tassd::start(Arc::clone(&reg), cfg()).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let id = submit(&mut client, "alice", spec, seed);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = client
            .get(&format!("/v1/campaigns/{id}"), Some("alice"))
            .unwrap();
        if parse_field_u64(&body, "months_done") >= 2 {
            assert_eq!(parse_field_str(&body, "status"), "running", "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never got going: {body}"
        );
        thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Checkpoint).unwrap();
    assert_eq!(report.checkpointed, 1, "the in-flight job must persist");
    let file = dir.join(format!("job-{id:08}.json"));
    assert!(file.exists(), "checkpoint file {} missing", file.display());

    // second daemon over the same directory: the job resumes under its
    // original id and completes
    let daemon = Tassd::start(Arc::clone(&reg), cfg()).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let body = wait_done(&mut client, "alice", id);
    assert_eq!(parse_field_u64(&body, "id"), id);
    let (status, got) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        got,
        oracle(&reg, spec, seed),
        "suspend/restart/resume must not change a single byte"
    );
    assert!(
        !file.exists(),
        "stale checkpoint file must be removed on completion"
    );

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
