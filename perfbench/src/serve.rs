//! The `serve-zipf` workload: two closed-loop clients against a live
//! `qt_serve` server over HTTP on the loopback interface. Every pass of
//! the schedule runs against a freshly booted server, so each pass pays
//! its cache misses, cross-request trie batching and cache inserts, as a
//! service does on new traffic.

use crate::gen::{self, Input, Request};
use crate::pipeline::{self, Counters};
use crate::trace::{self, LayerTimes, Span, Tracer, ROOT};
use crate::{calib, Args, Outcome, Pass, Phase};
use qt_core::QuTracerReport;
use qt_dist::hellinger_fidelity;
use qt_serve::http::{read_message, response_status, write_request};
use qt_serve::{serve, ServerHandle, ServiceClient, ServiceConfig, ServiceStats};
use qt_sim::{ideal_distribution, Backend, Executor, Program};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const VARIANTS: usize = 64;
/// Requests per pass. A pass serves the whole schedule once.
const PASS_LEN: usize = 600;
const ZIPF_S: f64 = 1.1;
const CLIENTS: usize = 2;
/// Server boots timed before each untraced pass; the last one serves the
/// pass. `setup_s` is the median over all of them.
const SETUP_REPS: usize = 8;
const WAIT: Duration = Duration::from_secs(60);

fn runner() -> Executor {
    Executor::with_backend(qt_bench::mumbai_uniform_noise(), Backend::DensityMatrix)
}

/// Index of a (variant, exact-or-sampled) pair into per-key tables.
fn key(r: Request) -> usize {
    2 * r.variant + usize::from(r.sampled)
}

fn http_status(addr: SocketAddr, path: &str) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    write_request(&mut stream, "GET", path, "")?;
    response_status(&read_message(&mut stream)?)
}

/// Boots a server and waits until `GET /ready` answers 200.
fn boot() -> Result<ServerHandle<Executor>, String> {
    let server = serve("127.0.0.1:0", runner(), ServiceConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while http_status(server.addr(), "/ready").ok() != Some(200) {
        if Instant::now() >= deadline {
            server.shutdown();
            return Err("server never became ready".into());
        }
        std::thread::yield_now();
    }
    Ok(server)
}

/// The offline answer for one key and the shot budget of its session.
struct Reference {
    report: QuTracerReport,
    total_shots: usize,
}

fn submit(
    client: &ServiceClient,
    input: &Input,
    r: Request,
    total_shots: usize,
) -> Result<u64, String> {
    let job = if r.sampled {
        client.submit_sampled(
            &input.circuit,
            &input.measured,
            &input.config,
            total_shots as u64,
            &pipeline::POLICY,
            input.shot_seed,
        )
    } else {
        client.submit(&input.circuit, &input.measured, &input.config)
    };
    job.map_err(|e| e.to_string())
}

/// Per-client results of one pass.
#[derive(Default)]
struct ClientRun {
    latencies_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    mismatches: usize,
    spans: Vec<Span>,
}

/// Serves the whole schedule once against `server`, client `c` taking
/// requests `c, c + CLIENTS, …`, and checks every report against its
/// offline answer. `trace` carries the run's span epoch when this pass
/// records spans.
fn measure_pass(
    server: &ServerHandle<Executor>,
    pool: &[Input],
    schedule: &[Request],
    refs: &[Option<Reference>],
    trace: Option<Instant>,
) -> Phase {
    let addr = server.addr();
    let epoch = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let client = ServiceClient::new(addr);
                    let mut t = Tracer::new(trace.is_some(), trace.unwrap_or(epoch));
                    let mut run = ClientRun::default();
                    for (i, &r) in schedule.iter().enumerate().skip(c).step_by(CLIENTS) {
                        run.attempted += 1;
                        let reference = refs[key(r)]
                            .as_ref()
                            .expect("every scheduled key has a reference");
                        let input = &pool[r.variant];
                        let t0 = Instant::now();
                        let report = t.span(ROOT, i as u64, |t| {
                            let job = t.span("serve.submit", i as u64, |_| {
                                submit(&client, input, r, reference.total_shots)
                            })?;
                            t.span("serve.wait", i as u64, |_| client.wait_result(job, WAIT))
                                .map_err(|e| e.to_string())
                        });
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        match report {
                            Ok(report) => {
                                run.latencies_ms.push(ms);
                                if !pipeline::same_report(&report, &reference.report) {
                                    eprintln!(
                                        "mismatch: request {i} ({}) differs from offline",
                                        input.label
                                    );
                                    run.mismatches += 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("failed: request {i} ({}): {e}", input.label);
                                run.failed += 1;
                            }
                        }
                    }
                    run.spans = t.into_spans();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    let mut phase = Phase {
        wall_s,
        threads: CLIENTS,
        ..Phase::default()
    };
    let mut pass = Pass {
        wall_s,
        latencies_ms: Vec::with_capacity(schedule.len()),
        reference_s: 0.0,
    };
    let mut span_lists = Vec::new();
    for run in runs {
        pass.latencies_ms.extend(run.latencies_ms);
        phase.attempted += run.attempted;
        phase.failed += run.failed;
        phase.mismatches += run.mismatches;
        span_lists.push(run.spans);
    }
    phase.passes.push(pass);
    phase.spans = trace::concat(span_lists);
    phase
}

/// Adds the counters of one server's lifetime to `acc`.
fn accumulate(acc: &mut ServiceStats, s: &ServiceStats) {
    acc.rejected += s.rejected;
    acc.failed += s.failed;
    acc.batches += s.batches;
    acc.batched_requests += s.batched_requests;
    acc.distinct_jobs += s.distinct_jobs;
    acc.cache_hit_jobs += s.cache_hit_jobs;
    acc.executed_jobs += s.executed_jobs;
    acc.cache.hits += s.cache.hits;
    acc.cache.misses += s.cache.misses;
    acc.cache.evictions += s.cache.evictions;
    acc.batch_trie.request_gates += s.batch_trie.request_gates;
    acc.batch_trie.unique_gates += s.batch_trie.unique_gates;
    acc.run_failures.retries += s.run_failures.retries;
    acc.deadline_expired += s.deadline_expired;
}

/// Runs one pass on a fresh server, sampling the host's reference time
/// throughout, and adds the server's counters to `stats`.
fn fresh_pass(
    server: ServerHandle<Executor>,
    pool: &[Input],
    schedule: &[Request],
    refs: &[Option<Reference>],
    trace: Option<Instant>,
    stats: &mut ServiceStats,
) -> Phase {
    let (mut phase, reference_s) =
        calib::during(|| measure_pass(&server, pool, schedule, refs, trace));
    accumulate(stats, &server.service().stats());
    server.shutdown();
    for pass in &mut phase.passes {
        pass.reference_s = reference_s;
    }
    phase
}

fn span_median_ms(spans: &[Span], name: &str) -> f64 {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    if ms.is_empty() {
        0.0
    } else {
        crate::stats::median(&ms)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let pool = gen::serve_pool(args.seed, VARIANTS);
    let schedule = gen::zipf_schedule(args.seed, PASS_LEN, VARIANTS, ZIPF_S);
    let mut used: Vec<Request> = schedule.clone();
    used.sort_by_key(|&r| key(r));
    used.dedup();

    // Offline answers, before any timing, with the same runner type and
    // seeds the server uses.
    let local = runner();
    let mut off = Tracer::new(false, Instant::now());
    let mut refs: Vec<Option<Reference>> = (0..2 * VARIANTS).map(|_| None).collect();
    for (n, &r) in used.iter().enumerate() {
        let input = &pool[r.variant];
        let mut counters = Counters::default();
        let run: pipeline::Pipeline = if r.sampled {
            pipeline::session
        } else {
            pipeline::exact
        };
        let report = run(&mut off, &local, input, key(r) as u64, &mut counters)
            .map_err(|e| format!("offline {}: {e}", input.label))?;
        if n < pipeline::ONE_CALL_CHECKS
            && !pipeline::same_report(&report, &pipeline::one_call(&local, input, r.sampled)?)
        {
            return Ok(Outcome::mismatch(format!(
                "{}: stepwise pipeline differs from the one-call path",
                input.label
            )));
        }
        refs[key(r)] = Some(Reference {
            report,
            total_shots: pipeline::session_shots(counters.programs),
        });
    }
    let fidelity_mean = {
        let ideal: Vec<_> = pool
            .iter()
            .map(|i| ideal_distribution(&Program::from_circuit(&i.circuit), &i.measured))
            .collect();
        schedule
            .iter()
            .map(|&r| {
                let report = &refs[key(r)].as_ref().expect("reference").report;
                hellinger_fidelity(&report.distribution, &ideal[r.variant])
            })
            .sum::<f64>()
            / schedule.len() as f64
    };

    // Correctness gate over the wire, on a server of its own: every
    // scheduled key, exact and sampled, served bit-identical to its
    // offline answer. The timed passes each boot a fresh server, so the
    // gate leaves nothing in their caches.
    let server = boot()?;
    {
        let client = ServiceClient::new(server.addr());
        for &r in &used {
            let reference = refs[key(r)].as_ref().expect("reference");
            let input = &pool[r.variant];
            let served = submit(&client, input, r, reference.total_shots)
                .and_then(|job| client.wait_result(job, WAIT).map_err(|e| e.to_string()));
            let failure = match served {
                Ok(report) if pipeline::same_report(&report, &reference.report) => continue,
                Ok(_) => Ok(Outcome::mismatch(format!(
                    "{} (sampled={}) served differs from offline",
                    input.label, r.sampled
                ))),
                Err(e) => Err(format!("gate: {}: {e}", input.label)),
            };
            server.shutdown();
            return failure;
        }
    }
    server.shutdown();

    let mut notes = vec![
        ("variants", VARIANTS.to_string()),
        ("keys", used.len().to_string()),
        ("pass_requests", PASS_LEN.to_string()),
        ("client_threads", CLIENTS.to_string()),
    ];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut stats = ServiceStats::default();
    let mut passes = 0;
    if !args.trace {
        let (mut phase, mut setup_s) = (Phase::default(), Vec::new());
        while passes == 0 || start.elapsed() < budget {
            let mut boots = Vec::with_capacity(SETUP_REPS);
            let mut timed_boot = || {
                let t0 = Instant::now();
                let server = boot()?;
                boots.push(t0.elapsed().as_secs_f64());
                Ok::<_, String>(server)
            };
            let mut server = timed_boot()?;
            for _ in 1..SETUP_REPS {
                server.shutdown();
                server = timed_boot()?;
            }
            let pass = fresh_pass(server, &pool, &schedule, &refs, None, &mut stats);
            let k = pass.passes[0].scale();
            setup_s.extend(boots.iter().map(|s| s * k));
            phase.absorb(pass);
            passes += 1;
        }
        notes.push(("setup_reps", setup_s.len().to_string()));
        notes.push((
            "job_cache_hit_rate",
            format!(
                "{:.4}",
                stats.cache_hit_jobs as f64 / stats.distinct_jobs.max(1) as f64
            ),
        ));
        notes.push(("rejected", stats.rejected.to_string()));
        let setup_s = crate::stats::median(&setup_s);
        return Ok(Outcome::untraced(phase, fidelity_mean, setup_s, notes));
    }

    // Traced runs alternate untraced and traced passes, each on a fresh
    // server; the service counters come from the traced passes.
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    while passes == 0 || start.elapsed() < budget {
        let mut scratch = ServiceStats::default();
        untraced.absorb(fresh_pass(
            boot()?,
            &pool,
            &schedule,
            &refs,
            None,
            &mut scratch,
        ));
        traced.absorb(fresh_pass(
            boot()?,
            &pool,
            &schedule,
            &refs,
            Some(start),
            &mut stats,
        ));
        passes += 1;
    }
    notes.push(("passes", (2 * passes).to_string()));

    // Only the client's calls are observable here: admission (and its
    // plan) runs inside `serve.submit`; queueing, batching, execution,
    // session rounds and recombine inside `serve.wait`. The `core.*` and
    // `sim.*` layers read 0 on this workload.
    let mut times = LayerTimes::default();
    times.add(&traced.spans);
    let coverage = times.layer_ms() / (traced.wall_s * 1e3 * CLIENTS as f64);
    let results = traced.results();
    let mut m = crate::per_layer(
        results,
        traced.thread_ms_per_result(),
        &times,
        &Counters::default(),
        coverage,
        crate::trace_overhead(&untraced, &traced),
    );
    let per = |x: f64| x / results.max(1) as f64;
    m.set("serve.submit.busy_ms", per(times.self_ms("serve.submit")));
    m.set(
        "serve.submit.ms_p50",
        span_median_ms(&traced.spans, "serve.submit"),
    );
    m.set("serve.wait.busy_ms", per(times.self_ms("serve.wait")));
    m.set(
        "serve.wait.ms_p50",
        span_median_ms(&traced.spans, "serve.wait"),
    );
    m.set("serve.batches", stats.batches as f64);
    m.set(
        "serve.batch_requests_mean",
        stats.batched_requests as f64 / stats.batches.max(1) as f64,
    );
    m.set("serve.jobs_distinct", stats.distinct_jobs as f64);
    m.set("serve.jobs_cache_hit", stats.cache_hit_jobs as f64);
    m.set("serve.jobs_executed", stats.executed_jobs as f64);
    m.set("serve.cache_hit_rate", stats.cache.hit_rate());
    m.set("serve.cache_evictions", stats.cache.evictions as f64);
    m.set(
        "serve.trie_shared_gate_fraction",
        stats.batch_trie.shared_gate_fraction(),
    );
    m.set("serve.rejected", stats.rejected as f64);
    m.set("serve.failed", stats.failed as f64);
    m.set("serve.retries", stats.run_failures.retries as f64);
    m.set("serve.deadline_expired", stats.deadline_expired as f64);
    Ok(Outcome::traced(untraced, traced, m, notes))
}
