//! End-to-end benchmark of the QuTracer mitigation stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `pairs-classical` and `adaptive-dm` (offline, one stream)
//! and `serve-zipf` (two closed-loop HTTP clients against a fresh server
//! per pass). Inputs are a pure function of `--seed`. Each run first
//! checks correctness, then measures whole passes over its inputs for
//! `--seconds`. With `--trace 0` the last stdout line carries the
//! end-to-end metrics, the time metrics calibrated to an undisturbed host
//! (see `calib`); with `--trace 1` the run alternates untraced and traced
//! slices and the line carries the per-layer metrics, while the spans go
//! to `perfbench/out/`. Any mismatch prints an empty metric set and exits
//! non-zero. See `perfbench/README.md`.

mod calib;
mod gen;
mod metrics;
mod offline;
mod pipeline;
mod serve;
mod stats;
mod trace;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use pipeline::Counters;
use std::process::ExitCode;
use std::time::Instant;
use trace::{LayerTimes, Span};

/// Latency samples every untraced run collects at least, so that ten lie
/// beyond p90.
pub const MIN_RESULTS: usize = 100;

/// Untraced/traced slice pairs of a traced run. Alternating the two modes
/// keeps slow drifts of host speed out of `trace.overhead`.
pub const TRACE_SLICES: usize = 4;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One whole pass over a workload's input list (offline) or request
/// schedule (`serve-zipf`): every pass serves the same mix. `reference_s`
/// is the host's reference time measured right after the pass.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub wall_s: f64,
    pub latencies_ms: Vec<f64>,
    pub reference_s: f64,
}

impl Pass {
    /// Factor that turns the pass's times into times on the undisturbed
    /// host.
    pub fn scale(&self) -> f64 {
        calib::scale(self.reference_s)
    }
}

/// One timed stretch of a workload, made of whole passes.
#[derive(Debug, Default)]
pub struct Phase {
    pub passes: Vec<Pass>,
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: usize,
    pub wall_s: f64,
    pub threads: usize,
    pub spans: Vec<Span>,
    pub counters: Counters,
}

impl Phase {
    pub fn results(&self) -> usize {
        self.passes.iter().map(|p| p.latencies_ms.len()).sum()
    }

    pub fn results_per_s(&self) -> f64 {
        self.results() as f64 / self.wall_s
    }

    /// Appends a later slice measured in the same mode.
    pub fn absorb(&mut self, other: Phase) {
        self.passes.extend(other.passes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.wall_s += other.wall_s;
        self.threads = other.threads;
        self.spans = trace::concat(vec![std::mem::take(&mut self.spans), other.spans]);
        self.counters.add(&other.counters);
    }

    /// Client-thread milliseconds spent per completed result.
    pub fn thread_ms_per_result(&self) -> f64 {
        self.wall_s * 1e3 * self.threads as f64 / self.results().max(1) as f64
    }

    /// The time metrics on the undisturbed host: the median over passes
    /// of results per calibrated second, and every latency scaled by its
    /// pass's calibration factor, sorted.
    pub fn calibrated(&self) -> (f64, Vec<f64>) {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.latencies_ms.len() as f64 / (p.wall_s * p.scale()))
            .collect();
        let mut lat: Vec<f64> = self
            .passes
            .iter()
            .flat_map(|p| {
                let k = p.scale();
                p.latencies_ms.iter().map(move |ms| ms * k)
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        (stats::median(&rates), lat)
    }

    /// The host's slowdown over the phase: its median reference time over
    /// the undisturbed one.
    pub fn slowdown(&self) -> f64 {
        let refs: Vec<f64> = self.passes.iter().map(|p| p.reference_s).collect();
        stats::median(&refs) / calib::REFERENCE_S
    }
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub notes: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// An outcome that reports a correctness failure.
    pub fn mismatch(why: String) -> Outcome {
        eprintln!("mismatch: {why}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The outcome of an untraced run: every end-to-end metric, the time
    /// metrics calibrated to the undisturbed host, with the passes,
    /// results, host slowdown, error rate and highest reportable
    /// percentile noted.
    pub fn untraced(
        phase: Phase,
        fidelity_mean: f64,
        setup_s: f64,
        mut notes: Vec<(&'static str, String)>,
    ) -> Outcome {
        let (results_per_s, lat) = phase.calibrated();
        let n = lat.len();
        notes.push(("passes", phase.passes.len().to_string()));
        notes.push(("samples", n.to_string()));
        notes.push(("host_slowdown", format!("{:.3}", phase.slowdown())));
        let error_rate = phase.failed as f64 / phase.attempted as f64;
        notes.push(("error_rate", error_rate.to_string()));
        let highest = stats::highest_reportable(n).map_or("none".into(), |p| format!("p{p}"));
        notes.push(("highest_percentile", highest));
        let mut m = Metrics::default();
        m.set("results_per_s", results_per_s);
        m.set("latency_ms_p50", stats::percentile(&lat, 50.0));
        m.set("latency_ms_p90", stats::percentile(&lat, 90.0));
        m.set("fidelity_mean", fidelity_mean);
        m.set("rss_peak_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
        m.set("setup_s", setup_s);
        Outcome {
            correct: phase.mismatches == 0,
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: m,
            notes,
            spans: Vec::new(),
        }
    }

    /// The outcome of a traced run from its untraced and traced slices.
    pub fn traced(
        untraced: Phase,
        traced: Phase,
        metrics: Metrics,
        mut notes: Vec<(&'static str, String)>,
    ) -> Outcome {
        notes.push(("samples", traced.results().to_string()));
        Outcome {
            correct: untraced.mismatches + traced.mismatches == 0,
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            metrics,
            notes,
            spans: traced.spans,
        }
    }
}

/// Per-layer metrics from layer self times and counters of a traced
/// phase, normalised per completed result. `serve.*` metrics start at 0
/// and are filled in by the service workload.
pub fn per_layer(
    results: usize,
    thread_ms_per_result: f64,
    times: &LayerTimes,
    c: &Counters,
    coverage: f64,
    overhead: f64,
) -> Metrics {
    let mut m = Metrics::default();
    for (name, _) in PER_LAYER {
        m.set(name, 0.0);
    }
    let per = |x: f64| x / results.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let busy = |layer: &str| per(times.self_ms(layer));
    let share = |layer: &str| ratio(busy(layer), thread_ms_per_result);

    m.set("core.plan.busy_ms", busy("core.plan"));
    m.set("core.plan.share", share("core.plan"));
    m.set(
        "core.plan.programs",
        ratio(c.programs as f64, c.plans as f64),
    );
    m.set(
        "core.plan.dedup_ratio",
        ratio(c.programs as f64, c.requests as f64),
    );
    m.set(
        "core.plan.skipped_subsets",
        ratio(c.skipped as f64, c.plans as f64),
    );
    m.set(
        "sim.trie.shared_gate_fraction",
        ratio(
            (c.trie_request_gates - c.trie_unique_gates) as f64,
            c.trie_request_gates as f64,
        ),
    );
    m.set("sim.trie.request_gates", per(c.trie_request_gates as f64));
    m.set("sim.trie.unique_gates", per(c.trie_unique_gates as f64));
    m.set("sim.execute.busy_ms", busy("sim.execute"));
    m.set("sim.execute.share", share("sim.execute"));
    m.set("sim.execute.calls", per(c.execute_calls as f64));
    m.set("sim.execute.jobs", per(c.jobs as f64));
    m.set(
        "sim.execute.ms_per_job",
        ratio(times.self_ms("sim.execute"), c.jobs as f64),
    );
    // Only engines named in the schema are printed: every workload forces
    // the density-matrix engine.
    for (engine, n) in &c.engines {
        m.set(&format!("sim.engine.{engine}"), per(*n as f64));
    }
    m.set("core.session.busy_ms", busy("core.session"));
    m.set("core.session.rounds", per(c.rounds as f64));
    m.set("core.session.shots", per(c.shots as f64));
    m.set("core.scatter.busy_ms", busy("core.scatter"));
    m.set("core.recombine.busy_ms", busy("core.recombine"));
    m.set("core.recombine.share", share("core.recombine"));
    m.set("trace.results", results as f64);
    m.set("trace.coverage", coverage);
    m.set("trace.overhead", overhead);
    m
}

/// Fraction of throughput lost to tracing: `1 − traced / untraced`.
pub fn trace_overhead(untraced: &Phase, traced: &Phase) -> f64 {
    1.0 - traced.results_per_s() / untraced.results_per_s()
}

/// Set-up bursts per untraced run. The bursts sit between equal stretches
/// of the timed phase, so set-up time samples the host's speed over the
/// whole run, as the other metrics do, not at one instant.
pub const SETUP_ROUNDS: usize = 10;

/// Measures an untraced phase of `seconds` in [`SETUP_ROUNDS`] stretches,
/// timing `reps_per_round` calls of `setup` before each. `measure(s, n)`
/// runs one stretch of `s` seconds and at least `n` attempts; the last
/// stretch tops the phase up to [`MIN_RESULTS`]. Returns the phase and
/// the median set-up time in seconds, each calibrated by the reference
/// time measured right after its round.
pub fn measure_with_setup(
    seconds: f64,
    reps_per_round: usize,
    mut setup: impl FnMut() -> Result<(), String>,
    mut measure: impl FnMut(f64, usize) -> Phase,
) -> Result<(Phase, f64), String> {
    let mut phase = Phase::default();
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS * reps_per_round);
    for round in 0..SETUP_ROUNDS {
        let mut times = Vec::with_capacity(reps_per_round);
        for _ in 0..reps_per_round {
            let t0 = Instant::now();
            setup()?;
            times.push(t0.elapsed().as_secs_f64());
        }
        let k = calib::scale(calib::reference_s());
        setup_s.extend(times.iter().map(|s| s * k));
        let min_results = if round + 1 == SETUP_ROUNDS {
            MIN_RESULTS.saturating_sub(phase.attempted)
        } else {
            0
        };
        phase.absorb(measure(seconds / SETUP_ROUNDS as f64, min_results));
    }
    Ok((phase, stats::median(&setup_s)))
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn write_spans(args: &Args, spans: &[Span]) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_tsv(spans)));
    match written {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <pairs-classical|adaptive-dm|serve-zipf> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-zipf" => serve::run(&args),
        name => match offline::Kind::from_name(name) {
            Some(kind) => offline::run(kind, &args),
            None => Err(format!("unknown workload {name}")),
        },
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut row = format!(
        "row: workload={} seed={} host={} nproc={nproc} trace={}",
        args.workload,
        args.seed,
        host(),
        u8::from(args.trace)
    );
    for (k, v) in &outcome.notes {
        row.push_str(&format!(" {k}={v}"));
    }
    println!("{row}");
    if args.trace {
        write_spans(&args, &outcome.spans);
    }
    let schema = if args.trace { PER_LAYER } else { END_TO_END };
    if !outcome.correct {
        eprintln!("perfbench: correctness check failed; no metrics reported");
        println!(
            "{}",
            metrics::result_line(false, outcome.attempted, outcome.failed, "{}")
        );
        return ExitCode::FAILURE;
    }
    match outcome.metrics.to_json(schema) {
        Ok(json) => {
            for (name, unit) in schema {
                if let Some(v) = outcome.metrics.get(name) {
                    println!("  {name:<34} {v:>14.6} {unit}");
                }
            }
            println!(
                "{}",
                metrics::result_line(true, outcome.attempted, outcome.failed, &json)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = args(&[
            "--workload",
            "adaptive-dm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "adaptive-dm");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn calibration_scales_each_pass_by_its_reference_time() {
        let r = calib::REFERENCE_S;
        let pass = |wall_s: f64, lat: &[f64], reference_s: f64| Pass {
            wall_s,
            latencies_ms: lat.to_vec(),
            reference_s,
        };
        let phase = Phase {
            passes: vec![
                pass(2.0, &[8.0, 12.0], r),
                pass(4.0, &[16.0, 24.0], 2.0 * r),
                pass(1.0, &[4.0, 6.0], 0.5 * r),
            ],
            ..Phase::default()
        };
        let (rate, lat) = phase.calibrated();
        assert_eq!(rate, 1.0);
        assert_eq!(lat, [8.0, 8.0, 8.0, 12.0, 12.0, 12.0]);
        assert_eq!(phase.slowdown(), 1.0);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--workload", "x", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "-1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
