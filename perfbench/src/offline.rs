//! The offline workloads: one stream driving the pipeline in-process.

use crate::gen::{self, Input};
use crate::pipeline::{self, Counters};
use crate::trace::{LayerTimes, Tracer};
use crate::{calib, Args, Outcome, Pass, Phase, SETUP_ROUNDS, TRACE_SLICES};
use qt_circuit::Circuit;
use qt_core::QuTracerReport;
use qt_dist::{hellinger_fidelity, Distribution};
use qt_sim::{ideal_distribution, Backend, BatchJob, Executor, Program, Runner};
use std::time::{Duration, Instant};

/// Runner constructions timed per set-up round; `setup_s` is the median
/// over all rounds.
const SETUP_REPS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact pair-traced pipeline on QAOA-6 rings.
    PairsClassical,
    /// Two-round adaptive finite-shot sessions on 5–7-qubit circuits.
    AdaptiveDm,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "pairs-classical" => Some(Kind::PairsClassical),
            "adaptive-dm" => Some(Kind::AdaptiveDm),
            _ => None,
        }
    }

    /// The seeded input pool; the timed loop cycles through it.
    fn inputs(self, seed: u64) -> Vec<Input> {
        match self {
            Kind::PairsClassical => gen::pairs_classical(seed, 25),
            Kind::AdaptiveDm => gen::adaptive_dm(seed, 15),
        }
    }

    fn sampled(self) -> bool {
        self == Kind::AdaptiveDm
    }

    fn pipeline(self) -> pipeline::Pipeline {
        if self.sampled() {
            pipeline::session
        } else {
            pipeline::exact
        }
    }
}

fn runner() -> Executor {
    Executor::with_backend(qt_bench::mumbai_uniform_noise(), Backend::DensityMatrix)
}

/// A runner made ready: constructed and through one tiny batch.
fn ready_runner() -> Executor {
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1);
    let runner = runner();
    let probe = runner.run_batch(&[BatchJob::new(Program::from_circuit(&bell), vec![0, 1])]);
    assert_eq!(probe.len(), 1, "probe batch returns one output");
    runner
}

/// Runs whole passes over `inputs` for `seconds` (and at least
/// `min_results` attempts), checking every report against `reference`,
/// and times the host's reference kernel after each pass. Whole passes
/// keep the input mix of every phase the same. One stream drives the
/// pipeline: `run.sh` grants the process one CPU, so the executor runs
/// each batch serially. `trace` carries the run's span epoch when this
/// slice records spans.
fn measure(
    kind: Kind,
    runner: &Executor,
    inputs: &[Input],
    reference: &[QuTracerReport],
    seconds: f64,
    min_results: usize,
    trace: Option<Instant>,
) -> Phase {
    let epoch = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new(trace.is_some(), trace.unwrap_or(epoch));
    let mut phase = Phase {
        threads: 1,
        ..Phase::default()
    };
    while epoch.elapsed() < budget || phase.attempted < min_results {
        let start = Instant::now();
        let mut pass = Pass::default();
        for (k, input) in inputs.iter().enumerate() {
            let id = phase.attempted as u64;
            let t0 = Instant::now();
            let report = (kind.pipeline())(&mut tracer, runner, input, id, &mut phase.counters);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            phase.attempted += 1;
            match report {
                Ok(r) => {
                    pass.latencies_ms.push(ms);
                    if !pipeline::same_report(&r, &reference[k]) {
                        eprintln!(
                            "mismatch: {} (result {id}) differs from its first run",
                            input.label
                        );
                        phase.mismatches += 1;
                    }
                }
                Err(e) => {
                    eprintln!("failed: {} (result {id}): {e}", input.label);
                    phase.failed += 1;
                }
            }
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.reference_s = calib::reference_s();
        phase.passes.push(pass);
    }
    phase.spans = tracer.into_spans();
    phase.wall_s = epoch.elapsed().as_secs_f64();
    phase
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let inputs = kind.inputs(args.seed);
    let ideal: Vec<Distribution> = inputs
        .iter()
        .map(|i| ideal_distribution(&Program::from_circuit(&i.circuit), &i.measured))
        .collect();
    let runner = ready_runner();

    // Correctness gate, before any timing: the stepwise pipeline matches
    // the library's one-call path, and every input yields a report that
    // later repetitions must reproduce bit for bit.
    let mut off = Tracer::new(false, Instant::now());
    let mut scratch = Counters::default();
    let mut reference = Vec::with_capacity(inputs.len());
    for (k, input) in inputs.iter().enumerate() {
        let report = (kind.pipeline())(&mut off, &runner, input, k as u64, &mut scratch)
            .map_err(|e| format!("gate: {} failed: {e}", input.label))?;
        if k < pipeline::ONE_CALL_CHECKS
            && !pipeline::same_report(
                &report,
                &pipeline::one_call(&runner, input, kind.sampled())?,
            )
        {
            return Ok(Outcome::mismatch(format!(
                "{}: stepwise pipeline differs from the one-call path",
                input.label
            )));
        }
        reference.push(report);
    }
    let fidelity_mean = reference
        .iter()
        .zip(&ideal)
        .map(|(r, p)| hellinger_fidelity(&r.distribution, p))
        .sum::<f64>()
        / inputs.len() as f64;

    let mut notes = vec![
        ("inputs", inputs.len().to_string()),
        ("client_threads", "1".to_string()),
    ];
    if !args.trace {
        notes.push(("setup_reps", (SETUP_REPS * SETUP_ROUNDS).to_string()));
        let (phase, setup_s) = crate::measure_with_setup(
            args.seconds,
            SETUP_REPS,
            || {
                drop(ready_runner());
                Ok(())
            },
            |seconds, min_results| {
                measure(
                    kind,
                    &runner,
                    &inputs,
                    &reference,
                    seconds,
                    min_results,
                    None,
                )
            },
        )?;
        return Ok(Outcome::untraced(phase, fidelity_mean, setup_s, notes));
    }

    let epoch = Instant::now();
    let slice = args.seconds / (2 * TRACE_SLICES) as f64;
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..TRACE_SLICES {
        untraced.absorb(measure(kind, &runner, &inputs, &reference, slice, 0, None));
        traced.absorb(measure(
            kind,
            &runner,
            &inputs,
            &reference,
            slice,
            0,
            Some(epoch),
        ));
    }
    let mut times = LayerTimes::default();
    times.add(&traced.spans);
    let coverage = times.layer_ms() / (traced.wall_s * 1e3);
    let metrics = crate::per_layer(
        traced.results(),
        traced.thread_ms_per_result(),
        &times,
        &traced.counters,
        coverage,
        crate::trace_overhead(&untraced, &traced),
    );
    Ok(Outcome::traced(untraced, traced, metrics, notes))
}
