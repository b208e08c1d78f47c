//! The offline mitigation pipelines, driven call by call through the
//! library's public API with a span around each layer call.

use crate::gen::Input;
use crate::trace::{Tracer, ROOT};
use qt_core::{run_qutracer, MitigationSession, QuTracer, QuTracerReport, ShotPolicy};
use qt_dist::Distribution;
use qt_sim::{Executor, Runner};
use std::collections::BTreeMap;

/// Shots a finite-shot session spends per deduplicated program.
pub const SHOTS_PER_PROGRAM: usize = 192;

/// The adaptive policy of every finite-shot session: half the budget
/// piloted, the rest Neyman-allocated.
pub const POLICY: ShotPolicy = ShotPolicy::Adaptive {
    pilot_fraction: 0.5,
};

/// Work counts gathered at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub plans: usize,
    pub programs: usize,
    pub requests: usize,
    pub skipped: usize,
    pub trie_request_gates: usize,
    pub trie_unique_gates: usize,
    pub execute_calls: usize,
    pub jobs: usize,
    pub engines: BTreeMap<String, usize>,
    pub rounds: usize,
    pub shots: u64,
}

impl Counters {
    fn planned(&mut self, plan: &qt_core::MitigationPlan) {
        let trie = plan.batch_stats();
        self.plans += 1;
        self.programs += plan.n_programs();
        self.requests += plan.n_requests();
        self.skipped += plan.skipped().len();
        self.trie_request_gates += trie.request_gates;
        self.trie_unique_gates += trie.unique_gates;
    }

    fn executed(&mut self, jobs: usize) {
        self.execute_calls += 1;
        self.jobs += jobs;
    }

    fn engine_mix(&mut self, mix: Option<&[(String, usize)]>) {
        for (engine, n) in mix.unwrap_or_default() {
            *self.engines.entry(engine.clone()).or_default() += n;
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.plans += other.plans;
        self.programs += other.programs;
        self.requests += other.requests;
        self.skipped += other.skipped;
        self.trie_request_gates += other.trie_request_gates;
        self.trie_unique_gates += other.trie_unique_gates;
        self.execute_calls += other.execute_calls;
        self.jobs += other.jobs;
        for (engine, n) in &other.engines {
            *self.engines.entry(engine.clone()).or_default() += n;
        }
        self.rounds += other.rounds;
        self.shots += other.shots;
    }
}

/// A pipeline that turns one input into a report, spanning its layer calls
/// and counting their work.
pub type Pipeline =
    fn(&mut Tracer, &Executor, &Input, u64, &mut Counters) -> Result<QuTracerReport, String>;

/// Exact pipeline: `QuTracer::plan` → `Runner::run_batch` →
/// `MitigationPlan::artifacts_from_outputs` → `ExecutionArtifacts::recombine`,
/// the stepwise form of `MitigationPlan::execute` + `recombine`.
pub fn exact(
    t: &mut Tracer,
    runner: &Executor,
    input: &Input,
    id: u64,
    c: &mut Counters,
) -> Result<QuTracerReport, String> {
    t.span(ROOT, id, |t| {
        let plan = t
            .span("core.plan", id, |_| {
                QuTracer::plan(&input.circuit, &input.measured, &input.config)
            })
            .map_err(|e| e.to_string())?;
        c.planned(&plan);
        let (outputs, mix) = t.span("sim.execute", id, |_| {
            let jobs = plan.batch_jobs();
            let mix = runner.engine_mix(&jobs);
            (runner.run_batch(&jobs), mix)
        });
        c.executed(outputs.len());
        c.engine_mix(mix.as_deref());
        let artifacts = t
            .span("core.scatter", id, |_| {
                plan.artifacts_from_outputs(outputs, mix)
            })
            .map_err(|e| e.to_string())?;
        t.span("core.recombine", id, |_| artifacts.recombine())
            .map_err(|e| e.to_string())
    })
}

/// Total shot budget of a finite-shot session over a plan.
pub fn session_shots(n_programs: usize) -> usize {
    SHOTS_PER_PROGRAM * n_programs
}

/// Finite-shot pipeline: `QuTracer::plan` → `MitigationSession::new`, then
/// per round `next_round` → `Runner::run_batch_sampled` → `absorb_sampled`,
/// then `finish` — the stepwise form of `MitigationSession::run`.
pub fn session(
    t: &mut Tracer,
    runner: &Executor,
    input: &Input,
    id: u64,
    c: &mut Counters,
) -> Result<QuTracerReport, String> {
    t.span(ROOT, id, |t| {
        let plan = t
            .span("core.plan", id, |_| {
                QuTracer::plan(&input.circuit, &input.measured, &input.config)
            })
            .map_err(|e| e.to_string())?;
        c.planned(&plan);
        let total = session_shots(plan.n_programs());
        let mut session = t
            .span("core.session", id, |_| {
                MitigationSession::new(plan, POLICY, total, input.shot_seed)
            })
            .map_err(|e| e.to_string())?;
        let mix = t.span("sim.execute", id, |_| runner.engine_mix(session.jobs()));
        c.engine_mix(mix.as_deref());
        session.set_engine_mix(mix);
        while let Some(spec) = t.span("core.session", id, |_| session.next_round()) {
            let outputs = t.span("sim.execute", id, |_| {
                runner.run_batch_sampled(session.jobs(), &spec.shots, spec.seed)
            });
            c.executed(outputs.len());
            c.rounds += 1;
            c.shots += spec.shots.total_shots();
            t.span("core.session", id, |_| {
                session.absorb_sampled(&spec, outputs)
            })
            .map_err(|e| e.to_string())?;
        }
        t.span("core.recombine", id, |_| session.finish())
            .map_err(|e| e.to_string())
    })
}

/// Inputs per run checked against [`one_call`]. The one-call path repeats
/// the whole pipeline, and the stepwise driving is the same code for every
/// input, so the first few suffice.
pub const ONE_CALL_CHECKS: usize = 2;

/// The library's own one-call path for `input` — `run_qutracer`, or
/// `MitigationSession::run` when `sampled` — which the stepwise pipelines
/// must reproduce bit for bit.
pub fn one_call(runner: &Executor, input: &Input, sampled: bool) -> Result<QuTracerReport, String> {
    if !sampled {
        return Ok(run_qutracer(
            runner,
            &input.circuit,
            &input.measured,
            &input.config,
        ));
    }
    let plan = QuTracer::plan(&input.circuit, &input.measured, &input.config)
        .map_err(|e| e.to_string())?;
    let total = session_shots(plan.n_programs());
    MitigationSession::new(plan, POLICY, total, input.shot_seed)
        .and_then(|s| s.run(runner))
        .map_err(|e| e.to_string())
}

fn same_dist(a: &Distribution, b: &Distribution) -> bool {
    a.n_bits() == b.n_bits()
        && a.iter()
            .map(|(i, p)| (i, p.to_bits()))
            .eq(b.iter().map(|(i, p)| (i, p.to_bits())))
}

/// Bit-identity of two reports: refined, global and local distributions,
/// and the shot ledger.
pub fn same_report(a: &QuTracerReport, b: &QuTracerReport) -> bool {
    same_dist(&a.distribution, &b.distribution)
        && same_dist(&a.global, &b.global)
        && a.locals.len() == b.locals.len()
        && a.locals
            .iter()
            .zip(&b.locals)
            .all(|((da, pa), (db, pb))| pa == pb && same_dist(da, db))
        && a.stats.n_circuits == b.stats.n_circuits
        && a.stats.total_shots == b.stats.total_shots
        && a.stats.round_shots == b.stats.round_shots
}
