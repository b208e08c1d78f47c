//! Adaptive-session properties: the two-round pilot/Neyman schedule of
//! `ShotPolicy::Adaptive` must collapse to the single-round uniform
//! pipeline at the degenerate pilot fractions (bit-for-bit), produce the
//! same schedule and report regardless of seed replay, batch policy or
//! thread budget, converge to the uniform allocation when every program
//! has the same sampling dispersion, and degrade typed — never panic —
//! when chaos hits the pilot round.

use proptest::prelude::*;
use qt_algos::{qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
use qt_baselines::{plan_jigsaw, JigsawReport};
use qt_circuit::Circuit;
use qt_core::{
    neyman_weights, ExecError, MitigationPlan, MitigationSession, MitigationStrategy, QuTracer,
    QuTracerConfig, QuTracerReport, RetryPolicy, ShotPolicy,
};
use qt_dist::Distribution;
use qt_sim::{
    Backend, BatchJob, BatchPolicy, ChaosConfig, ChaosRunner, Executor, NoiseModel, Program,
    RunOutput, Runner, ShotPlan,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn executor() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
        Backend::DensityMatrix,
    )
}

/// A random small paper workload (sizes the exact DM engine handles
/// instantly, so the property sweep stays cheap).
fn arb_workload() -> impl Strategy<Value = (Circuit, Vec<usize>, QuTracerConfig)> {
    prop_oneof![
        (4usize..6, 1usize..3, 0u64..50).prop_map(|(n, layers, seed)| {
            (
                vqe_ansatz(n, layers, seed),
                (0..n).collect(),
                QuTracerConfig::single(),
            )
        }),
        (4usize..6, 1usize..3, 0u64..50).prop_map(|(n, p, seed)| {
            (
                qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(p, seed)),
                (0..n).collect(),
                QuTracerConfig::pairs().with_symmetric_subsets(),
            )
        }),
    ]
}

fn bits(d: &Distribution) -> Vec<(u64, u64)> {
    d.iter().map(|(i, p)| (i, p.to_bits())).collect()
}

fn assert_reports_bit_identical(a: &QuTracerReport, b: &QuTracerReport, what: &str) {
    assert_eq!(
        bits(&a.distribution),
        bits(&b.distribution),
        "{what}: refined distributions must match bitwise"
    );
    assert_eq!(
        a.stats.total_shots, b.stats.total_shots,
        "{what}: shot totals must match"
    );
}

/// A policy-driven session over `plan`, driven by its one-call runner.
fn run_session<R: Runner>(
    plan: &MitigationPlan,
    runner: &R,
    total: usize,
    policy: ShotPolicy,
    seed: u64,
) -> Result<QuTracerReport, ExecError> {
    MitigationSession::new(plan, policy, total, seed)?.run(runner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Degenerate pilot fractions are not "almost" the single-round
    /// pipeline — they ARE it. A pilot of 0 shots (pf=0) or a final round
    /// of 0 shots (pf=1) cannot fund two genuine rounds, so the session
    /// must fall back to the raw caller seed and reproduce the uniform
    /// single-round report bit-for-bit, with no per-round ledger.
    #[test]
    fn adaptive_pf_zero_and_one_are_bitwise_single_round(
        (circ, measured, cfg) in arb_workload(),
        seed in 0u64..1000,
    ) {
        let exec = executor();
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 2048 * plan.n_programs();

        let uniform = run_session(&plan, &exec, total, ShotPolicy::Uniform, seed)
            .expect("uniform single-round run");
        // The policy-driven session must itself agree with an explicit
        // allocate-then-execute session before we compare pilots against it.
        let explicit = ShotPlan::from_shots(plan.allocate_budget(total, &vec![1.0; plan.n_jobs()]));
        let legacy = MitigationSession::with_shots(&plan, explicit, seed)
            .expect("funded explicit allocation")
            .run(&exec)
            .expect("explicit sampled execution");
        assert_reports_bit_identical(&uniform, &legacy, "policy vs explicit session");

        for pf in [0.0, 1.0] {
            let adaptive = run_session(&plan, &exec, total, ShotPolicy::Adaptive { pilot_fraction: pf }, seed)
                .expect("degenerate adaptive run");
            assert_reports_bit_identical(&adaptive, &uniform, "degenerate adaptive vs uniform");
            prop_assert_eq!(
                adaptive.stats.round_shots.as_deref(),
                None,
                "a collapsed session must not report a round ledger (pf={})",
                pf
            );
        }
    }

    /// The adaptive schedule is a pure function of (plan, budget, seed):
    /// replaying the same seed reproduces the report bit-for-bit, and so
    /// does changing how the batch is *executed* — per-job fan-out versus
    /// trie sharing, full thread budget versus a single worker. Execution
    /// strategy must never leak into the pilot dispersions or the Neyman
    /// split.
    #[test]
    fn adaptive_schedule_is_seed_stable_and_thread_invariant(
        (circ, measured, cfg) in arb_workload(),
        seed in 0u64..1000,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 2048 * plan.n_programs();
        let policy = ShotPolicy::Adaptive { pilot_fraction: 0.25 };

        let baseline = run_session(&plan, &executor(), total, policy, seed)
            .expect("adaptive run");
        let rounds = baseline
            .stats
            .round_shots
            .clone()
            .expect("a funded adaptive session runs two genuine rounds");
        prop_assert_eq!(rounds.len(), 2);
        prop_assert_eq!(rounds.iter().sum::<u64>(), total as u64);

        let replay = run_session(&plan, &executor(), total, policy, seed)
            .expect("adaptive replay");
        assert_reports_bit_identical(&replay, &baseline, "seed replay");
        prop_assert_eq!(replay.stats.round_shots.as_deref(), Some(rounds.as_slice()));

        let per_job = executor()
            .with_batch_policy(BatchPolicy::PerJob)
            .expect("per-job policy is always valid");
        let via_per_job = run_session(&plan, &per_job, total, policy, seed)
            .expect("adaptive run under per-job batching");
        assert_reports_bit_identical(&via_per_job, &baseline, "per-job batching");
        prop_assert_eq!(via_per_job.stats.round_shots.as_deref(), Some(rounds.as_slice()));

        let single_thread = Executor::with_backend(
            NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
            Backend::DensityMatrix.with_thread_budget(1),
        );
        let via_one_thread = run_session(&plan, &single_thread, total, policy, seed)
            .expect("adaptive run on one thread");
        assert_reports_bit_identical(&via_one_thread, &baseline, "single-thread budget");
        prop_assert_eq!(via_one_thread.stats.round_shots.as_deref(), Some(rounds.as_slice()));
    }

    /// Neyman with nothing to exploit is uniform: when every pilot
    /// dispersion is the same, `neyman_weights` must hand back equal
    /// weights and the plan's budget allocator must reproduce the uniform
    /// apportionment exactly — same integer shot counts, same total.
    #[test]
    fn uniform_dispersions_collapse_neyman_to_uniform(
        (circ, measured, cfg) in arb_workload(),
        dispersion in 0.01f64..1.0,
        total in 100usize..100_000,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let n = plan.n_jobs();

        let weights = neyman_weights(&vec![Some(dispersion); n]);
        prop_assert_eq!(weights.len(), n);
        for &w in &weights {
            prop_assert!(
                (w - weights[0]).abs() < 1e-12,
                "equal dispersions must yield equal weights: {:?}",
                weights
            );
        }

        let neyman = plan.allocate_budget(total, &weights);
        let uniform = plan.allocate_budget(total, &vec![1.0; n]);
        prop_assert_eq!(&neyman, &uniform, "equal-weight Neyman must equal uniform");
        prop_assert_eq!(neyman.iter().sum::<usize>(), total, "allocation must spend the budget exactly");
    }

    /// Chaos during an adaptive session — pilot round included — is
    /// absorbed by the fallible surface: the outcome is a (possibly
    /// degraded) report or a typed error, deterministic under seed replay,
    /// and never a panic. The pilot's variance estimates may be built from
    /// partial data; that must degrade the schedule, not the process.
    #[test]
    fn chaos_in_the_pilot_degrades_typed_and_never_panics(
        (circ, measured, cfg) in arb_workload(),
        seed in 0u64..500,
        chaos_seed in 1u64..500,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 1024 * plan.n_programs();
        // Unrecoverable mix on purpose: fatals and panics included, so
        // some schedules void pilot jobs and some kill the session.
        let config = ChaosConfig {
            seed: chaos_seed,
            transient_rate: 0.3,
            fatal_rate: 0.15,
            panic_rate: 0.1,
            corrupt_rate: 0.15,
            max_transient_attempts: 2,
            ..ChaosConfig::default()
        };
        let outcome = |_: ()| {
            let chaos = ChaosRunner::new(executor(), config);
            MitigationSession::new(&plan, ShotPolicy::Adaptive { pilot_fraction: 0.25 }, total, seed)?
                .run_fallible(&chaos, &RetryPolicy::immediate(2))
        };
        match (outcome(()), outcome(())) {
            (Ok(a), Ok(b)) => {
                assert_reports_bit_identical(&a, &b, "chaotic adaptive rerun");
                // Voided jobs forfeit their shots, so degraded sessions may
                // record fewer than the budget — but never more.
                let spent = a.stats.total_shots.expect("sampled sessions record shots");
                prop_assert!(
                    spent <= total as u64,
                    "recorded shots {} exceed the {} budget",
                    spent,
                    total
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "typed errors must replay identically"),
            (a, b) => prop_assert!(
                false,
                "same seed diverged into {:?} vs {:?}",
                a.map(|r| r.stats.failures),
                b.map(|r| r.stats.failures)
            ),
        }
    }
}

/// Counts [`Runner::run_batch`] calls on a wrapped executor.
struct CountingRunner {
    inner: Executor,
    batches: AtomicUsize,
}

impl CountingRunner {
    fn new(inner: Executor) -> Self {
        CountingRunner {
            inner,
            batches: AtomicUsize::new(0),
        }
    }

    fn batches(&self) -> usize {
        self.batches.load(Ordering::Relaxed)
    }
}

impl Runner for CountingRunner {
    fn run(&self, program: &Program, measured: &[usize]) -> RunOutput {
        self.inner.run(program, measured)
    }

    fn run_batch(&self, jobs: &[BatchJob]) -> Vec<RunOutput> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.run_batch(jobs)
    }

    fn engine_mix(&self, jobs: &[BatchJob]) -> Option<Vec<(String, usize)>> {
        self.inner.engine_mix(jobs)
    }
}

/// The stepwise loop `MitigationSession::run` replaces: every round runs
/// its batch afresh through `run_batch_sampled`.
fn run_stepwise<S: MitigationStrategy>(
    mut session: MitigationSession<S>,
    runner: &Executor,
) -> Result<S::Report, ExecError> {
    session.set_engine_mix(runner.engine_mix(session.jobs()));
    while let Some(spec) = session.next_round() {
        let outputs = runner.run_batch_sampled(session.jobs(), &spec.shots, spec.seed);
        session.absorb_sampled(&spec, outputs)?;
    }
    session.finish()
}

/// `MitigationSession::run` executes a genuine two-round adaptive session
/// with **one** batch submission — both rounds sample the same exact
/// outputs — and still reproduces the per-round stepwise loop bit for bit.
#[test]
fn adaptive_session_run_executes_the_batch_once() {
    let policy = ShotPolicy::Adaptive {
        pilot_fraction: 0.5,
    };
    let circuit = qaoa_maxcut(5, &ring_graph(5), &QaoaParams::seeded(2, 4));
    let measured: Vec<usize> = (0..5).collect();

    // QuTracer's staged pipeline.
    let plan = QuTracer::plan(&circuit, &measured, &QuTracerConfig::pairs()).unwrap();
    let total = 256 * plan.n_jobs();
    let session = || MitigationSession::new(&plan, policy, total, 11).unwrap();
    assert!(
        session().is_adaptive(),
        "the budget funds two genuine rounds"
    );
    let counting = CountingRunner::new(executor());
    let once = session().run(&counting).unwrap();
    assert_eq!(counting.batches(), 1, "two rounds, one execution");
    let stepwise = run_stepwise(session(), &executor()).unwrap();
    assert_reports_bit_identical(&once, &stepwise, "qutracer run vs stepwise");
    assert_eq!(once.stats.round_shots, stepwise.stats.round_shots);
    assert_eq!(once.stats.engine_mix, stepwise.stats.engine_mix);
    assert_eq!(once.stats.round_shots.map(|r| r.len()), Some(2));

    // The Jigsaw baseline through the same session.
    let jigsaw = plan_jigsaw(&circuit, &measured, 2);
    let total = 4096 * jigsaw.n_jobs();
    let session = || MitigationSession::new(&jigsaw, policy, total, 5).unwrap();
    assert!(session().is_adaptive());
    let counting = CountingRunner::new(executor());
    let once: JigsawReport = session().run(&counting).unwrap();
    assert_eq!(counting.batches(), 1, "two rounds, one execution");
    let stepwise = run_stepwise(session(), &executor()).unwrap();
    assert_eq!(bits(&once.distribution), bits(&stepwise.distribution));
    assert_eq!(bits(&once.global), bits(&stepwise.global));
    assert_eq!(once.stats, stepwise.stats);
    assert_eq!(once.stats.round_shots.map(|r| r.len()), Some(2));
}
