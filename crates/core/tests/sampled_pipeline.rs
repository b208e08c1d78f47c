//! Finite-shot pipeline properties: the sampled staged pipeline
//! (`plan → MitigationSession → recombine`) must converge to the exact
//! pipeline as the shot budget grows, allocate budgets exactly, record
//! real shots in the overhead stats, and surface shape errors as typed
//! values instead of panics.

use proptest::prelude::*;
use qt_algos::{qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
use qt_circuit::Circuit;
use qt_core::{ExecError, MitigationSession, QuTracer, QuTracerConfig, ShotPolicy};
use qt_dist::hellinger_fidelity;
use qt_sim::{Backend, Executor, NoiseModel, ShotPlan};

fn executor() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
        Backend::DensityMatrix,
    )
}

/// A random small paper workload (kept to sizes the exact DM engine
/// handles instantly, so the proptest sweep stays cheap).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline finite-shot property: as the per-program budget grows,
    /// the sampled pipeline's refined distribution converges to the exact
    /// pipeline's (Hellinger fidelity → 1), and it gets there through real
    /// sampled counts whose total the report records.
    #[test]
    fn sampled_pipeline_converges_to_exact((circ, measured, cfg) in arb_workload(), seed in 0u64..1000) {
        let exec = executor();
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let exact = plan
            .execute(&exec)
            .expect("exact execution")
            .recombine()
            .expect("exact recombination");
        prop_assert!(exact.stats.total_shots.is_none(), "exact runs pay in densities");

        let mut fidelities = Vec::new();
        for per_program in [64usize, 65_536] {
            let budget = per_program * plan.n_programs();
            let report = MitigationSession::new(&plan, ShotPolicy::Uniform, budget, seed)
                .expect("budget funds the floor")
                .run(&exec)
                .expect("sampled execution");
            prop_assert_eq!(report.stats.total_shots, Some(budget as u64));
            fidelities.push(hellinger_fidelity(&report.distribution, &exact.distribution));
        }
        prop_assert!(
            fidelities[1] > 0.995,
            "64k shots/program must track the exact pipeline: {fidelities:?}"
        );
        prop_assert!(
            fidelities[1] >= fidelities[0] - 0.02,
            "fidelity must not degrade with more shots: {fidelities:?}"
        );
    }

    /// Sampling is a pure function of the plan, the shot plan and the seed.
    #[test]
    fn sampled_pipeline_is_seed_stable((circ, measured, cfg) in arb_workload()) {
        let exec = executor();
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let budget = 2048 * plan.n_programs();
        let run = || MitigationSession::new(&plan, ShotPolicy::Uniform, budget, 5)
            .and_then(|session| session.run(&exec))
            .unwrap();
        let (a, b) = (run(), run());
        let xs: Vec<(u64, f64)> = a.distribution.iter().collect();
        let ys: Vec<(u64, f64)> = b.distribution.iter().collect();
        prop_assert_eq!(xs.len(), ys.len(), "same seed, same support");
        for ((i, x), (j, y)) in xs.iter().zip(&ys) {
            prop_assert_eq!(i, j, "same seed, same support");
            prop_assert_eq!(x.to_bits(), y.to_bits(), "same seed, same distribution");
        }
    }
}

#[test]
fn uniform_allocation_splits_exactly() {
    let circ = vqe_ansatz(5, 2, 3);
    let measured: Vec<usize> = (0..5).collect();
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
    let n = plan.n_programs();
    // A budget that does not divide evenly: largest-remainder must still
    // sum exactly, with every program within one shot of the others.
    let total = 10 * n + n / 2;
    let shots = plan.allocate_shots(total, ShotPolicy::Uniform).unwrap();
    assert_eq!(shots.n_jobs(), n);
    assert_eq!(shots.total_shots(), total as u64);
    let (min, max) = (
        shots.per_job().iter().min().unwrap(),
        shots.per_job().iter().max().unwrap(),
    );
    assert!(max - min <= 1, "uniform split spread {min}..{max}");
}

#[test]
fn fanout_weighted_allocation_favors_shared_programs() {
    // Symmetric QAOA pairs: one shared ensemble serves all 6 subsets, so
    // its programs carry fan-out ~6 while the global run has fan-out 1.
    let n = 6;
    let circ = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(1, 5));
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).unwrap();
    assert!(plan.n_requests() > plan.n_programs(), "dedup happened");

    let total = 1000 * plan.n_requests();
    let weighted = plan
        .allocate_shots(total, ShotPolicy::WeightedByFanout)
        .unwrap();
    assert_eq!(weighted.total_shots(), total as u64);
    // Programs serving many requests get proportionally more than the
    // single-request ones.
    let (min, max) = (
        *weighted.per_job().iter().min().unwrap(),
        *weighted.per_job().iter().max().unwrap(),
    );
    assert!(
        max >= 5 * min.max(1),
        "fan-out weighting should spread allocations: {min}..{max}"
    );
    // Every program gets at least one shot when the budget affords it.
    assert!(min >= 1, "no zero-shot programs");
    let uniform = plan
        .allocate_shots(plan.n_programs(), ShotPolicy::Uniform)
        .unwrap();
    assert!(uniform.per_job().iter().all(|&s| s == 1));
}

#[test]
fn mismatched_shot_plans_are_typed_errors() {
    let circ = vqe_ansatz(4, 1, 7);
    let measured: Vec<usize> = (0..4).collect();
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
    let exec = executor();
    let wrong = ShotPlan::uniform(plan.n_programs() + 3, 100);
    let run = |shots: ShotPlan| MitigationSession::with_shots(&plan, shots, 1)?.run(&exec);
    match run(wrong.clone()) {
        Err(ExecError::ShotPlanMismatch { expected, got }) => {
            assert_eq!(expected, plan.n_programs());
            assert_eq!(got, plan.n_programs() + 3);
        }
        other => panic!("expected ShotPlanMismatch, got {other:?}"),
    }
    let e = run(wrong).unwrap_err();
    assert!(e.to_string().contains("shot plan"), "{e}");

    // A zero-shot program would fabricate a uniform "measurement" that
    // recombination cannot tell from real data — rejected up front.
    let mut per_job = vec![100usize; plan.n_programs()];
    per_job[1] = 0;
    match run(ShotPlan::from_shots(per_job)) {
        Err(ExecError::EmptyShotAllocation { slot }) => assert_eq!(slot, 1),
        other => panic!("expected EmptyShotAllocation, got {other:?}"),
    }
}

/// Regression: an explicit allocation with a zero-shot job used to open a
/// session anyway, and the job's fabricated uniform "measurement" was
/// recombined into an `Ok` report. The check now sits in the session
/// constructor itself, before anything executes.
#[test]
fn zero_shot_explicit_session_is_rejected_before_execution() {
    let circ = vqe_ansatz(4, 1, 7);
    let measured: Vec<usize> = (0..4).collect();
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
    let last = plan.n_programs() - 1;
    let mut per_job = vec![64usize; plan.n_programs()];
    per_job[last] = 0;
    match MitigationSession::with_shots(&plan, ShotPlan::from_shots(per_job), 3) {
        Err(ExecError::EmptyShotAllocation { slot }) => assert_eq!(slot, last),
        Err(other) => panic!("expected EmptyShotAllocation, got {other:?}"),
        Ok(_) => panic!("a zero-shot job must not open a session"),
    }
}

#[test]
fn sampled_reports_record_real_shots() {
    let circ = vqe_ansatz(4, 1, 2);
    let measured: Vec<usize> = (0..4).collect();
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
    let exec = executor();
    // An uneven explicit allocation: the report must record exactly the
    // shots drawn, not a per-program estimate.
    let per_job: Vec<usize> = (0..plan.n_programs()).map(|i| 400 + 7 * i).collect();
    let total: u64 = per_job.iter().map(|&s| s as u64).sum();
    let report = MitigationSession::with_shots(&plan, ShotPlan::from_shots(per_job), 3)
        .unwrap()
        .run(&exec)
        .unwrap();
    assert_eq!(report.stats.total_shots, Some(total));
    assert_eq!(
        report.stats.round_shots, None,
        "a single round has no ledger"
    );
    // The exact path records nothing.
    let exact = plan.execute(&exec).unwrap().recombine().unwrap();
    assert_eq!(exact.stats.total_shots, None);
}
