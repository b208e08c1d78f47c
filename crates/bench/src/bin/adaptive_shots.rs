//! Uniform vs adaptive (pilot + Neyman) shot allocation at equal budget —
//! the source of `BENCH_adaptive.json`.
//!
//! Workload: the paper's single-layer suite restricted to the register
//! sizes the exact density-matrix engine reproduces instantly, run
//! through the full staged pipeline. Each workload is planned once and
//! its exact (infinite-shot) refined distribution is the fidelity
//! reference. Both arms then spend the *same* total budget per seed:
//!
//! * **uniform** — `ShotPolicy::Uniform`, the single-round allocator.
//! * **adaptive** — `ShotPolicy::Adaptive`, which spends a pilot
//!   fraction uniformly, estimates per-program sampling dispersion from
//!   the pilot counts, and Neyman-allocates the remainder (n_i ∝ σ_i).
//!
//! Fidelity is the Hellinger fidelity of the refined sampled
//! distribution against the exact reference, averaged over seeds; with
//! equal budgets the comparison *is* fidelity-per-shot. Before timing
//! anything, a preflight asserts that `Adaptive {pilot_fraction: 0.0}`
//! reproduces the uniform single-round report bit-for-bit — the
//! degenerate schedule must not merely approximate the legacy path.
//!
//! ```text
//! adaptive_shots [--quick] [--json PATH]
//! ```

use qt_algos::paper_single_layer_suite;
use qt_bench::quick_mode;
use qt_core::{
    ExecError, MitigationPlan, MitigationSession, QuTracer, QuTracerConfig, QuTracerReport,
    ShotPolicy,
};
use qt_dist::hellinger_fidelity;
use qt_serve::json::{obj, Json};
use qt_sim::{Backend, Executor};

fn runner() -> Executor {
    Executor::with_backend(qt_bench::mumbai_uniform_noise(), Backend::DensityMatrix)
}

/// One offline mitigation session over `plan` under `policy`.
fn run_session(
    plan: &MitigationPlan,
    exec: &Executor,
    total: usize,
    policy: ShotPolicy,
    seed: u64,
) -> Result<QuTracerReport, ExecError> {
    MitigationSession::new(plan, policy, total, seed)?.run(exec)
}

fn assert_bit_identical(a: &QuTracerReport, b: &QuTracerReport, what: &str) {
    let xs: Vec<(u64, u64)> = a
        .distribution
        .iter()
        .map(|(i, p)| (i, p.to_bits()))
        .collect();
    let ys: Vec<(u64, u64)> = b
        .distribution
        .iter()
        .map(|(i, p)| (i, p.to_bits()))
        .collect();
    assert_eq!(xs, ys, "{what}: distributions must match bitwise");
    assert_eq!(a.stats.total_shots, b.stats.total_shots, "{what}: totals");
}

struct WorkloadResult {
    name: String,
    n_programs: usize,
    total_shots: usize,
    uniform_fidelity: f64,
    adaptive_fidelity: f64,
}

fn main() {
    let quick = quick_mode();
    let json_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1).cloned())
    };

    // Half the budget piloted: dispersion estimates from a thin pilot
    // misallocate the remainder on concentrated registers (measured
    // empirically across pf ∈ {0.1, 0.25, 0.5}); an even split keeps the
    // Neyman round's gains without that regression.
    let pilot_fraction = 0.5;
    let per_program = 192usize;
    let n_seeds = if quick { 8 } else { 24 };
    // The suite's 12q/15q VQE entries need ~4^n density-matrix entries —
    // out of reach for an exact reference here; everything else stays.
    let workloads: Vec<_> = paper_single_layer_suite()
        .into_iter()
        .filter(|w| w.circuit.n_qubits() <= 10)
        .collect();
    let exec = runner();
    let cfg = QuTracerConfig::single();

    // Preflight: the degenerate adaptive schedule (no pilot) must BE the
    // uniform single-round pipeline, bit for bit.
    let mut preflight_ok = true;
    {
        let w = &workloads[0];
        let plan = QuTracer::plan(&w.circuit, &w.measured, &cfg).expect("plannable workload");
        let total = per_program * plan.n_programs();
        for seed in 0..3u64 {
            let uniform =
                run_session(&plan, &exec, total, ShotPolicy::Uniform, seed).expect("uniform run");
            let degenerate = run_session(
                &plan,
                &exec,
                total,
                ShotPolicy::Adaptive {
                    pilot_fraction: 0.0,
                },
                seed,
            )
            .expect("degenerate adaptive run");
            assert_bit_identical(&degenerate, &uniform, "pf=0 preflight");
        }
        preflight_ok &= true;
        println!("preflight: Adaptive{{pf=0}} is bit-identical to Uniform");
    }

    let mut results = Vec::new();
    for w in &workloads {
        let plan = QuTracer::plan(&w.circuit, &w.measured, &cfg).expect("plannable workload");
        let exact = plan
            .execute(&exec)
            .expect("exact execution")
            .recombine()
            .expect("exact recombination");
        let total = per_program * plan.n_programs();

        let (mut fu, mut fa) = (0.0, 0.0);
        for seed in 0..n_seeds as u64 {
            let uniform =
                run_session(&plan, &exec, total, ShotPolicy::Uniform, seed).expect("uniform run");
            let adaptive = run_session(
                &plan,
                &exec,
                total,
                ShotPolicy::Adaptive { pilot_fraction },
                seed,
            )
            .expect("adaptive run");
            assert_eq!(uniform.stats.total_shots, Some(total as u64));
            assert_eq!(adaptive.stats.total_shots, Some(total as u64));
            fu += hellinger_fidelity(&uniform.distribution, &exact.distribution);
            fa += hellinger_fidelity(&adaptive.distribution, &exact.distribution);
        }
        results.push(WorkloadResult {
            name: w.name.clone(),
            n_programs: plan.n_programs(),
            total_shots: total,
            uniform_fidelity: fu / n_seeds as f64,
            adaptive_fidelity: fa / n_seeds as f64,
        });
    }

    println!(
        "{:<22} {:>5} {:>8} {:>10} {:>10} {:>8}",
        "workload", "progs", "shots", "uniform", "adaptive", "delta"
    );
    for r in &results {
        println!(
            "{:<22} {:>5} {:>8} {:>10.5} {:>10.5} {:>+8.5}",
            r.name,
            r.n_programs,
            r.total_shots,
            r.uniform_fidelity,
            r.adaptive_fidelity,
            r.adaptive_fidelity - r.uniform_fidelity
        );
    }

    let uniform_fidelity =
        results.iter().map(|r| r.uniform_fidelity).sum::<f64>() / results.len() as f64;
    let adaptive_fidelity =
        results.iter().map(|r| r.adaptive_fidelity).sum::<f64>() / results.len() as f64;
    println!(
        "suite mean: uniform {uniform_fidelity:.5}, adaptive {adaptive_fidelity:.5} \
         ({:+.5} at pf={pilot_fraction}, {n_seeds} seeds)",
        adaptive_fidelity - uniform_fidelity
    );

    assert!(
        adaptive_fidelity > uniform_fidelity,
        "Neyman allocation must beat uniform at equal budget: \
         adaptive {adaptive_fidelity} vs uniform {uniform_fidelity}"
    );

    if let Some(path) = json_path {
        let doc = obj([
            ("schema_version", Json::Num(1.0)),
            ("suite", Json::Str("adaptive".into())),
            (
                "mode",
                Json::Str(if quick { "quick" } else { "full" }.into()),
            ),
            ("pilot_fraction", Json::Num(pilot_fraction)),
            ("per_program_shots", Json::Num(per_program as f64)),
            ("n_seeds", Json::Num(n_seeds as f64)),
            ("preflight_bit_identical", Json::Bool(preflight_ok)),
            ("uniform_fidelity", Json::Num(uniform_fidelity)),
            ("adaptive_fidelity", Json::Num(adaptive_fidelity)),
            (
                "improvement",
                Json::Num(adaptive_fidelity - uniform_fidelity),
            ),
            (
                "workloads",
                Json::Arr(
                    results
                        .iter()
                        .map(|r| {
                            obj([
                                ("name", Json::Str(r.name.clone())),
                                ("n_programs", Json::Num(r.n_programs as f64)),
                                ("total_shots", Json::Num(r.total_shots as f64)),
                                ("uniform_fidelity", Json::Num(r.uniform_fidelity)),
                                ("adaptive_fidelity", Json::Num(r.adaptive_fidelity)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(&path, doc.to_string() + "\n").expect("write BENCH_adaptive.json");
        println!("wrote {path}");
    }
}
