//! Host-speed calibration.
//!
//! The measuring host is shared: another tenant's load slows this one's
//! vCPU by up to half for minutes at a time, throughput-bound code most
//! and latency-bound code least (see `README.md`, Steadiness). No
//! statistic inside one run removes a slowdown that outlasts it, so the
//! benchmark times a fixed reference kernel of its own next to the
//! program's work and scales the program's times by how fast the host ran
//! the reference then. The kernel applies two-qubit gates to a 7-qubit
//! density matrix held as a 2^14-amplitude vector, the throughput-bound,
//! cache-resident inner loop the simulator's workloads spend their time
//! in. It is the benchmark's own code, so no change to the program moves
//! it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Reference time of an undisturbed host: about the fastest [`reference_s`]
/// one core of the 2-vCPU Xeon host the bounds were set on measured.
/// Calibrated times read as on that host when no other tenant slows it.
pub const REFERENCE_S: f64 = 450e-6;

/// Amplitudes of the reference state: a 7-qubit density matrix.
const DIM: usize = 1 << 14;
/// Gate applications per sweep.
const GATES: usize = 6;
/// Timed sweeps per measurement, after one untimed warm-up sweep.
const SWEEPS: usize = 9;

type C = (f64, f64);

fn initial_state() -> Vec<C> {
    (0..DIM)
        .map(|i| ((i % 17) as f64 * 0.01, (i % 5) as f64 * 0.02))
        .collect()
}

fn gate() -> [C; 16] {
    std::array::from_fn(|i| {
        let x = i as f64;
        ((x * 0.37).sin() * 0.5, (x * 0.11).cos() * 0.5)
    })
}

/// Applies [`GATES`] dense two-qubit gates, on changing qubit pairs, to
/// `state`.
fn sweep(state: &mut [C], g: &[C; 16]) {
    for rep in 0..GATES {
        let (q1, q2) = (1 << (rep % 7), 1 << (7 + rep % 7));
        for base in 0..DIM {
            if base & (q1 | q2) != 0 {
                continue;
            }
            let idx = [base, base | q1, base | q2, base | q1 | q2];
            let x = idx.map(|i| state[i]);
            for (r, &out) in idx.iter().enumerate() {
                let (mut re, mut im) = (0.0, 0.0);
                for (&(ar, ai), &(br, bi)) in g[4 * r..4 * r + 4].iter().zip(&x) {
                    re += ar * br - ai * bi;
                    im += ar * bi + ai * br;
                }
                state[out] = (re, im);
            }
        }
    }
}

/// Time of one reference sweep now, in seconds: the median of
/// [`SWEEPS`] timed sweeps from a fresh state after a warm-up sweep.
pub fn reference_s() -> f64 {
    let g = gate();
    let init = initial_state();
    let mut state = init.clone();
    sweep(&mut state, &g);
    let mut times: Vec<f64> = (0..SWEEPS)
        .map(|_| {
            state.copy_from_slice(&init);
            let t0 = Instant::now();
            sweep(black_box(&mut state), &g);
            black_box(&state);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[SWEEPS / 2]
}

/// Nanoseconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`), on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    (rc == 0).then(|| t.sec as u64 * 1_000_000_000 + t.nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Pause between two reference samples of [`during`].
const SAMPLE_PERIOD: Duration = Duration::from_millis(200);

/// Runs `f` while a thread of its own times one reference sweep, after a
/// warm-up sweep, every [`SAMPLE_PERIOD`], and returns `f`'s result with
/// the median sample in seconds ([`reference_s`] when `f` ends before the
/// first sample). Each sample counts only the sampler's own time on the
/// CPU, so the threads of `f` that share the CPU do not lengthen it; the
/// sampler takes about 0.5% of the CPU from them. Use it where a stretch
/// of work lasts seconds, over which the host's speed changes.
pub fn during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    let (out, mut samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let g = gate();
            let init = initial_state();
            let mut state = init.clone();
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::park_timeout(SAMPLE_PERIOD);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                sweep(&mut state, &g);
                state.copy_from_slice(&init);
                let Some(t0) = thread_cpu_ns() else { break };
                sweep(black_box(&mut state), &g);
                black_box(&state);
                let Some(t1) = thread_cpu_ns() else { break };
                samples.push((t1 - t0) as f64 * 1e-9);
            }
            samples
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        sampler.thread().unpark();
        (out, sampler.join().expect("reference sampler panicked"))
    });
    if samples.is_empty() {
        return (out, reference_s());
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    (out, median)
}

/// Factor that turns a time measured next to a reference time of
/// `reference_s` into the time on the undisturbed host.
pub fn scale(reference_s: f64) -> f64 {
    REFERENCE_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_finite() {
        let g = gate();
        let (mut a, mut b) = (initial_state(), initial_state());
        sweep(&mut a, &g);
        sweep(&mut b, &g);
        assert_eq!(a, b);
        assert!(a.iter().all(|(re, im)| re.is_finite() && im.is_finite()));
        assert_ne!(a, initial_state());
    }

    #[test]
    fn sampler_returns_the_work_and_a_positive_reference() {
        let (out, r) = during(|| 6 * 7);
        assert_eq!(out, 42);
        assert!(r > 0.0);
        let (_, r) = during(|| std::thread::sleep(Duration::from_millis(450)));
        assert!(r > 0.0);
    }

    #[test]
    fn reference_time_is_positive_and_scales_inversely() {
        let r = reference_s();
        assert!(r > 0.0);
        assert_eq!(scale(REFERENCE_S), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_S), 0.5);
    }
}
