//! Seeded workload inputs. Every list here is a pure function of the
//! benchmark seed; the library only ever sees the generated circuits.

use qt_algos::{bernstein_vazirani, qaoa_maxcut, qft_adder_sized, qpe, ring_graph, QaoaParams};
use qt_circuit::Circuit;
use qt_core::QuTracerConfig;

/// SplitMix64: a small, fixed, platform-independent generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so that adding a
    /// stream never shifts the draws of another.
    pub fn new(seed: u64, stream: &str) -> Self {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One mitigation request: a circuit, its measured qubits, the framework
/// configuration and the sampling seed of a finite-shot session over it.
#[derive(Debug, Clone)]
pub struct Input {
    pub label: String,
    pub circuit: Circuit,
    pub measured: Vec<usize>,
    pub config: QuTracerConfig,
    pub shot_seed: u64,
}

/// A seeded permutation of `items`.
fn shuffled<T>(rng: &mut Rng, mut items: Vec<T>) -> Vec<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i));
    }
    items
}

/// `pairs-classical`: QAOA-6 ring circuits under pair tracing, `n / 5`
/// of each depth from 1 to 5 layers in seeded order, with symmetric
/// subsets on the deeper half (3–5 layers).
pub fn pairs_classical(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, "pairs-classical");
    let edges = ring_graph(6);
    let depths = shuffled(&mut rng, (0..n).map(|i| 1 + i % 5).collect());
    depths
        .into_iter()
        .map(|layers| {
            let mut config = QuTracerConfig::pairs();
            if layers >= 3 {
                config = config.with_symmetric_subsets();
            }
            Input {
                label: format!("qaoa6x{layers}"),
                circuit: qaoa_maxcut(6, &edges, &QaoaParams::seeded(layers, rng.next_u64())),
                measured: (0..6).collect(),
                config,
                shot_seed: rng.next_u64(),
            }
        })
        .collect()
}

/// A seeded `n`-bit value with `n / 2` bits set. BV and QFTAdder add a gate
/// per set bit, so a fixed weight gives every seed the same gate count.
fn half_weight(rng: &mut Rng, n: usize) -> u64 {
    shuffled(rng, (0..n).collect())[..n / 2]
        .iter()
        .fold(0, |secret, bit| secret | 1 << bit)
}

/// `adaptive-dm`: 5–7-qubit single-subset circuits — QAOA-6×2, 7-q BV,
/// 7-q QFTAdder and 5/6-q QPE, cycling through the five families — in
/// seeded order with seeded parameters. At 7 qubits a density matrix
/// takes 256 KiB, which stays in a core's own cache.
pub fn adaptive_dm(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, "adaptive-dm");
    let edges = ring_graph(6);
    let families = shuffled(&mut rng, (0..n).map(|i| i % 5).collect());
    families
        .into_iter()
        .map(|family| {
            let (label, circuit, measured): (&str, Circuit, Vec<usize>) = match family {
                0 => (
                    "qaoa6x2",
                    qaoa_maxcut(6, &edges, &QaoaParams::seeded(2, rng.next_u64())),
                    (0..6).collect(),
                ),
                1 => (
                    "bv7",
                    bernstein_vazirani(6, half_weight(&mut rng, 6)),
                    (0..6).collect(),
                ),
                2 => (
                    "qftadder7",
                    qft_adder_sized(3, 4, half_weight(&mut rng, 3), half_weight(&mut rng, 4)),
                    (3..7).collect(),
                ),
                3 => (
                    "qpe5",
                    qpe(4, rng.range(1, 15) as f64 / 16.0 + 1.0 / 48.0),
                    (0..4).collect(),
                ),
                _ => (
                    "qpe6",
                    qpe(5, rng.range(1, 31) as f64 / 32.0 + 1.0 / 96.0),
                    (0..5).collect(),
                ),
            };
            Input {
                label: label.to_string(),
                circuit,
                measured,
                config: QuTracerConfig::single(),
                shot_seed: rng.next_u64(),
            }
        })
        .collect()
}

/// The `serve-zipf` variant pool: seeded QAOA-8×2 ring circuits. A
/// sampled request for a variant always uses the variant's shot seed.
pub fn serve_pool(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, "serve-pool");
    let edges = ring_graph(8);
    (0..n)
        .map(|v| Input {
            label: format!("qaoa8x2v{v}"),
            circuit: qaoa_maxcut(8, &edges, &QaoaParams::seeded(2, rng.next_u64())),
            measured: (0..8).collect(),
            config: QuTracerConfig::single(),
            shot_seed: rng.next_u64(),
        })
        .collect()
}

/// One scheduled service request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub variant: usize,
    pub sampled: bool,
}

/// A Zipf(`s`) schedule of `n` requests over `n_variants` ranks, rank 0
/// the most popular. Every fourth request is a sampled session.
pub fn zipf_schedule(seed: u64, n: usize, n_variants: usize, s: f64) -> Vec<Request> {
    let weights: Vec<f64> = (1..=n_variants).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng::new(seed, "zipf");
    (0..n)
        .map(|i| {
            let mut u = rng.unit() * total;
            let variant = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(n_variants - 1);
            Request {
                variant,
                sampled: i % 4 == 3,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_schedule_is_a_function_of_the_seed() {
        let a = zipf_schedule(11, 2000, 64, 1.1);
        assert_eq!(a, zipf_schedule(11, 2000, 64, 1.1));
        assert_ne!(a, zipf_schedule(12, 2000, 64, 1.1));
        assert_eq!(a.iter().filter(|r| r.sampled).count(), 500);
        assert!(a.iter().all(|r| r.variant < 64));
    }

    #[test]
    fn zipf_schedule_favours_low_ranks() {
        let a = zipf_schedule(3, 4000, 64, 1.1);
        let mut freq = [0usize; 64];
        for r in &a {
            freq[r.variant] += 1;
        }
        assert!(freq[0] > freq[1] && freq[1] > freq[8] && freq[8] > freq[63]);
        // Rank 1 carries 1/H(64, 1.1) ≈ 24% of the mass.
        assert!((700..1200).contains(&freq[0]), "{}", freq[0]);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let ops = |xs: Vec<Input>| -> Vec<String> {
            xs.iter()
                .map(|i| format!("{:?}{:?}", i.circuit, i.measured))
                .collect()
        };
        assert_eq!(ops(pairs_classical(5, 8)), ops(pairs_classical(5, 8)));
        assert_ne!(ops(pairs_classical(5, 8)), ops(pairs_classical(6, 8)));
        assert_eq!(ops(adaptive_dm(5, 8)), ops(adaptive_dm(5, 8)));
        assert_ne!(ops(adaptive_dm(5, 8)), ops(adaptive_dm(6, 8)));
        assert_eq!(ops(serve_pool(5, 4)), ops(serve_pool(5, 4)));
        assert_eq!(serve_pool(5, 4)[2].shot_seed, serve_pool(5, 4)[2].shot_seed);
    }

    #[test]
    fn half_weight_values_have_half_their_bits_set() {
        let mut rng = Rng::new(1, "test");
        let values: Vec<u64> = (0..20).map(|_| half_weight(&mut rng, 8)).collect();
        assert!(values.iter().all(|v| v.count_ones() == 4 && *v < 256));
        assert!((0..20).all(|_| half_weight(&mut rng, 6).count_ones() == 3));
        assert!(values.windows(2).any(|w| w[0] != w[1]));
        assert!((0..20).all(|_| half_weight(&mut rng, 3).count_ones() == 1));
    }
}
