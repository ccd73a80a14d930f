//! Measurement outcome multisets.
//!
//! A [`Counts`] value is what a quantum backend returns from repeated
//! measurement: a map from observed bitstrings to occurrence counts. The
//! mitigation crate consumes and produces these.

use std::collections::BTreeMap;
use std::fmt;

use rand::Rng;

/// Histogram of measured bitstrings.
///
/// Keys are basis-state indices (qubit 0 = least-significant bit).
///
/// ```
/// use hgp_sim::Counts;
/// let mut counts = Counts::new(2);
/// counts.record(0b11, 60);
/// counts.record(0b00, 40);
/// assert_eq!(counts.total(), 100);
/// assert!((counts.frequency(0b11) - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    n_qubits: usize,
    counts: BTreeMap<usize, u64>,
}

impl Counts {
    /// An empty histogram over `n_qubits`-bit strings.
    pub fn new(n_qubits: usize) -> Self {
        Self {
            n_qubits,
            counts: BTreeMap::new(),
        }
    }

    /// Samples `shots` outcomes from an explicit probability vector.
    ///
    /// Uses a Walker/Vose alias table: `O(2^n)` setup, then **O(1) per
    /// shot** (one RNG draw, one comparison) instead of the historical
    /// `O(n)` CDF binary search — the serve layer's sampling hot path.
    /// The old CDF path is kept as
    /// [`Counts::sample_from_probabilities_reference`] (mirroring
    /// `hgp_sim::kernels::reference`) and pinned to this one by
    /// statistical parity tests; the two draw different (equally
    /// deterministic) streams from the same RNG.
    ///
    /// Quasi-probability inputs are *sanitized*, not asserted on:
    /// negative entries (round-off from mitigation pipelines) and
    /// non-finite entries are clamped to zero, and the vector is
    /// renormalized by the clamped sum — readout-corrupted or ZNE-folded
    /// vectors legitimately drift away from unit sum at 20+ qubits, and
    /// a drifted vector must degrade a sample, never kill the sampling
    /// thread. A fully degenerate vector (every entry clamped away)
    /// falls back to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n_qubits`.
    pub fn sample_from_probabilities<R: Rng + ?Sized>(
        probs: &[f64],
        shots: usize,
        n_qubits: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(probs.len(), 1 << n_qubits, "probability vector length");
        let m = probs.len();
        let clamp = |p: f64| if p.is_finite() { p.max(0.0) } else { 0.0 };
        let clamped_sum: f64 = probs.iter().map(|&p| clamp(p)).sum();
        // Vose's construction: scale weights to mean 1, split into
        // under-/over-full columns, and pair each under-full column with
        // an over-full donor. An all-clamped vector would turn the scale
        // factor into 0/0 and poison the whole alias table with NaNs;
        // uniform weights are the only unbiased reading of "no valid
        // probability mass survived".
        let mut scaled: Vec<f64> = if clamped_sum > 0.0 {
            probs
                .iter()
                .map(|&p| clamp(p) * m as f64 / clamped_sum)
                .collect()
        } else {
            vec![1.0; m]
        };
        let mut alias = vec![0usize; m];
        let mut cutoff = vec![1.0f64; m];
        let mut small: Vec<usize> = Vec::with_capacity(m);
        let mut large: Vec<usize> = Vec::with_capacity(m);
        for (i, &w) in scaled.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            cutoff[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (either stack) are numerically 1.0 columns.
        for &i in small.iter().chain(large.iter()) {
            cutoff[i] = 1.0;
        }
        let mut counts = Self::new(n_qubits);
        for _ in 0..shots {
            // One draw per shot: the integer part picks the column, the
            // fractional part flips the column/alias coin.
            let x = rng.gen::<f64>() * m as f64;
            let col = (x as usize).min(m - 1);
            let frac = x - col as f64;
            let idx = if frac < cutoff[col] { col } else { alias[col] };
            counts.record(idx, 1);
        }
        counts
    }

    /// The historical CDF-binary-search sampler, kept as the reference
    /// implementation for parity tests against the alias-method fast
    /// path (the same role `hgp_sim::kernels::reference` plays for the
    /// fused kernels). `O(n)` per shot; consumes one RNG draw per shot
    /// like the fast path, but maps draws to outcomes differently, so
    /// the two samplers produce different streams from the same seed.
    /// Inputs are sanitized exactly like the fast path: clamp, then
    /// renormalize, with a uniform fallback for degenerate vectors.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n_qubits`.
    pub fn sample_from_probabilities_reference<R: Rng + ?Sized>(
        probs: &[f64],
        shots: usize,
        n_qubits: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(probs.len(), 1 << n_qubits, "probability vector length");
        let clamp = |p: f64| if p.is_finite() { p.max(0.0) } else { 0.0 };
        // Cumulative distribution + binary search per shot.
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in probs {
            acc += clamp(p);
            cdf.push(acc);
        }
        if acc <= 0.0 {
            // Degenerate vector: same uniform fallback as the alias path.
            acc = probs.len() as f64;
            for (i, c) in cdf.iter_mut().enumerate() {
                *c = (i + 1) as f64;
            }
        }
        let mut counts = Self::new(n_qubits);
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * acc;
            let idx =
                match cdf.binary_search_by(|c| c.partial_cmp(&r).expect("finite probabilities")) {
                    Ok(i) | Err(i) => i.min(probs.len() - 1),
                };
            counts.record(idx, 1);
        }
        counts
    }

    /// Adds `n` observations of `bitstring`.
    ///
    /// # Panics
    ///
    /// Panics if `bitstring` does not fit in `n_qubits` bits.
    pub fn record(&mut self, bitstring: usize, n: u64) {
        assert!(
            bitstring < (1usize << self.n_qubits),
            "bitstring out of range"
        );
        *self.counts.entry(bitstring).or_insert(0) += n;
    }

    /// Number of qubits per bitstring.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Total number of shots recorded.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Count of a specific bitstring.
    pub fn count(&self, bitstring: usize) -> u64 {
        self.counts.get(&bitstring).copied().unwrap_or(0)
    }

    /// Relative frequency of a bitstring (0 when no shots are recorded).
    pub fn frequency(&self, bitstring: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(bitstring) as f64 / total as f64
        }
    }

    /// Iterates over `(bitstring, count)` pairs in ascending bitstring
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().map(|(&b, &c)| (b, c))
    }

    /// Distinct observed bitstrings, ascending.
    pub fn observed(&self) -> Vec<usize> {
        self.counts.keys().copied().collect()
    }

    /// Converts to a dense probability vector of length `2^n`.
    pub fn to_probabilities(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        let mut probs = vec![0.0; 1 << self.n_qubits];
        for (&b, &c) in &self.counts {
            probs[b] = c as f64 / total;
        }
        probs
    }

    /// Expectation of a per-bitstring cost function under the empirical
    /// distribution.
    pub fn expectation_of(&self, cost: impl Fn(usize) -> f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .map(|(&b, &c)| cost(b) * c as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Remaps each observed bitstring's bits through `qubit_map`, where the
    /// value at physical position `p` of the new string is bit
    /// `qubit_map[p]` of the old string. Used to undo transpiler layouts.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_map.len() != n_qubits` or an index is out of range.
    pub fn remapped(&self, qubit_map: &[usize], new_n_qubits: usize) -> Counts {
        assert!(qubit_map.len() == new_n_qubits, "map length mismatch");
        let mut out = Counts::new(new_n_qubits);
        for (&b, &c) in &self.counts {
            let mut nb = 0usize;
            for (new_pos, &old_pos) in qubit_map.iter().enumerate() {
                assert!(old_pos < self.n_qubits, "map index out of range");
                if (b >> old_pos) & 1 == 1 {
                    nb |= 1 << new_pos;
                }
            }
            out.record(nb, c);
        }
        out
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counts over {} qubits ({} shots):",
            self.n_qubits,
            self.total()
        )?;
        for (&b, &c) in &self.counts {
            writeln!(f, "  {:0width$b}: {c}", b, width = self.n_qubits)?;
        }
        Ok(())
    }
}

impl FromIterator<(usize, u64)> for Counts {
    /// Collects `(bitstring, count)` pairs; the width is chosen as the
    /// smallest that fits all bitstrings.
    fn from_iter<I: IntoIterator<Item = (usize, u64)>>(iter: I) -> Self {
        let pairs: Vec<(usize, u64)> = iter.into_iter().collect();
        let max_bit = pairs.iter().map(|&(b, _)| b).max().unwrap_or(0);
        let n_qubits = (usize::BITS - max_bit.leading_zeros()).max(1) as usize;
        let mut counts = Counts::new(n_qubits);
        for (b, c) in pairs {
            counts.record(b, c);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(3);
        c.record(0b101, 7);
        c.record(0b101, 3);
        c.record(0b000, 10);
        assert_eq!(c.count(0b101), 10);
        assert_eq!(c.total(), 20);
        assert_eq!(c.frequency(0b101), 0.5);
        assert_eq!(c.observed(), vec![0b000, 0b101]);
    }

    #[test]
    fn to_probabilities_normalizes() {
        let mut c = Counts::new(1);
        c.record(0, 30);
        c.record(1, 70);
        let p = c.to_probabilities();
        assert_eq!(p, vec![0.3, 0.7]);
    }

    #[test]
    fn expectation_of_cost() {
        let mut c = Counts::new(2);
        c.record(0b00, 50);
        c.record(0b11, 50);
        // Cost = number of ones.
        let e = c.expectation_of(|b| b.count_ones() as f64);
        assert_eq!(e, 1.0);
    }

    #[test]
    fn sampling_is_reproducible_and_calibrated() {
        let probs = vec![0.1, 0.2, 0.3, 0.4];
        let mut rng = StdRng::seed_from_u64(11);
        let c = Counts::sample_from_probabilities(&probs, 40_000, 2, &mut rng);
        assert_eq!(c.total(), 40_000);
        for (b, &p) in probs.iter().enumerate() {
            assert!((c.frequency(b) - p).abs() < 0.01, "b={b}");
        }
        let mut rng2 = StdRng::seed_from_u64(11);
        let c2 = Counts::sample_from_probabilities(&probs, 40_000, 2, &mut rng2);
        assert_eq!(c, c2);
    }

    #[test]
    fn alias_sampler_matches_reference_distribution() {
        // The alias fast path and the CDF reference draw different
        // streams but must agree statistically — same parity contract as
        // kernels vs kernels::reference.
        let probs = vec![0.05, 0.0, 0.25, 0.1, 0.3, 0.15, 0.05, 0.1];
        let shots = 200_000;
        let mut rng_a = StdRng::seed_from_u64(3);
        let fast = Counts::sample_from_probabilities(&probs, shots, 3, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(3);
        let slow = Counts::sample_from_probabilities_reference(&probs, shots, 3, &mut rng_b);
        assert_eq!(fast.total(), slow.total());
        for (b, &p) in probs.iter().enumerate() {
            assert!(
                (fast.frequency(b) - slow.frequency(b)).abs() < 0.01,
                "b={b}: alias {} vs reference {}",
                fast.frequency(b),
                slow.frequency(b)
            );
            assert!((fast.frequency(b) - p).abs() < 0.01, "b={b}");
        }
        // Impossible outcomes stay impossible in both.
        assert_eq!(fast.count(1), 0);
        assert_eq!(slow.count(1), 0);
    }

    #[test]
    fn alias_sampler_handles_degenerate_distributions() {
        // A single spike: every shot must land on it.
        let mut probs = vec![0.0; 16];
        probs[11] = 1.0;
        let mut rng = StdRng::seed_from_u64(5);
        let c = Counts::sample_from_probabilities(&probs, 1000, 4, &mut rng);
        assert_eq!(c.count(11), 1000);
        // Slightly negative round-off entries are clamped like the
        // reference path clamps them.
        let probs = vec![0.5 + 1e-9, -1e-9, 0.25, 0.25];
        let mut rng = StdRng::seed_from_u64(6);
        let c = Counts::sample_from_probabilities(&probs, 50_000, 2, &mut rng);
        assert_eq!(c.count(1), 0);
        assert!((c.frequency(0) - 0.5).abs() < 0.01);
    }

    #[test]
    fn all_clamped_vector_samples_uniformly_in_both_paths() {
        // Every entry negative (a maximally corrupted mitigation output):
        // the historical code built a 0/0 alias table (NaN cutoffs) and
        // the reference path collapsed onto state 0. Both must now fall
        // back to the uniform distribution instead.
        let probs = vec![-0.25; 8];
        let shots = 80_000;
        let mut rng = StdRng::seed_from_u64(17);
        let fast = Counts::sample_from_probabilities(&probs, shots, 3, &mut rng);
        let mut rng = StdRng::seed_from_u64(17);
        let slow = Counts::sample_from_probabilities_reference(&probs, shots, 3, &mut rng);
        assert_eq!(fast.total(), shots as u64);
        assert_eq!(slow.total(), shots as u64);
        for b in 0..8 {
            assert!((fast.frequency(b) - 0.125).abs() < 0.01, "fast b={b}");
            assert!((slow.frequency(b) - 0.125).abs() < 0.01, "slow b={b}");
        }
        // All-zero (e.g. an empty quasi-distribution) behaves the same.
        let mut rng = StdRng::seed_from_u64(18);
        let zero = Counts::sample_from_probabilities(&[0.0; 4], 40_000, 2, &mut rng);
        for b in 0..4 {
            assert!((zero.frequency(b) - 0.25).abs() < 0.02, "b={b}");
        }
    }

    #[test]
    fn near_degenerate_vectors_match_the_cdf_reference() {
        // A vector whose surviving mass is tiny (1e-12) after clamping:
        // renormalization must recover the conditional distribution, and
        // the alias fast path must agree with the CDF reference — the
        // parity contract on the degenerate edge.
        let probs = vec![3e-13, -0.4, 0.0, 1e-13, -1e-9, 0.0, 6e-13, 0.0];
        let shots = 200_000;
        let mut rng = StdRng::seed_from_u64(23);
        let fast = Counts::sample_from_probabilities(&probs, shots, 3, &mut rng);
        let mut rng = StdRng::seed_from_u64(23);
        let slow = Counts::sample_from_probabilities_reference(&probs, shots, 3, &mut rng);
        let expected = [0.3, 0.0, 0.0, 0.1, 0.0, 0.0, 0.6, 0.0];
        for (b, &p) in expected.iter().enumerate() {
            assert!((fast.frequency(b) - p).abs() < 0.01, "fast b={b}");
            assert!((slow.frequency(b) - p).abs() < 0.01, "slow b={b}");
        }
        // Clamped-away states stay impossible in both paths.
        for b in [1, 2, 4, 5, 7] {
            assert_eq!(fast.count(b), 0);
            assert_eq!(slow.count(b), 0);
        }
    }

    #[test]
    fn drifted_sums_are_renormalized_not_rejected() {
        // ZNE-folded / readout-corrupted vectors drift past the old 1e-6
        // assertion at scale; sampling must renormalize instead of
        // asserting.
        for drift in [0.98, 1.0 + 3e-4, 1.07] {
            let probs: Vec<f64> = [0.1, 0.2, 0.3, 0.4].iter().map(|p| p * drift).collect();
            let mut rng = StdRng::seed_from_u64(31);
            let c = Counts::sample_from_probabilities(&probs, 60_000, 2, &mut rng);
            assert_eq!(c.total(), 60_000);
            for (b, p) in [0.1, 0.2, 0.3, 0.4].iter().enumerate() {
                assert!((c.frequency(b) - p).abs() < 0.01, "drift {drift}, b={b}");
            }
        }
        // Non-finite entries are clamped away rather than poisoning the
        // table.
        let probs = vec![f64::NAN, 0.5, f64::INFINITY, 0.5];
        let mut rng = StdRng::seed_from_u64(37);
        let c = Counts::sample_from_probabilities(&probs, 40_000, 2, &mut rng);
        assert_eq!(c.count(0) + c.count(2), 0);
        assert!((c.frequency(1) - 0.5).abs() < 0.01);
    }

    #[test]
    fn remap_permutes_bits() {
        let mut c = Counts::new(3);
        c.record(0b110, 5);
        // New bit p reads old bit map[p]; map = [2, 0, 1].
        let r = c.remapped(&[2, 0, 1], 3);
        // old 0b110: bit0=0, bit1=1, bit2=1 -> new bit0=old2=1, bit1=old0=0, bit2=old1=1 -> 0b101.
        assert_eq!(r.count(0b101), 5);
    }

    #[test]
    fn from_iterator_infers_width() {
        let c: Counts = vec![(0b100, 1u64), (0b001, 2u64)].into_iter().collect();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn empty_counts_edge_cases() {
        let c = Counts::new(2);
        assert_eq!(c.total(), 0);
        assert_eq!(c.frequency(0), 0.0);
        assert_eq!(c.expectation_of(|_| 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_bitstring_panics() {
        let mut c = Counts::new(2);
        c.record(0b100, 1);
    }
}
