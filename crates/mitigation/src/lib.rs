#![forbid(unsafe_code)]

//! Error suppression for measurement results (the paper's "Step III").
//!
//! Two techniques make up the evaluated protocol:
//!
//! - [`M3Mitigator`]: matrix-free measurement mitigation (Nation et al.,
//!   PRX Quantum 2021). Instead of inverting the full `2^n x 2^n`
//!   assignment matrix, the solver works in the subspace spanned by the
//!   *observed* bitstrings, with matrix elements generated from
//!   per-qubit confusion parameters once per shot record,
//! - [`cvar()`]: Conditional Value-at-Risk cost aggregation (Barkoutsos et
//!   al., Quantum 2020) — the cost averages only the best `alpha`
//!   fraction of shots, sharpening the optimizer's signal. The paper sets
//!   `alpha = 0.3`.
//!
//! # Example
//!
//! ```
//! use hgp_sim::Counts;
//! use hgp_noise::ReadoutModel;
//! use hgp_mitigation::M3Mitigator;
//! use rand::SeedableRng;
//!
//! // A state that is truly always |11>, read through 5% noisy readout.
//! let model = ReadoutModel::uniform(2, 0.05);
//! let mut truth = Counts::new(2);
//! truth.record(0b11, 10_000);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let noisy = model.corrupt_counts(&truth, &mut rng);
//! assert!(noisy.frequency(0b11) < 1.0);
//!
//! let mitigated = M3Mitigator::from_readout_model(&model).apply(&noisy);
//! // Mitigation restores (nearly) all probability to |11>.
//! assert!(mitigated.probability(0b11) > 0.99);
//! ```

pub mod cvar;
pub mod m3;
pub mod zne;

pub use cvar::cvar;
pub use m3::{M3Mitigator, QuasiDistribution};
pub use zne::{fold_gates, richardson};
