//! The stack-folded drive propagator against the per-step heap loop it
//! replaced (`propagator::reference`): every entry of the 2x2 result
//! must agree bit for bit, over all four envelope kinds, zero and
//! negative amplitudes, and zero and nonzero frequency shifts.

use hgp_math::Matrix;
use hgp_pulse::propagator::drive_propagator;
use hgp_pulse::propagator::reference::drive_propagator_reference;
use hgp_pulse::Waveform;
use proptest::prelude::*;

/// One envelope of kind `kind` (0..4) lasting `blocks * 32` dt.
fn waveform(kind: usize, blocks: u32, shape: f64) -> Waveform {
    let duration = 32 * blocks;
    match kind {
        0 => Waveform::Gaussian {
            duration,
            sigma: f64::from(duration) * shape,
        },
        1 => Waveform::GaussianSquare {
            duration,
            sigma: 64.0 * shape,
            width: duration / 2,
        },
        2 => Waveform::Drag {
            duration,
            sigma: f64::from(duration) * shape,
            beta: 2.0 * shape - 0.5,
        },
        _ => Waveform::Constant { duration },
    }
}

/// The eight f64 components of a 2x2 matrix, as bits.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice()
        .iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

#[test]
fn every_kind_amp_and_detuning_corner_is_bit_equal() {
    for kind in 0..4 {
        let w = waveform(kind, 5, 0.25);
        for amp in [0.0, -0.0, 0.1, -0.1, -0.3] {
            for freq_shift in [0.0, 0.001, -0.05] {
                for phase in [0.0, 0.3, -2.0] {
                    let fast = drive_propagator(&w, amp, phase, freq_shift, 0.125);
                    let slow = drive_propagator_reference(&w, amp, phase, freq_shift, 0.125);
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "{w:?} amp {amp} phase {phase} freq {freq_shift}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn stack_fold_is_bit_equal_to_the_reference(
        kind in 0usize..4,
        blocks in 1u64..11,
        shape in 0.1f64..0.5,
        amp in -1.0f64..1.0,
        zero_amp in 0usize..4,
        phase in -3.2f64..3.2,
        freq_shift in -0.14f64..0.14,
        zero_freq in 0usize..3,
        strength in 0.01f64..0.3,
    ) {
        // A quarter of the cases take the amp-0 identity branch (when
        // the detuning is zero too), a third the zero-detuning path.
        let amp = if zero_amp == 0 { 0.0 } else { amp };
        let freq_shift = if zero_freq == 0 { 0.0 } else { freq_shift };
        let w = waveform(kind, blocks as u32, shape);
        let fast = drive_propagator(&w, amp, phase, freq_shift, strength);
        let slow = drive_propagator_reference(&w, amp, phase, freq_shift, strength);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }
}
