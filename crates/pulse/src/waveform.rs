//! Analytic pulse envelopes.
//!
//! Envelopes are dimensionless (peak value ~1); physical drive strength
//! comes from multiplying by the play amplitude and the qubit's calibrated
//! Rabi rate. Durations are in integer `dt` samples. Following the Qiskit
//! pulse convention that the paper works within, Gaussian-family durations
//! should be multiples of 32 dt (enforced by [`Waveform::validate`], which
//! the duration binary search relies on).

/// A pulse envelope shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Truncated Gaussian `exp(-(t - T/2)^2 / (2 sigma^2))`.
    Gaussian {
        /// Total duration in `dt`.
        duration: u32,
        /// Standard deviation in `dt`.
        sigma: f64,
    },
    /// Gaussian rise/fall around a flat top (the CR pulse shape).
    GaussianSquare {
        /// Total duration in `dt`.
        duration: u32,
        /// Rise/fall standard deviation in `dt`.
        sigma: f64,
        /// Flat-top width in `dt` (must satisfy `width <= duration`).
        width: u32,
    },
    /// Gaussian with a derivative (DRAG) quadrature component; the
    /// in-phase envelope equals the Gaussian's.
    Drag {
        /// Total duration in `dt`.
        duration: u32,
        /// Standard deviation in `dt`.
        sigma: f64,
        /// DRAG coefficient (quadrature scale).
        beta: f64,
    },
    /// Constant (square) envelope of height 1.
    Constant {
        /// Total duration in `dt`.
        duration: u32,
    },
}

/// Validation failures for waveform shape parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum WaveformError {
    /// Duration must be positive.
    ZeroDuration,
    /// Gaussian-family durations must be multiples of 32 dt.
    NotMultipleOf32 {
        /// Offending duration.
        duration: u32,
    },
    /// Sigma must be positive and finite.
    BadSigma {
        /// Offending sigma.
        sigma: f64,
    },
    /// GaussianSquare width must fit in the duration.
    WidthTooLarge {
        /// Offending width.
        width: u32,
        /// Total duration.
        duration: u32,
    },
}

impl std::fmt::Display for WaveformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveformError::ZeroDuration => write!(f, "waveform duration must be positive"),
            WaveformError::NotMultipleOf32 { duration } => {
                write!(
                    f,
                    "gaussian waveform duration {duration} is not a multiple of 32 dt"
                )
            }
            WaveformError::BadSigma { sigma } => write!(f, "invalid sigma {sigma}"),
            WaveformError::WidthTooLarge { width, duration } => {
                write!(f, "flat-top width {width} exceeds duration {duration}")
            }
        }
    }
}

impl std::error::Error for WaveformError {}

impl Waveform {
    /// A Gaussian with the conventional `sigma = duration / 4`.
    pub fn gaussian(duration: u32) -> Self {
        Waveform::Gaussian {
            duration,
            sigma: f64::from(duration) / 4.0,
        }
    }

    /// A GaussianSquare with `sigma = 16 dt` ramps filling the non-flat
    /// portion.
    pub fn gaussian_square(duration: u32, width: u32) -> Self {
        Waveform::GaussianSquare {
            duration,
            sigma: 16.0,
            width,
        }
    }

    /// Total duration in `dt`.
    pub fn duration(&self) -> u32 {
        match *self {
            Waveform::Gaussian { duration, .. }
            | Waveform::GaussianSquare { duration, .. }
            | Waveform::Drag { duration, .. }
            | Waveform::Constant { duration } => duration,
        }
    }

    /// Checks shape constraints (positive duration, 32-dt alignment for
    /// Gaussian-family shapes, positive sigma, width <= duration).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), WaveformError> {
        let duration = self.duration();
        if duration == 0 {
            return Err(WaveformError::ZeroDuration);
        }
        match *self {
            Waveform::Gaussian { sigma, .. }
            | Waveform::GaussianSquare { sigma, .. }
            | Waveform::Drag { sigma, .. } => {
                if !duration.is_multiple_of(32) {
                    return Err(WaveformError::NotMultipleOf32 { duration });
                }
                if !(sigma > 0.0 && sigma.is_finite()) {
                    return Err(WaveformError::BadSigma { sigma });
                }
            }
            Waveform::Constant { .. } => {}
        }
        if let Waveform::GaussianSquare {
            width, duration, ..
        } = *self
        {
            if width > duration {
                return Err(WaveformError::WidthTooLarge { width, duration });
            }
        }
        Ok(())
    }

    /// Envelope value at sample index `t` (`0 <= t < duration`).
    ///
    /// Out-of-range samples return 0. The DRAG quadrature component is not
    /// included here (the rotating-frame model only needs the in-phase
    /// envelope; DRAG's beta enters as a phase adjustment in the
    /// propagator).
    pub fn sample(&self, t: u32) -> f64 {
        let duration = self.duration();
        if t >= duration {
            return 0.0;
        }
        let tf = f64::from(t) + 0.5; // midpoint sampling
        match *self {
            Waveform::Gaussian { duration, sigma }
            | Waveform::Drag {
                duration, sigma, ..
            } => {
                let mid = f64::from(duration) / 2.0;
                (-((tf - mid) * (tf - mid)) / (2.0 * sigma * sigma)).exp()
            }
            Waveform::GaussianSquare {
                duration,
                sigma,
                width,
            } => {
                let ramp = (f64::from(duration) - f64::from(width)) / 2.0;
                if tf < ramp {
                    let d = tf - ramp;
                    (-(d * d) / (2.0 * sigma * sigma)).exp()
                } else if tf > ramp + f64::from(width) {
                    let d = tf - ramp - f64::from(width);
                    (-(d * d) / (2.0 * sigma * sigma)).exp()
                } else {
                    1.0
                }
            }
            Waveform::Constant { .. } => 1.0,
        }
    }

    /// Integrated envelope `sum_t sample(t)` in `dt` units — the pulse
    /// "area" that calibration divides rotation angles by.
    pub fn area(&self) -> f64 {
        (0..self.duration()).map(|t| self.sample(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_peaks_in_the_middle() {
        let w = Waveform::gaussian(160);
        let mid = w.sample(80);
        assert!(mid > 0.99);
        assert!(w.sample(0) < mid);
        assert!(w.sample(159) < mid);
        // Symmetry.
        assert!((w.sample(10) - w.sample(149)).abs() < 1e-12);
    }

    #[test]
    fn gaussian_area_matches_analytic() {
        // Area of a full Gaussian is sigma * sqrt(2 pi); truncation at
        // +-2 sigma keeps ~95%.
        let w = Waveform::gaussian(160); // sigma = 40
        let analytic = 40.0 * (2.0 * std::f64::consts::PI).sqrt();
        let a = w.area();
        assert!(a > 0.94 * analytic && a < analytic, "area {a}");
    }

    #[test]
    fn gaussian_square_has_flat_top() {
        let w = Waveform::gaussian_square(256, 128);
        assert_eq!(w.sample(128), 1.0);
        assert!(w.sample(4) < 0.5);
        assert!(w.area() > 128.0);
    }

    #[test]
    fn constant_area_is_duration() {
        let w = Waveform::Constant { duration: 100 };
        assert_eq!(w.area(), 100.0);
        assert_eq!(w.sample(99), 1.0);
        assert_eq!(w.sample(100), 0.0);
    }

    #[test]
    fn validation_rules() {
        assert!(Waveform::gaussian(160).validate().is_ok());
        assert_eq!(
            Waveform::gaussian(100).validate(),
            Err(WaveformError::NotMultipleOf32 { duration: 100 })
        );
        assert_eq!(
            Waveform::Constant { duration: 0 }.validate(),
            Err(WaveformError::ZeroDuration)
        );
        assert!(matches!(
            Waveform::GaussianSquare {
                duration: 64,
                sigma: 16.0,
                width: 128
            }
            .validate(),
            Err(WaveformError::WidthTooLarge { .. })
        ));
        assert!(matches!(
            Waveform::Gaussian {
                duration: 64,
                sigma: -1.0
            }
            .validate(),
            Err(WaveformError::BadSigma { .. })
        ));
    }

    #[test]
    fn shorter_pulse_has_smaller_area() {
        let long = Waveform::gaussian(320);
        let short = Waveform::gaussian(128);
        assert!(short.area() < long.area());
    }

    #[test]
    fn out_of_range_sample_is_zero() {
        let w = Waveform::gaussian(64);
        assert_eq!(w.sample(64), 0.0);
        assert_eq!(w.sample(1000), 0.0);
    }
}
