//! Backend-level calibration summaries (the paper's Table I).

/// Backend-average calibration data, exactly as reported in Table I of the
/// paper.
///
/// The paper's table labels T1/T2 "ms"; the values (~100-170) are plainly
/// microseconds for these Falcon processors, and are stored here as
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Average Pauli-X (single-qubit) gate error.
    pub x_error: f64,
    /// Average CNOT (two-qubit) gate error.
    pub cx_error: f64,
    /// Average readout (assignment) error.
    pub readout_error: f64,
    /// Average T1 relaxation time, microseconds.
    pub t1_us: f64,
    /// Average T2 dephasing time, microseconds.
    pub t2_us: f64,
    /// Readout pulse length, nanoseconds.
    pub readout_length_ns: f64,
}

impl Calibration {
    /// Table I column for `ibm_auckland`.
    pub fn ibm_auckland() -> Self {
        Self {
            x_error: 2.229e-4,
            cx_error: 1.164e-2,
            readout_error: 0.011,
            t1_us: 166.220,
            t2_us: 145.620,
            readout_length_ns: 757.333,
        }
    }

    /// Table I column for `ibmq_toronto`.
    pub fn ibmq_toronto() -> Self {
        Self {
            x_error: 2.774e-4,
            cx_error: 9.677e-3,
            readout_error: 0.031,
            t1_us: 104.200,
            t2_us: 120.760,
            readout_length_ns: 5962.667,
        }
    }

    /// Table I column for `ibmq_guadalupe`.
    pub fn ibmq_guadalupe() -> Self {
        Self {
            x_error: 3.023e-4,
            cx_error: 1.108e-2,
            readout_error: 0.025,
            t1_us: 102.320,
            t2_us: 102.530,
            readout_length_ns: 7111.111,
        }
    }

    /// Table I column for `ibmq_montreal`.
    pub fn ibmq_montreal() -> Self {
        Self {
            x_error: 2.780e-4,
            cx_error: 1.049e-2,
            readout_error: 0.015,
            t1_us: 123.99,
            t2_us: 95.01,
            readout_length_ns: 5201.778,
        }
    }

    /// An idealized (noise-free) calibration for unit tests.
    pub fn ideal() -> Self {
        Self {
            x_error: 0.0,
            cx_error: 0.0,
            readout_error: 0.0,
            t1_us: f64::INFINITY,
            t2_us: f64::INFINITY,
            readout_length_ns: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_orderings_hold() {
        // The paper's analysis hinges on these orderings:
        // toronto has the lowest CNOT error...
        let (a, t, g, m) = (
            Calibration::ibm_auckland(),
            Calibration::ibmq_toronto(),
            Calibration::ibmq_guadalupe(),
            Calibration::ibmq_montreal(),
        );
        assert!(t.cx_error < a.cx_error.min(g.cx_error).min(m.cx_error));
        // ...and auckland the lowest readout error.
        assert!(a.readout_error < t.readout_error.min(g.readout_error).min(m.readout_error));
    }

    #[test]
    fn t1_t2_are_physical() {
        for c in [
            Calibration::ibm_auckland(),
            Calibration::ibmq_toronto(),
            Calibration::ibmq_guadalupe(),
            Calibration::ibmq_montreal(),
        ] {
            assert!(c.t1_us > 0.0 && c.t2_us > 0.0);
            // T2 <= 2*T1 always holds physically.
            assert!(c.t2_us <= 2.0 * c.t1_us);
        }
    }

    #[test]
    fn ideal_calibration_is_noise_free() {
        let c = Calibration::ideal();
        assert_eq!(c.x_error, 0.0);
        assert!(c.t1_us.is_infinite());
    }
}
