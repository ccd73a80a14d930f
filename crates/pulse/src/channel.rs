//! Pulse channels.
//!
//! IBM-style backends expose four channel families; the simulator acts on
//! the two that carry unitary dynamics (drive and control), while measure
//! and acquire channels exist so schedules can represent full programs and
//! account for readout duration.

/// A hardware channel that pulses are played on.
///
/// Qubit indices are *physical* backend qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Channel {
    /// Single-qubit drive line (`D<q>`), the primary channel of a qubit.
    Drive(usize),
    /// Cross-resonance control line (`U`) driving `control` at the
    /// frequency of `target`; exists only for coupled pairs.
    Control {
        /// The qubit being driven.
        control: usize,
        /// The qubit whose frequency the drive is at.
        target: usize,
    },
    /// Readout stimulus channel (`M<q>`).
    Measure(usize),
    /// Readout capture channel (`A<q>`).
    Acquire(usize),
}

impl Channel {
    /// The qubits whose state this channel's pulses touch.
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Channel::Drive(q) | Channel::Measure(q) | Channel::Acquire(q) => vec![q],
            Channel::Control { control, target } => vec![control, target],
        }
    }

    /// Whether pulses on this channel produce unitary dynamics (drive and
    /// control channels do; measure/acquire are classical bookkeeping).
    pub fn is_unitary(&self) -> bool {
        matches!(self, Channel::Drive(_) | Channel::Control { .. })
    }
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Channel::Drive(q) => write!(f, "d{q}"),
            Channel::Control { control, target } => write!(f, "u{control}_{target}"),
            Channel::Measure(q) => write!(f, "m{q}"),
            Channel::Acquire(q) => write!(f, "a{q}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_qubits() {
        assert_eq!(Channel::Drive(3).qubits(), vec![3]);
        assert_eq!(
            Channel::Control {
                control: 1,
                target: 2
            }
            .qubits(),
            vec![1, 2]
        );
    }

    #[test]
    fn unitary_classification() {
        assert!(Channel::Drive(0).is_unitary());
        assert!(Channel::Control {
            control: 0,
            target: 1
        }
        .is_unitary());
        assert!(!Channel::Measure(0).is_unitary());
        assert!(!Channel::Acquire(0).is_unitary());
    }

    #[test]
    fn display_names() {
        assert_eq!(Channel::Drive(5).to_string(), "d5");
        assert_eq!(
            Channel::Control {
                control: 2,
                target: 7
            }
            .to_string(),
            "u2_7"
        );
    }
}
