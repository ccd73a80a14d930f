//! Pulse schedules: pulses played at start times on channels.

use crate::channel::Channel;
use crate::waveform::Waveform;

/// The physical content of one played pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PulseSpec {
    /// A resonant (or detuned) drive: envelope times amplitude, with a
    /// carrier phase and an optional frequency shift of the drive tone.
    Drive {
        /// Envelope shape.
        waveform: Waveform,
        /// Dimensionless amplitude; hardware clamps `|amp| <= 1`.
        amp: f64,
        /// Carrier phase, radians.
        phase: f64,
        /// Frequency shift of this pulse's tone relative to the qubit
        /// frame, in rad/dt (the paper's per-pulse frequency parameter,
        /// bounded to roughly +-100 MHz = +-0.14 rad/dt).
        freq_shift: f64,
    },
    /// A cross-resonance tone (played on a [`Channel::Control`] channel).
    CrossResonance {
        /// Envelope shape.
        waveform: Waveform,
        /// Dimensionless amplitude; sign implements the CR echo.
        amp: f64,
        /// Carrier phase, radians.
        phase: f64,
    },
    /// A virtual Z rotation (zero-duration frame change) by `angle`.
    VirtualZ {
        /// Rotation angle, radians.
        angle: f64,
    },
}

impl PulseSpec {
    /// Duration in `dt` (0 for virtual frame changes).
    pub fn duration(&self) -> u32 {
        match self {
            PulseSpec::Drive { waveform, .. } | PulseSpec::CrossResonance { waveform, .. } => {
                waveform.duration()
            }
            PulseSpec::VirtualZ { .. } => 0,
        }
    }

    /// Short name of the pulse family (for error messages).
    pub fn kind_name(&self) -> &'static str {
        match self {
            PulseSpec::Drive { .. } => "drive",
            PulseSpec::CrossResonance { .. } => "cross-resonance",
            PulseSpec::VirtualZ { .. } => "virtual-z",
        }
    }
}

/// One pulse placed on a channel at an absolute start time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayedPulse {
    /// Channel the pulse plays on.
    pub channel: Channel,
    /// Start time, `dt`.
    pub start: u32,
    /// The pulse.
    pub pulse: PulseSpec,
}

impl PlayedPulse {
    /// End time (`start + duration`), `dt`.
    pub fn end(&self) -> u32 {
        self.start + self.pulse.duration()
    }
}

/// An ordered pulse program.
///
/// ```
/// use hgp_pulse::{Channel, PulseSpec, Schedule, Waveform};
/// let mut sched = Schedule::new();
/// sched.play(
///     Channel::Drive(0),
///     PulseSpec::Drive {
///         waveform: Waveform::gaussian(160),
///         amp: 0.25,
///         phase: 0.0,
///         freq_shift: 0.0,
///     },
/// );
/// assert_eq!(sched.duration(), 160);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    items: Vec<PlayedPulse>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The played pulses, in insertion order.
    pub fn items(&self) -> &[PlayedPulse] {
        &self.items
    }

    /// Appends a pulse on `channel` starting as early as the channel's
    /// qubits allow (after every already-scheduled pulse that shares a
    /// qubit). Returns the assigned start time.
    pub fn play(&mut self, channel: Channel, pulse: PulseSpec) -> u32 {
        let qubits = channel.qubits();
        let start = self
            .items
            .iter()
            .filter(|p| p.channel.qubits().iter().any(|q| qubits.contains(q)))
            .map(PlayedPulse::end)
            .max()
            .unwrap_or(0);
        self.play_at(channel, start, pulse);
        start
    }

    /// Places a pulse at an explicit start time.
    ///
    /// # Panics
    ///
    /// Panics if the pulse would overlap another pulse sharing a qubit
    /// (virtual-Z pulses never overlap anything).
    pub fn play_at(&mut self, channel: Channel, start: u32, pulse: PulseSpec) {
        let duration = pulse.duration();
        if duration > 0 {
            let qubits = channel.qubits();
            for other in &self.items {
                if other.pulse.duration() == 0 {
                    continue;
                }
                if !other.channel.qubits().iter().any(|q| qubits.contains(q)) {
                    continue;
                }
                let no_overlap = start >= other.end() || start + duration <= other.start;
                assert!(
                    no_overlap,
                    "pulse on {channel} at {start} overlaps pulse on {} at {}",
                    other.channel, other.start
                );
            }
        }
        self.items.push(PlayedPulse {
            channel,
            start,
            pulse,
        });
    }

    /// Appends another schedule, shifted to start after this one ends.
    pub fn append(&mut self, other: &Schedule) {
        let offset = self.duration();
        for item in &other.items {
            self.items.push(PlayedPulse {
                channel: item.channel,
                start: item.start + offset,
                pulse: item.pulse,
            });
        }
    }

    /// Total duration: the latest pulse end time.
    pub fn duration(&self) -> u32 {
        self.items.iter().map(PlayedPulse::end).max().unwrap_or(0)
    }

    /// Number of non-virtual pulses.
    pub fn count_physical_pulses(&self) -> usize {
        self.items.iter().filter(|p| p.pulse.duration() > 0).count()
    }

    /// The set of physical qubits touched by unitary channels, ascending.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut qs: Vec<usize> = self
            .items
            .iter()
            .filter(|p| p.channel.is_unitary())
            .flat_map(|p| p.channel.qubits())
            .collect();
        qs.sort_unstable();
        qs.dedup();
        qs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_drive(amp: f64) -> PulseSpec {
        PulseSpec::Drive {
            waveform: Waveform::gaussian(160),
            amp,
            phase: 0.0,
            freq_shift: 0.0,
        }
    }

    #[test]
    fn sequential_play_on_same_qubit() {
        let mut s = Schedule::new();
        let t0 = s.play(Channel::Drive(0), gaussian_drive(0.1));
        let t1 = s.play(Channel::Drive(0), gaussian_drive(0.2));
        assert_eq!(t0, 0);
        assert_eq!(t1, 160);
        assert_eq!(s.duration(), 320);
    }

    #[test]
    fn parallel_play_on_different_qubits() {
        let mut s = Schedule::new();
        s.play(Channel::Drive(0), gaussian_drive(0.1));
        let t = s.play(Channel::Drive(1), gaussian_drive(0.1));
        assert_eq!(t, 0);
        assert_eq!(s.duration(), 160);
    }

    #[test]
    fn control_channel_serializes_with_its_qubits() {
        let mut s = Schedule::new();
        s.play(Channel::Drive(0), gaussian_drive(0.1));
        // CR on (0, 1) must wait for the drive on 0.
        let t = s.play(
            Channel::Control {
                control: 0,
                target: 1,
            },
            PulseSpec::CrossResonance {
                waveform: Waveform::gaussian_square(256, 128),
                amp: 0.3,
                phase: 0.0,
            },
        );
        assert_eq!(t, 160);
    }

    #[test]
    fn virtual_z_is_free() {
        let mut s = Schedule::new();
        s.play(Channel::Drive(0), PulseSpec::VirtualZ { angle: 1.0 });
        assert_eq!(s.duration(), 0);
        assert_eq!(s.count_physical_pulses(), 0);
    }

    #[test]
    fn append_shifts_in_time() {
        let mut a = Schedule::new();
        a.play(Channel::Drive(0), gaussian_drive(0.1));
        let mut b = Schedule::new();
        b.play(Channel::Drive(1), gaussian_drive(0.2));
        a.append(&b);
        assert_eq!(a.items()[1].start, 160);
        assert_eq!(a.duration(), 320);
    }

    #[test]
    fn active_qubits_deduplicates() {
        let mut s = Schedule::new();
        s.play(Channel::Drive(2), gaussian_drive(0.1));
        s.play(
            Channel::Control {
                control: 2,
                target: 5,
            },
            PulseSpec::CrossResonance {
                waveform: Waveform::gaussian_square(256, 128),
                amp: 0.1,
                phase: 0.0,
            },
        );
        assert_eq!(s.active_qubits(), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_pulses_panic() {
        let mut s = Schedule::new();
        s.play_at(Channel::Drive(0), 0, gaussian_drive(0.1));
        s.play_at(Channel::Drive(0), 100, gaussian_drive(0.1));
    }
}
