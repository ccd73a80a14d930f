//! Logical-to-physical qubit layouts.

/// A bijection from logical circuit qubits to physical device qubits
/// (physical qubits outside the image are unused).
///
/// ```
/// use hgp_transpile::Layout;
/// let mut l = Layout::new(vec![5, 2, 7], 16);
/// assert_eq!(l.physical(0), 5);
/// assert_eq!(l.logical(7), Some(2));
/// l.swap_physical(5, 2); // a SWAP gate on physical wires 5 and 2
/// assert_eq!(l.physical(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `log_to_phys[l]` = physical qubit of logical `l`.
    log_to_phys: Vec<usize>,
    /// `phys_to_log[p]` = logical qubit on physical `p`, if any.
    phys_to_log: Vec<Option<usize>>,
}

impl Layout {
    /// Builds a layout placing logical qubit `l` on `log_to_phys[l]`.
    ///
    /// # Panics
    ///
    /// Panics if a physical index repeats or exceeds `n_physical`.
    pub fn new(log_to_phys: Vec<usize>, n_physical: usize) -> Self {
        let mut phys_to_log = vec![None; n_physical];
        for (l, &p) in log_to_phys.iter().enumerate() {
            assert!(p < n_physical, "physical qubit {p} out of range");
            assert!(phys_to_log[p].is_none(), "physical qubit {p} reused");
            phys_to_log[p] = Some(l);
        }
        Self {
            log_to_phys,
            phys_to_log,
        }
    }

    /// The identity layout on the first `n_logical` physical qubits.
    pub fn trivial(n_logical: usize, n_physical: usize) -> Self {
        Self::new((0..n_logical).collect(), n_physical)
    }

    /// Number of logical qubits.
    pub fn n_logical(&self) -> usize {
        self.log_to_phys.len()
    }

    /// Number of physical qubits.
    pub fn n_physical(&self) -> usize {
        self.phys_to_log.len()
    }

    /// Physical qubit hosting logical `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn physical(&self, l: usize) -> usize {
        self.log_to_phys[l]
    }

    /// Logical qubit on physical `p`, if occupied.
    pub fn logical(&self, p: usize) -> Option<usize> {
        self.phys_to_log[p]
    }

    /// The logical-to-physical vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.log_to_phys
    }

    /// Updates the layout after a SWAP on two physical wires.
    ///
    /// Either wire may be unoccupied (swapping with an idle qubit).
    pub fn swap_physical(&mut self, p1: usize, p2: usize) {
        let l1 = self.phys_to_log[p1];
        let l2 = self.phys_to_log[p2];
        self.phys_to_log[p1] = l2;
        self.phys_to_log[p2] = l1;
        if let Some(l) = l1 {
            self.log_to_phys[l] = p2;
        }
        if let Some(l) = l2 {
            self.log_to_phys[l] = p1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_layout_is_identity() {
        let l = Layout::trivial(3, 8);
        for q in 0..3 {
            assert_eq!(l.physical(q), q);
            assert_eq!(l.logical(q), Some(q));
        }
        assert_eq!(l.logical(5), None);
    }

    #[test]
    fn swap_updates_both_directions() {
        let mut l = Layout::new(vec![0, 1], 4);
        l.swap_physical(1, 2);
        assert_eq!(l.physical(1), 2);
        assert_eq!(l.logical(1), None);
        assert_eq!(l.logical(2), Some(1));
        // Swap back.
        l.swap_physical(2, 1);
        assert_eq!(l.physical(1), 1);
    }

    #[test]
    fn swap_with_idle_qubit() {
        let mut l = Layout::new(vec![3], 5);
        l.swap_physical(3, 4);
        assert_eq!(l.physical(0), 4);
        assert_eq!(l.logical(3), None);
    }

    #[test]
    #[should_panic(expected = "reused")]
    fn duplicate_physical_panics() {
        let _ = Layout::new(vec![1, 1], 4);
    }
}
