//! Qubit connectivity graphs (coupling maps).

/// Undirected qubit connectivity with an all-pairs distance table.
///
/// The distance table drives SABRE's heuristic cost; it is computed once
/// by breadth-first search at construction time.
///
/// ```
/// use hgp_device::CouplingMap;
/// let line = CouplingMap::line(4);
/// assert!(line.are_coupled(1, 2));
/// assert!(!line.are_coupled(0, 3));
/// assert_eq!(line.distance(0, 3), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingMap {
    n_qubits: usize,
    edges: Vec<(usize, usize)>,
    /// `dist[u * n + v]`, `usize::MAX / 2` when unreachable.
    dist: Vec<usize>,
}

impl CouplingMap {
    /// Builds a coupling map from an undirected edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn new(n_qubits: usize, edges: &[(usize, usize)]) -> Self {
        for &(u, v) in edges {
            assert!(u < n_qubits && v < n_qubits, "edge endpoint out of range");
            assert_ne!(u, v, "self-coupling is not allowed");
        }
        let norm: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let mut map = Self {
            n_qubits,
            edges: norm,
            dist: Vec::new(),
        };
        map.compute_distances();
        map
    }

    /// A 1D chain `0 - 1 - ... - (n-1)`.
    pub fn line(n_qubits: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n_qubits.saturating_sub(1))
            .map(|i| (i, i + 1))
            .collect();
        Self::new(n_qubits, &edges)
    }

    /// All-to-all connectivity (ideal device).
    pub fn full(n_qubits: usize) -> Self {
        let mut edges = Vec::new();
        for u in 0..n_qubits {
            for v in (u + 1)..n_qubits {
                edges.push((u, v));
            }
        }
        Self::new(n_qubits, &edges)
    }

    /// A ring `0 - 1 - ... - (n-1) - 0`.
    pub fn ring(n_qubits: usize) -> Self {
        assert!(n_qubits >= 3, "ring needs at least 3 qubits");
        let mut edges: Vec<(usize, usize)> = (0..n_qubits - 1).map(|i| (i, i + 1)).collect();
        edges.push((0, n_qubits - 1));
        Self::new(n_qubits, &edges)
    }

    fn compute_distances(&mut self) {
        let n = self.n_qubits;
        const INF: usize = usize::MAX / 2;
        let mut dist = vec![INF; n * n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        for s in 0..n {
            dist[s * n + s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                let du = dist[s * n + u];
                for &v in &adj[u] {
                    if dist[s * n + v] == INF {
                        dist[s * n + v] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        self.dist = dist;
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The undirected edge list (normalized `u < v`).
    #[inline]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Whether `u` and `v` share a coupler.
    pub fn are_coupled(&self, u: usize, v: usize) -> bool {
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&(u, v))
    }

    /// Shortest path length in couplers between `u` and `v`.
    ///
    /// Returns a very large value when disconnected.
    #[inline]
    pub fn distance(&self, u: usize, v: usize) -> usize {
        self.dist[u * self.n_qubits + v]
    }

    /// Neighbors of qubit `q`.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|&(u, v)| {
                if u == q {
                    Some(v)
                } else if v == q {
                    Some(u)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Whether all qubits are mutually reachable.
    pub fn is_connected(&self) -> bool {
        (0..self.n_qubits).all(|v| self.distance(0, v) < usize::MAX / 2)
    }

    /// The heavy-hex coupling map of IBM's 27-qubit Falcon processors
    /// (`ibmq_toronto`, `ibmq_montreal`, `ibm_auckland`, ...).
    pub fn falcon_27() -> Self {
        Self::new(
            27,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
                (14, 16),
                (15, 18),
                (16, 19),
                (17, 18),
                (18, 21),
                (19, 20),
                (19, 22),
                (21, 23),
                (22, 25),
                (23, 24),
                (24, 25),
                (25, 26),
            ],
        )
    }

    /// The heavy-hex coupling map of IBM's 16-qubit Falcon processor
    /// (`ibmq_guadalupe`).
    pub fn falcon_16() -> Self {
        Self::new(
            16,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances() {
        let m = CouplingMap::line(5);
        assert_eq!(m.distance(0, 4), 4);
        assert_eq!(m.distance(2, 2), 0);
        assert!(m.is_connected());
        assert_eq!(m.neighbors(2), vec![1, 3]);
    }

    #[test]
    fn ring_wraps_around() {
        let m = CouplingMap::ring(6);
        assert_eq!(m.distance(0, 5), 1);
        assert_eq!(m.distance(0, 3), 3);
    }

    #[test]
    fn full_map_is_distance_one() {
        let m = CouplingMap::full(4);
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    assert_eq!(m.distance(u, v), 1);
                }
            }
        }
    }

    #[test]
    fn falcon_27_shape() {
        let m = CouplingMap::falcon_27();
        assert_eq!(m.n_qubits(), 27);
        assert_eq!(m.edges().len(), 28);
        assert!(m.is_connected());
        // Heavy-hex: degrees are at most 3.
        for q in 0..27 {
            assert!(m.neighbors(q).len() <= 3, "qubit {q} over-connected");
        }
    }

    #[test]
    fn falcon_16_shape() {
        let m = CouplingMap::falcon_16();
        assert_eq!(m.n_qubits(), 16);
        assert_eq!(m.edges().len(), 16);
        assert!(m.is_connected());
    }

    #[test]
    fn disconnected_map_detected() {
        let m = CouplingMap::new(4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert!(m.distance(0, 3) > 1_000_000);
    }

    #[test]
    #[should_panic(expected = "self-coupling")]
    fn self_loop_panics() {
        let _ = CouplingMap::new(2, &[(1, 1)]);
    }
}
