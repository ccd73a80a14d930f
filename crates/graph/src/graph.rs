//! The undirected weighted graph type.

use std::collections::BTreeSet;
use std::fmt;

/// A weighted undirected edge `(u, v, w)` with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight (1.0 for unweighted Max-Cut).
    pub weight: f64,
}

/// An undirected graph with weighted edges and no self-loops.
///
/// ```
/// use hgp_graph::Graph;
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.n_nodes(), 4);
/// assert_eq!(g.n_edges(), 4);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n_nodes: usize,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates an empty graph on `n_nodes` vertices.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            edges: Vec::new(),
        }
    }

    /// Builds an unweighted graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn from_edges(n_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Self::new(n_nodes);
        for &(u, v) in edges {
            g.add_edge(u, v, 1.0);
        }
        g
    }

    /// Builds a weighted graph from `(u, v, w)` triples.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn from_weighted_edges(n_nodes: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut g = Self::new(n_nodes);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Adds an edge.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop, out-of-range endpoint, or duplicate edge.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            u < self.n_nodes && v < self.n_nodes,
            "endpoint out of range"
        );
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        assert!(
            !self.edges.iter().any(|e| e.u == u && e.v == v),
            "duplicate edge ({u}, {v})"
        );
        self.edges.push(Edge { u, v, weight });
    }

    /// Whether `(u, v)` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        self.edges.iter().any(|e| e.u == u && e.v == v)
    }

    /// Number of vertices.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.edges.iter().filter(|e| e.u == v || e.v == v).count()
    }

    /// Neighbors of `v`, ascending.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for e in &self.edges {
            if e.u == v {
                out.insert(e.v);
            } else if e.v == v {
                out.insert(e.u);
            }
        }
        out.into_iter().collect()
    }

    /// Whether every vertex is reachable from vertex 0 (true for the empty
    /// graph on one vertex).
    pub fn is_connected(&self) -> bool {
        if self.n_nodes == 0 {
            return true;
        }
        let mut seen = vec![false; self.n_nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for n in self.neighbors(v) {
                if !seen[n] {
                    seen[n] = true;
                    stack.push(n);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Whether the graph is `d`-regular.
    pub fn is_regular(&self, d: usize) -> bool {
        (0..self.n_nodes).all(|v| self.degree(v) == d)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph(n={}, m={})", self.n_nodes, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_properties() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.n_edges(), 3);
        assert!(g.is_regular(2));
        assert!(g.is_connected());
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn weights_sum() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 0.5)]);
        assert_eq!(g.total_weight(), 2.5);
    }

    #[test]
    fn edges_are_normalized() {
        let mut g = Graph::new(3);
        g.add_edge(2, 0, 1.0);
        assert_eq!(g.edges()[0].u, 0);
        assert_eq!(g.edges()[0].v, 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_edge_panics() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 1.0);
    }
}
