//! Optimization results.

/// Outcome of a minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fun: f64,
    /// Total function evaluations spent.
    pub n_evals: usize,
    /// Iterations performed (algorithm-specific granularity).
    pub n_iters: usize,
    /// Whether the algorithm's own convergence test fired (as opposed to
    /// exhausting its budget).
    pub converged: bool,
    /// Best objective value after each iteration — the training curve the
    /// paper's convergence-speed comparisons read.
    pub history: Vec<f64>,
}

impl OptimizeResult {
    /// Number of iterations needed to first reach within `tol` of the
    /// final value — the "time to convergence" used when comparing the
    /// hybrid and pulse-level models' training cost.
    pub fn iterations_to_reach(&self, tol: f64) -> usize {
        let target = self.fun + tol;
        self.history
            .iter()
            .position(|&v| v <= target)
            .map_or(self.history.len(), |i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_to_reach_finds_first_crossing() {
        let r = OptimizeResult {
            x: vec![0.0],
            fun: 1.0,
            n_evals: 10,
            n_iters: 5,
            converged: true,
            history: vec![5.0, 3.0, 1.05, 1.01, 1.0],
        };
        assert_eq!(r.iterations_to_reach(0.1), 3);
        assert_eq!(r.iterations_to_reach(0.001), 5);
    }
}
