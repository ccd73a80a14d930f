//! Circuit parameters: bound values and free symbols.
//!
//! Variational circuits are built once with free parameters and re-bound on
//! every optimizer iteration. A [`Param`] is either a concrete angle or a
//! reference into the circuit's parameter vector.

use std::fmt;

/// Index of a free parameter within a circuit's parameter vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub usize);

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A gate angle: either bound to a concrete value or free.
///
/// A free parameter can carry an affine transform `scale * p + offset`,
/// which lets several gates share one optimizer parameter (e.g. all mixer
/// rotations in a QAOA layer use the same `beta` with scale `2.0`).
///
/// ```
/// use hgp_circuit::{Param, ParamId};
/// let p = Param::free(ParamId(0)).scaled(2.0);
/// assert_eq!(p.evaluate(&[0.5]), 1.0);
/// assert_eq!(Param::bound(0.3).evaluate(&[]), 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// A concrete value.
    Bound(f64),
    /// `scale * params[id] + offset`.
    Free {
        /// Which optimizer parameter this angle reads.
        id: ParamId,
        /// Multiplier applied to the parameter value.
        scale: f64,
        /// Constant offset added after scaling.
        offset: f64,
    },
}

impl Param {
    /// A bound (concrete) parameter.
    #[inline]
    pub fn bound(value: f64) -> Self {
        Param::Bound(value)
    }

    /// A free parameter reading `params[id]` directly.
    #[inline]
    pub fn free(id: ParamId) -> Self {
        Param::Free {
            id,
            scale: 1.0,
            offset: 0.0,
        }
    }

    /// Returns a copy with the scale multiplied by `k`.
    #[inline]
    pub fn scaled(self, k: f64) -> Self {
        match self {
            Param::Bound(v) => Param::Bound(v * k),
            Param::Free { id, scale, offset } => Param::Free {
                id,
                scale: scale * k,
                offset: offset * k,
            },
        }
    }

    /// Returns a copy with `off` added to the offset.
    #[inline]
    pub fn shifted(self, off: f64) -> Self {
        match self {
            Param::Bound(v) => Param::Bound(v + off),
            Param::Free { id, scale, offset } => Param::Free {
                id,
                scale,
                offset: offset + off,
            },
        }
    }

    /// Evaluates the parameter against a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is free and its id is out of range.
    #[inline]
    pub fn evaluate(&self, params: &[f64]) -> f64 {
        match *self {
            Param::Bound(v) => v,
            Param::Free { id, scale, offset } => scale * params[id.0] + offset,
        }
    }

    /// The concrete value, if bound.
    #[inline]
    pub fn value(&self) -> Option<f64> {
        match *self {
            Param::Bound(v) => Some(v),
            Param::Free { .. } => None,
        }
    }

    /// Whether the parameter is bound.
    #[inline]
    pub fn is_bound(&self) -> bool {
        matches!(self, Param::Bound(_))
    }

    /// The free-parameter id, if any.
    #[inline]
    pub fn param_id(&self) -> Option<ParamId> {
        match *self {
            Param::Bound(_) => None,
            Param::Free { id, .. } => Some(id),
        }
    }

    /// Binds against `params`, producing a bound parameter.
    #[inline]
    pub fn bind(&self, params: &[f64]) -> Param {
        Param::Bound(self.evaluate(params))
    }
}

impl From<f64> for Param {
    fn from(value: f64) -> Self {
        Param::Bound(value)
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Param::Bound(v) => write!(f, "{v}"),
            Param::Free { id, scale, offset } => {
                if scale != 1.0 {
                    write!(f, "{scale}*{id}")?;
                } else {
                    write!(f, "{id}")?;
                }
                if offset != 0.0 {
                    write!(f, "{offset:+}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_evaluation_ignores_vector() {
        assert_eq!(Param::bound(1.5).evaluate(&[9.0, 9.0]), 1.5);
    }

    #[test]
    fn free_evaluation_reads_vector() {
        let p = Param::free(ParamId(1));
        assert_eq!(p.evaluate(&[0.0, 2.5]), 2.5);
    }

    #[test]
    fn affine_transform_composes() {
        let p = Param::free(ParamId(0)).scaled(2.0).shifted(1.0).scaled(3.0);
        // 3*(2*x + 1) = 6x + 3
        assert_eq!(p.evaluate(&[0.5]), 6.0 * 0.5 + 3.0);
    }

    #[test]
    fn bind_produces_bound() {
        let p = Param::free(ParamId(0)).scaled(-1.0);
        let b = p.bind(&[0.25]);
        assert_eq!(b, Param::Bound(-0.25));
        assert!(b.is_bound());
    }

    #[test]
    fn param_id_accessor() {
        assert_eq!(Param::free(ParamId(3)).param_id(), Some(ParamId(3)));
        assert_eq!(Param::bound(0.0).param_id(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Param::bound(0.5).to_string(), "0.5");
        assert_eq!(Param::free(ParamId(2)).to_string(), "p2");
        assert_eq!(Param::free(ParamId(0)).scaled(2.0).to_string(), "2*p0");
    }
}
