//! Dense logical tensors used at the program interface.

use std::fmt;

/// A dense row-major tensor of `f64` values with a logical shape.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    /// Extents, outermost first.
    pub shape: Vec<usize>,
    /// Row-major elements (`len == shape.product()`).
    pub data: Vec<f64>,
}

impl Tensor {
    /// Build from explicit shape and data (lengths must agree).
    pub fn from_vec(shape: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>().max(1),
            data.len(),
            "tensor shape/data mismatch"
        );
        Tensor { shape, data }
    }

    /// A tensor of `v` everywhere.
    pub fn fill(shape: &[usize], v: f64) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![v; shape.iter().product::<usize>().max(1)] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for zero-element tensors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at multidimensional index.
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[self.flat(idx)]
    }

    fn flat(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len());
        let mut off = 0;
        for (d, &i) in idx.iter().enumerate() {
            assert!(i < self.shape[d], "index {i} out of bounds for dim {d}");
            off = off * self.shape[d] + i;
        }
        off
    }

    /// Max absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                if a.is_nan() && b.is_nan() {
                    0.0
                } else {
                    (a - b).abs()
                }
            })
            .fold(0.0, f64::max)
    }

    /// Mixed relative/absolute closeness test (`|a-b| <= atol + rtol*|b|`
    /// elementwise); NaNs are only equal to NaNs.
    pub fn allclose(&self, other: &Tensor, rtol: f64, atol: f64) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            if a.is_nan() || b.is_nan() {
                a.is_nan() && b.is_nan()
            } else {
                (a - b).abs() <= atol + rtol * b.abs()
            }
        })
    }
}

impl fmt::Debug for Tensor {
    /// Keep Debug small: shape + first elements.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<f64> = self.data.iter().copied().take(8).collect();
        write!(f, "Tensor{:?}{:?}", self.shape, head)?;
        if self.data.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn allclose_tolerances() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 100.0]);
        let b = Tensor::from_vec(vec![2], vec![1.0 + 1e-9, 100.0 + 1e-5]);
        assert!(a.allclose(&b, 1e-6, 1e-8));
        assert!(!a.allclose(&b, 0.0, 0.0));
        let c = Tensor::from_vec(vec![1], vec![1.0]);
        assert!(!a.allclose(&c, 1.0, 1.0));
    }

    #[test]
    fn nan_equality_semantics() {
        let a = Tensor::from_vec(vec![1], vec![f64::NAN]);
        let b = Tensor::from_vec(vec![1], vec![f64::NAN]);
        let c = Tensor::from_vec(vec![1], vec![0.0]);
        assert!(a.allclose(&b, 0.0, 0.0));
        assert!(!a.allclose(&c, 1.0, 1.0));
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_shape_panics() {
        Tensor::from_vec(vec![2, 2], vec![1.0]);
    }
}
