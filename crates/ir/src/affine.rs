//! Affine index expressions over scope iterators.
//!
//! An index like `x[{0}*4 + {1} - 1]` is stored as a list of
//! `(scope depth, coefficient)` terms plus a constant offset. Depths are
//! relative to the operation's ancestor scope chain, with `0` the outermost
//! scope (paper §2.1). Keeping indices affine is what makes the dependence
//! analysis behind every transformation's applicability check decidable.

use std::fmt;

/// An affine function of scope iterators: `sum(coeff_i * iter(depth_i)) + offset`.
///
/// Terms are kept sorted by depth and coefficients are never zero, so
/// structural equality coincides with functional equality.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    /// `(scope depth, coefficient)` pairs, sorted by depth, no zero coeffs.
    pub terms: Vec<(usize, i64)>,
    /// Constant offset.
    pub offset: i64,
}

impl Affine {
    /// The constant affine expression `c`.
    pub fn cst(c: i64) -> Self {
        Affine { terms: Vec::new(), offset: c }
    }

    /// The iterator of the scope at `depth`, i.e. `{depth}`.
    pub fn var(depth: usize) -> Self {
        Affine { terms: vec![(depth, 1)], offset: 0 }
    }

    /// `coeff * {depth} + offset`.
    pub fn scaled(depth: usize, coeff: i64, offset: i64) -> Self {
        let mut a = Affine { terms: vec![(depth, coeff)], offset };
        a.normalize();
        a
    }

    fn normalize(&mut self) {
        self.terms.sort_by_key(|&(d, _)| d);
        self.terms.retain(|&(_, c)| c != 0);
        // merge duplicate depths
        let mut merged: Vec<(usize, i64)> = Vec::with_capacity(self.terms.len());
        for &(d, c) in &self.terms {
            if let Some(last) = merged.last_mut() {
                if last.0 == d {
                    last.1 += c;
                    continue;
                }
            }
            merged.push((d, c));
        }
        merged.retain(|&(_, c)| c != 0);
        self.terms = merged;
    }

    /// Sum of two affine expressions.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut r = self.clone();
        r.terms.extend_from_slice(&other.terms);
        r.offset += other.offset;
        r.normalize();
        r
    }

    /// Difference `self - other`.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// Multiply by a constant.
    pub fn scale(&self, k: i64) -> Affine {
        let mut r = Affine {
            terms: self.terms.iter().map(|&(d, c)| (d, c * k)).collect(),
            offset: self.offset * k,
        };
        r.normalize();
        r
    }

    /// True when the expression is a constant.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// If constant, its value.
    pub fn as_const(&self) -> Option<i64> {
        self.is_const().then_some(self.offset)
    }

    /// If the expression is exactly `{d}` for some depth `d`, return `d`.
    pub fn as_var(&self) -> Option<usize> {
        if self.offset == 0 {
            if let [(d, 1)] = self.terms[..] {
                return Some(d);
            }
        }
        None
    }

    /// Coefficient of the iterator at `depth` (0 when absent).
    pub fn coeff(&self, depth: usize) -> i64 {
        self.terms
            .iter()
            .find(|&&(d, _)| d == depth)
            .map_or(0, |&(_, c)| c)
    }

    /// True when the expression mentions the iterator at `depth`.
    pub fn uses(&self, depth: usize) -> bool {
        self.coeff(depth) != 0
    }

    /// All depths mentioned.
    pub fn depths(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().map(|&(d, _)| d)
    }

    /// Evaluate with concrete iterator values (`iters[d]` = value of `{d}`).
    pub fn eval(&self, iters: &[i64]) -> i64 {
        let mut v = self.offset;
        for &(d, c) in &self.terms {
            v += c * iters.get(d).copied().unwrap_or(0);
        }
        v
    }

    /// Inclusive (min, max) value over iterator domains `0..sizes[d]`.
    ///
    /// Used for static bounds checking of accesses. Depths not covered by
    /// `sizes` are treated as having domain `{0}`.
    pub fn range(&self, sizes: &[usize]) -> (i64, i64) {
        let mut lo = self.offset;
        let mut hi = self.offset;
        for &(d, c) in &self.terms {
            let max_iter = sizes.get(d).map_or(0, |&s| s.saturating_sub(1) as i64);
            if c >= 0 {
                hi += c * max_iter;
            } else {
                lo += c * max_iter;
            }
        }
        (lo, hi)
    }

    /// Rewrite every depth through `f` (e.g. after a scope was inserted or
    /// removed above the operation). `f` receives the old depth and returns
    /// the new one.
    pub fn remap_depths(&self, f: &mut dyn FnMut(usize) -> usize) -> Affine {
        let mut r = Affine {
            terms: self.terms.iter().map(|&(d, c)| (f(d), c)).collect(),
            offset: self.offset,
        };
        r.normalize();
        r
    }

    /// Substitute the iterator at `depth` with an affine expression.
    ///
    /// Used by scope splitting: `{d}` becomes `{d}*T + {d+1}`.
    pub fn substitute(&self, depth: usize, repl: &Affine) -> Affine {
        let c = self.coeff(depth);
        if c == 0 {
            return self.clone();
        }
        let mut without = self.clone();
        without.terms.retain(|&(d, _)| d != depth);
        without.add(&repl.scale(c))
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(d, c) in &self.terms {
            if first {
                if c == 1 {
                    write!(f, "{{{d}}}")?;
                } else if c == -1 {
                    write!(f, "-{{{d}}}")?;
                } else {
                    write!(f, "{c}*{{{d}}}")?;
                }
                first = false;
            } else if c == 1 {
                write!(f, "+{{{d}}}")?;
            } else if c == -1 {
                write!(f, "-{{{d}}}")?;
            } else if c > 0 {
                write!(f, "+{c}*{{{d}}}")?;
            } else {
                write!(f, "{c}*{{{d}}}")?;
            }
        }
        if first {
            write!(f, "{}", self.offset)?;
        } else if self.offset > 0 {
            write!(f, "+{}", self.offset)?;
        } else if self.offset < 0 {
            write!(f, "{}", self.offset)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_and_var() {
        assert!(Affine::cst(3).is_const());
        assert_eq!(Affine::cst(3).as_const(), Some(3));
        assert_eq!(Affine::var(2).as_var(), Some(2));
    }

    #[test]
    fn add_merges_terms() {
        let a = Affine::var(0).add(&Affine::var(0));
        assert_eq!(a.coeff(0), 2);
        let b = a.sub(&Affine::scaled(0, 2, 0));
        assert!(b.is_const());
        assert_eq!(b.as_const(), Some(0));
    }

    #[test]
    fn eval_matches_structure() {
        // 3*{0} + {2} - 5
        let a = Affine::scaled(0, 3, -5).add(&Affine::var(2));
        assert_eq!(a.eval(&[2, 100, 7]), 3 * 2 + 7 - 5);
    }

    #[test]
    fn range_bounds() {
        // {0} - {1} with sizes [4, 3] -> min -2, max 3
        let a = Affine::var(0).sub(&Affine::var(1));
        assert_eq!(a.range(&[4, 3]), (-2, 3));
    }

    #[test]
    fn substitute_split() {
        // {1} -> {1}*8 + {2}  (scope split by tile 8)
        let a = Affine::var(1);
        let repl = Affine::scaled(1, 8, 0).add(&Affine::var(2));
        let s = a.substitute(1, &repl);
        assert_eq!(s.eval(&[0, 3, 5]), 3 * 8 + 5);
    }

    #[test]
    fn remap_depths_merges() {
        // {0}+{1} remapped so both become {0} -> 2*{0}
        let a = Affine::var(0).add(&Affine::var(1));
        let r = a.remap_depths(&mut |_| 0);
        assert_eq!(r.coeff(0), 2);
    }

    #[test]
    fn display_roundtrip_forms() {
        assert_eq!(Affine::cst(0).to_string(), "0");
        assert_eq!(Affine::var(1).to_string(), "{1}");
        assert_eq!(Affine::scaled(0, 4, 2).to_string(), "4*{0}+2");
        assert_eq!(Affine::scaled(0, -1, 0).to_string(), "-{0}");
    }
}
