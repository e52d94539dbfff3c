//! Operation expressions: accesses, constants, iterator values and
//! arithmetic over them.
//!
//! Each leaf operation of the tree computes `out = expr` where `expr` is a
//! scalar expression. Reductions are expressed by reading the output inside
//! the expression (e.g. `m[{0}] = max(m[{0}], x[{0},{1}])`), which keeps
//! every operation atomic and the reduction pattern recognizable by the
//! dependence analysis.

use crate::affine::Affine;
use crate::text::View;
use std::fmt;

/// One index of a multidimensional access.
///
/// Almost always affine; [`IndexExpr::Indirect`] expresses the paper's
/// *indirection* feature (`x[y[{0}]]`, Table 2) which is representable but
/// rejected by [`crate::validate`] exactly as the paper excludes it.
#[derive(Clone, PartialEq, Debug)]
pub enum IndexExpr {
    /// Affine function of enclosing scope iterators.
    Affine(Affine),
    /// The value of another array element used as an index (excluded
    /// feature; kept for Table 2 completeness tests).
    Indirect(Box<Access>),
}

impl IndexExpr {
    /// Shorthand for an affine index.
    pub fn aff(a: Affine) -> Self {
        IndexExpr::Affine(a)
    }

    /// The affine payload, if this index is affine.
    pub fn as_affine(&self) -> Option<&Affine> {
        match self {
            IndexExpr::Affine(a) => Some(a),
            IndexExpr::Indirect(_) => None,
        }
    }

    /// True when the index mentions the iterator at `depth`.
    pub fn uses(&self, depth: usize) -> bool {
        match self {
            IndexExpr::Affine(a) => a.uses(depth),
            IndexExpr::Indirect(acc) => acc.uses(depth),
        }
    }

    /// Rewrite depths through `f`.
    pub fn remap_depths(&self, f: &mut dyn FnMut(usize) -> usize) -> IndexExpr {
        match self {
            IndexExpr::Affine(a) => IndexExpr::Affine(a.remap_depths(f)),
            IndexExpr::Indirect(acc) => IndexExpr::Indirect(Box::new(acc.remap_depths(f))),
        }
    }

    /// Substitute `{depth}` with an affine replacement.
    pub fn substitute(&self, depth: usize, repl: &Affine) -> IndexExpr {
        match self {
            IndexExpr::Affine(a) => IndexExpr::Affine(a.substitute(depth, repl)),
            IndexExpr::Indirect(acc) => IndexExpr::Indirect(Box::new(acc.substitute(depth, repl))),
        }
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexExpr::Affine(a) => write!(f, "{a}"),
            IndexExpr::Indirect(acc) => write!(f, "{acc}"),
        }
    }
}

/// A scalar element access: array name plus one index per array dimension.
#[derive(Clone, PartialEq, Debug)]
pub struct Access {
    /// Name of the accessed array (resolved to a buffer by the program).
    pub array: String,
    /// One index expression per dimension, outermost first.
    pub indices: Vec<IndexExpr>,
}

impl Access {
    /// Build an access with affine indices.
    pub fn new(array: &str, indices: Vec<Affine>) -> Self {
        Access {
            array: array.to_string(),
            indices: indices.into_iter().map(IndexExpr::Affine).collect(),
        }
    }

    /// Access whose indices are exactly the iterators at `depths`.
    pub fn vars(array: &str, depths: &[usize]) -> Self {
        Access::new(array, depths.iter().map(|&d| Affine::var(d)).collect())
    }

    /// True when any index mentions the iterator at `depth`.
    pub fn uses(&self, depth: usize) -> bool {
        self.indices.iter().any(|i| i.uses(depth))
    }

    /// All affine indices (None if any index is indirect).
    pub fn affine_indices(&self) -> Option<Vec<&Affine>> {
        self.indices.iter().map(IndexExpr::as_affine).collect()
    }

    /// Rewrite depths through `f`.
    pub fn remap_depths(&self, f: &mut dyn FnMut(usize) -> usize) -> Access {
        Access {
            array: self.array.clone(),
            indices: self.indices.iter().map(|i| i.remap_depths(f)).collect(),
        }
    }

    /// Substitute `{depth}` with an affine replacement in all indices.
    pub fn substitute(&self, depth: usize, repl: &Affine) -> Access {
        Access {
            array: self.array.clone(),
            indices: self.indices.iter().map(|i| i.substitute(depth, repl)).collect(),
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.array)?;
        for (i, ix) in self.indices.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{ix}")?;
        }
        write!(f, "]")
    }
}

/// Unary arithmetic functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// `e^x`.
    Exp,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// Reciprocal square root (`1/sqrt(x)`).
    Rsqrt,
    /// Reciprocal (`1/x`).
    Recip,
    /// `max(x, 0)`.
    Relu,
    /// Absolute value.
    Abs,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1/(1+e^-x)`.
    Sigmoid,
}

impl UnaryOp {
    /// Function name used in the textual format.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Rsqrt => "rsqrt",
            UnaryOp::Recip => "recip",
            UnaryOp::Relu => "relu",
            UnaryOp::Abs => "abs",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sigmoid => "sigmoid",
        }
    }

    /// Parse a function name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "neg" => UnaryOp::Neg,
            "exp" => UnaryOp::Exp,
            "log" => UnaryOp::Log,
            "sqrt" => UnaryOp::Sqrt,
            "rsqrt" => UnaryOp::Rsqrt,
            "recip" => UnaryOp::Recip,
            "relu" => UnaryOp::Relu,
            "abs" => UnaryOp::Abs,
            "tanh" => UnaryOp::Tanh,
            "sigmoid" => UnaryOp::Sigmoid,
            _ => return None,
        })
    }

    /// Evaluate on a scalar.
    pub fn eval(self, x: f64) -> f64 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Exp => x.exp(),
            UnaryOp::Log => x.ln(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Rsqrt => 1.0 / x.sqrt(),
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// All unary operators (for tests/fuzzing).
    pub const ALL: [UnaryOp; 10] = [
        UnaryOp::Neg,
        UnaryOp::Exp,
        UnaryOp::Log,
        UnaryOp::Sqrt,
        UnaryOp::Rsqrt,
        UnaryOp::Recip,
        UnaryOp::Relu,
        UnaryOp::Abs,
        UnaryOp::Tanh,
        UnaryOp::Sigmoid,
    ];
}

/// Binary arithmetic functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinaryOp {
    /// Addition (associative & commutative — reduction-capable).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (associative & commutative — reduction-capable).
    Mul,
    /// Division.
    Div,
    /// Maximum (associative & commutative — reduction-capable).
    Max,
    /// Minimum (associative & commutative — reduction-capable).
    Min,
}

impl BinaryOp {
    /// True when the operator is associative and commutative, i.e. usable as
    /// a reduction combiner whose iterations may be reordered/parallelized.
    pub fn is_reduction_combiner(self) -> bool {
        matches!(self, BinaryOp::Add | BinaryOp::Mul | BinaryOp::Max | BinaryOp::Min)
    }

    /// Identity element of a reduction combiner.
    pub fn identity(self) -> Option<f64> {
        match self {
            BinaryOp::Add => Some(0.0),
            BinaryOp::Mul => Some(1.0),
            BinaryOp::Max => Some(f64::NEG_INFINITY),
            BinaryOp::Min => Some(f64::INFINITY),
            _ => None,
        }
    }

    /// Infix symbol or function name in the textual format.
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
        }
    }

    /// Evaluate on scalars.
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }

    /// All binary operators (for tests/fuzzing).
    pub const ALL: [BinaryOp; 6] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Max,
        BinaryOp::Min,
    ];
}

/// A scalar expression tree.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Read an array element.
    Load(Access),
    /// A literal constant (paper: *constant as value*).
    Const(f64),
    /// An affine function of iterators used as a value (paper: *index as
    /// value*).
    Index(Affine),
    /// Unary function application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary function application.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Visit every access in the expression.
    pub fn visit_accesses<'a>(&'a self, f: &mut dyn FnMut(&'a Access)) {
        match self {
            Expr::Load(a) => {
                f(a);
                for ix in &a.indices {
                    if let IndexExpr::Indirect(inner) = ix {
                        f(inner);
                    }
                }
            }
            Expr::Unary(_, x) => x.visit_accesses(f),
            Expr::Binary(_, x, y) => {
                x.visit_accesses(f);
                y.visit_accesses(f);
            }
            Expr::Const(_) | Expr::Index(_) => {}
        }
    }

    /// Collect all accesses read by the expression.
    pub fn accesses(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.visit_accesses(&mut |a| out.push(a));
        out
    }

    /// True when the expression mentions the iterator at `depth` (in an
    /// access index or as a value).
    pub fn uses(&self, depth: usize) -> bool {
        match self {
            Expr::Load(a) => a.uses(depth),
            Expr::Const(_) => false,
            Expr::Index(a) => a.uses(depth),
            Expr::Unary(_, x) => x.uses(depth),
            Expr::Binary(_, x, y) => x.uses(depth) || y.uses(depth),
        }
    }

    /// Rewrite depths through `f` everywhere.
    pub fn remap_depths(&self, f: &mut dyn FnMut(usize) -> usize) -> Expr {
        match self {
            Expr::Load(a) => Expr::Load(a.remap_depths(f)),
            Expr::Const(c) => Expr::Const(*c),
            Expr::Index(a) => Expr::Index(a.remap_depths(f)),
            Expr::Unary(op, x) => Expr::Unary(*op, Box::new(x.remap_depths(f))),
            Expr::Binary(op, x, y) => {
                Expr::Binary(*op, Box::new(x.remap_depths(f)), Box::new(y.remap_depths(f)))
            }
        }
    }

    /// Substitute `{depth}` with an affine replacement everywhere.
    pub fn substitute(&self, depth: usize, repl: &Affine) -> Expr {
        match self {
            Expr::Load(a) => Expr::Load(a.substitute(depth, repl)),
            Expr::Const(c) => Expr::Const(*c),
            Expr::Index(a) => Expr::Index(a.substitute(depth, repl)),
            Expr::Unary(op, x) => Expr::Unary(*op, Box::new(x.substitute(depth, repl))),
            Expr::Binary(op, x, y) => Expr::Binary(
                *op,
                Box::new(x.substitute(depth, repl)),
                Box::new(y.substitute(depth, repl)),
            ),
        }
    }

    /// Number of arithmetic operations (unary + binary applications).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Load(_) | Expr::Const(_) | Expr::Index(_) => 0,
            Expr::Unary(_, x) => 1 + x.op_count(),
            Expr::Binary(_, x, y) => 1 + x.op_count() + y.op_count(),
        }
    }
}

impl Expr {
    /// Write the expression in `view` (the [`View::Structure`] text prints
    /// every constant as `0.0`).
    pub(crate) fn write_to<W: fmt::Write>(&self, f: &mut W, view: View) -> fmt::Result {
        match self {
            Expr::Load(a) => write!(f, "{a}"),
            Expr::Const(_) if view == View::Structure => f.write_str("0.0"),
            Expr::Const(c) => {
                if *c == f64::NEG_INFINITY {
                    f.write_str("-inf")
                } else if *c == f64::INFINITY {
                    f.write_str("inf")
                } else {
                    write!(f, "{c:?}")
                }
            }
            Expr::Index(a) => write!(f, "({a})"),
            Expr::Unary(op, x) => {
                f.write_str(op.name())?;
                f.write_char('(')?;
                x.write_to(f, view)?;
                f.write_char(')')
            }
            Expr::Binary(op @ (BinaryOp::Max | BinaryOp::Min), x, y) => {
                f.write_str(op.name())?;
                f.write_char('(')?;
                x.write_to(f, view)?;
                f.write_str(", ")?;
                y.write_to(f, view)?;
                f.write_char(')')
            }
            Expr::Binary(op, x, y) => {
                f.write_char('(')?;
                x.write_to(f, view)?;
                f.write_char(' ')?;
                f.write_str(op.name())?;
                f.write_char(' ')?;
                y.write_to(f, view)?;
                f.write_char(')')
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f, View::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x01() -> Access {
        Access::vars("x", &[0, 1])
    }

    #[test]
    fn access_display() {
        assert_eq!(x01().to_string(), "x[{0},{1}]");
        let a = Access::new("z", vec![Affine::scaled(0, 4, 0).add(&Affine::var(1))]);
        assert_eq!(a.to_string(), "z[4*{0}+{1}]");
    }

    #[test]
    fn expr_accesses_and_uses() {
        let e = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Load(x01())),
            Box::new(Expr::Const(2.0)),
        );
        assert_eq!(e.accesses().len(), 1);
        assert!(e.uses(0));
        assert!(e.uses(1));
        assert!(!e.uses(2));
        assert_eq!(e.op_count(), 1);
    }

    #[test]
    fn reduction_identities() {
        assert_eq!(BinaryOp::Add.identity(), Some(0.0));
        assert_eq!(BinaryOp::Max.identity(), Some(f64::NEG_INFINITY));
        assert_eq!(BinaryOp::Sub.identity(), None);
        assert!(BinaryOp::Mul.is_reduction_combiner());
        assert!(!BinaryOp::Div.is_reduction_combiner());
    }

    #[test]
    fn unary_eval_sane() {
        assert_eq!(UnaryOp::Relu.eval(-2.0), 0.0);
        assert_eq!(UnaryOp::Relu.eval(3.0), 3.0);
        assert!((UnaryOp::Rsqrt.eval(4.0) - 0.5).abs() < 1e-12);
        assert!((UnaryOp::Sigmoid.eval(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn substitute_rewrites_indices() {
        let e = Expr::Load(x01());
        let repl = Affine::scaled(1, 8, 0).add(&Affine::var(2));
        let s = e.substitute(1, &repl);
        assert_eq!(s.to_string(), "x[{0},8*{1}+{2}]");
    }

    #[test]
    fn indirect_index_display() {
        let inner = Access::vars("y", &[0]);
        let a = Access {
            array: "x".into(),
            indices: vec![IndexExpr::Indirect(Box::new(inner))],
        };
        assert_eq!(a.to_string(), "x[y[{0}]]");
        assert!(a.affine_indices().is_none());
    }
}
