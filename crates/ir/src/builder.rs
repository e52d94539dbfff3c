//! Ergonomic program construction.
//!
//! The kernel suite (`perfdojo-kernels`) builds every Table 3 operator with
//! this API. Expressions are assembled with the free helper functions
//! ([`ld`], [`cst`], [`idx`], [`bin`], [`un`], …).

use crate::affine::Affine;
use crate::buffer::{BufferDecl, DType, Location};
use crate::expr::{Access, BinaryOp, Expr, UnaryOp};
use crate::node::{Node, OpNode, Scope};
use crate::program::Program;

/// Load `array[{d0},{d1},...]` with plain iterator indices.
pub fn ld(array: &str, depths: &[usize]) -> Expr {
    Expr::Load(Access::vars(array, depths))
}

/// Load with explicit affine indices.
pub fn ld_at(array: &str, indices: Vec<Affine>) -> Expr {
    Expr::Load(Access::new(array, indices))
}

/// A constant.
pub fn cst(c: f64) -> Expr {
    Expr::Const(c)
}

/// The iterator value `{d}` used as data.
pub fn idx(d: usize) -> Expr {
    Expr::Index(Affine::var(d))
}

/// Binary application.
pub fn bin(op: BinaryOp, a: Expr, b: Expr) -> Expr {
    Expr::Binary(op, Box::new(a), Box::new(b))
}

/// Unary application.
pub fn un(op: UnaryOp, x: Expr) -> Expr {
    Expr::Unary(op, Box::new(x))
}

/// `a + b`.
pub fn add(a: Expr, b: Expr) -> Expr {
    bin(BinaryOp::Add, a, b)
}

/// `a - b`.
pub fn sub(a: Expr, b: Expr) -> Expr {
    bin(BinaryOp::Sub, a, b)
}

/// `a * b`.
pub fn mul(a: Expr, b: Expr) -> Expr {
    bin(BinaryOp::Mul, a, b)
}

/// `a / b`.
pub fn div(a: Expr, b: Expr) -> Expr {
    bin(BinaryOp::Div, a, b)
}

/// An output access with plain iterator indices.
pub fn out(array: &str, depths: &[usize]) -> Access {
    Access::vars(array, depths)
}

/// An output access with explicit affine indices.
pub fn out_at(array: &str, indices: Vec<Affine>) -> Access {
    Access::new(array, indices)
}

/// Builder for [`Program`]s with nested-closure scope construction.
pub struct ProgramBuilder {
    prog: Program,
    /// Stack of children lists for open scopes; the bottom is the root list.
    stack: Vec<Vec<Node>>,
    sizes: Vec<usize>,
}

impl ProgramBuilder {
    /// Start a program named `name`.
    pub fn new(name: &str) -> Self {
        ProgramBuilder { prog: Program::new(name), stack: vec![Vec::new()], sizes: Vec::new() }
    }

    /// Declare an input array (also declares its heap buffer).
    pub fn input(&mut self, name: &str, shape: &[usize]) -> &mut Self {
        self.prog.buffers.push(BufferDecl::new(name, DType::F32, shape, Location::Heap));
        self.prog.inputs.push(name.to_string());
        self
    }

    /// Declare an output array (also declares its heap buffer).
    pub fn output(&mut self, name: &str, shape: &[usize]) -> &mut Self {
        self.prog.buffers.push(BufferDecl::new(name, DType::F32, shape, Location::Heap));
        self.prog.outputs.push(name.to_string());
        self
    }

    /// Declare a temporary array.
    pub fn temp(&mut self, name: &str, shape: &[usize], location: Location) -> &mut Self {
        self.prog.buffers.push(BufferDecl::new(name, DType::F32, shape, location));
        self
    }

    /// Declare a buffer with full control.
    pub fn buffer(&mut self, decl: BufferDecl) -> &mut Self {
        self.prog.buffers.push(decl);
        self
    }

    /// Mark an already-declared array as a program input.
    pub fn input_existing(&mut self, name: &str) -> &mut Self {
        self.prog.inputs.push(name.to_string());
        self
    }

    /// Mark an already-declared array as a program output.
    pub fn output_existing(&mut self, name: &str) -> &mut Self {
        self.prog.outputs.push(name.to_string());
        self
    }

    /// Open a sequential scope of `size`, run `f` to fill it, close it.
    pub fn scope(&mut self, size: usize, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.stack.push(Vec::new());
        self.sizes.push(size);
        f(self);
        let children = self.stack.pop().expect("scope stack underflow");
        let size = self.sizes.pop().unwrap();
        let node = Node::Scope(Scope::new(size, children));
        self.stack.last_mut().unwrap().push(node);
        self
    }

    /// Nest several sequential scopes at once; `f` runs inside the innermost.
    pub fn scopes(&mut self, sizes: &[usize], f: impl FnOnce(&mut Self)) -> &mut Self {
        match sizes.split_first() {
            None => {
                f(self);
                self
            }
            Some((&first, rest)) => {
                // Move f into the recursion via an Option to satisfy FnOnce.
                let mut f = Some(f);
                self.scope(first, |b| {
                    b.scopes(rest, f.take().unwrap());
                });
                self
            }
        }
    }

    /// Emit `out = expr` in the current scope.
    pub fn op(&mut self, out: Access, expr: Expr) -> &mut Self {
        self.stack.last_mut().unwrap().push(Node::Op(OpNode::new(out, expr)));
        self
    }

    /// Emit a reduction update `acc = combiner(acc, expr)`.
    pub fn reduce(&mut self, acc: Access, combiner: BinaryOp, expr: Expr) -> &mut Self {
        let e = Expr::Binary(combiner, Box::new(Expr::Load(acc.clone())), Box::new(expr));
        self.op(acc, e)
    }

    /// Finish and return the program.
    pub fn build(&mut self) -> Program {
        assert_eq!(self.stack.len(), 1, "unbalanced scopes");
        let mut prog = std::mem::replace(&mut self.prog, Program::new(""));
        prog.roots = self.stack.pop().unwrap();
        self.stack.push(Vec::new());
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn build_elementwise_mul() {
        let mut b = ProgramBuilder::new("mul");
        b.input("x", &[6, 14336]);
        b.input("y", &[6, 14336]);
        b.output("z", &[6, 14336]);
        b.scopes(&[6, 14336], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), ld("y", &[0, 1])));
        });
        let p = b.build();
        assert_eq!(p.op_count(), 1);
        assert_eq!(p.dynamic_op_instances(), 6 * 14336);
        validate(&p).expect("valid");
    }

    #[test]
    fn build_reduction() {
        let mut b = ProgramBuilder::new("rowsum");
        b.input("x", &[4, 8]);
        b.output("s", &[4]);
        b.scope(4, |b| {
            b.op(out("s", &[0]), cst(0.0));
            b.scope(8, |b| {
                b.reduce(out("s", &[0]), BinaryOp::Add, ld("x", &[0, 1]));
            });
        });
        let p = b.build();
        validate(&p).expect("valid");
        let ops = p.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].1.reduction_combiner(), Some(BinaryOp::Add));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_scopes_panic() {
        let mut b = ProgramBuilder::new("bad");
        b.stack.push(Vec::new());
        b.build();
    }
}
