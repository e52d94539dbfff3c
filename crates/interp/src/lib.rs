//! Reference interpreter and numerical verifier for PerfDojo programs.
//!
//! The interpreter executes a program against **physical buffer memory**:
//! buffers are flat arrays laid out by [`perfdojo_ir::BufferDecl::strides`],
//! so non-materialized (`:N`) dimensions alias and padded dimensions leave
//! poisoned (NaN) gaps. This is essential: an *incorrectly* applied layout
//! transformation (paper Fig. 5) produces observably wrong numbers here,
//! which is exactly how the paper "empirically validate[s] the
//! implementation of these applicability rules by numerically comparing the
//! output of each transformed program against its original version" (§2.2).
//!
//! A program is resolved once before it runs: every access is bound to its
//! buffer's slab, strides and padded bounds, and every scope to its trip
//! count, so the loop nest does no name lookup and no allocation per
//! element. Resolution reads only the program's own `BufferDecl`s, never the
//! code generator's lowering, so the two stay independent oracles. Every
//! executed access still checks each index against its dimension's padded
//! extent, and every error is raised when the offending node executes.

pub mod diff;
pub mod tensor;
pub mod verify;

pub use diff::{first_mismatch, values_match, values_match_exact};
pub use tensor::Tensor;
pub use verify::{random_inputs, verify_equivalent, VerifyReport, VERIFY_WORK_LIMIT};

use perfdojo_ir as ir;
use perfdojo_ir::{Affine, BinaryOp, UnaryOp};
use std::collections::HashMap;
use std::fmt;

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An access names an array with no declaring buffer.
    UnknownArray(String),
    /// A computed index left the physical extent of the buffer.
    OutOfBounds { array: String, indices: Vec<i64> },
    /// A program input tensor is missing or misshaped, or a buffer is too
    /// large to allocate (`array` then names the buffer).
    BadInput { array: String, reason: String },
    /// A dynamic scope size (excluded feature) was encountered.
    DynamicScope,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownArray(a) => write!(f, "undeclared array '{a}'"),
            ExecError::OutOfBounds { array, indices } => {
                write!(f, "out-of-bounds access {array}{indices:?}")
            }
            ExecError::BadInput { array, reason } => write!(f, "bad input '{array}': {reason}"),
            ExecError::DynamicScope => write!(f, "dynamic scope sizes are not executable"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execute `p` on the given inputs, returning its output tensors keyed by
/// array name.
pub fn execute(
    p: &ir::Program,
    inputs: &HashMap<String, Tensor>,
) -> Result<HashMap<String, Tensor>, ExecError> {
    Resolved::new(p).run(inputs)
}

/// A program bound to its memory layout, ready to run any number of times.
pub(crate) struct Resolved {
    /// One slab per buffer declaration, in declaration order.
    slabs: Vec<Slab>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    roots: Vec<Node>,
}

/// The physical layout of one buffer.
struct Slab {
    buffer: String,
    /// Physical element count; `None` when it does not fit in memory.
    len: Option<usize>,
    shape: Vec<usize>,
    strides: Vec<usize>,
}

/// An interface array and the slab holding it (`None`: undeclared).
struct Port {
    array: String,
    slab: Option<usize>,
}

enum Node {
    Op { out: Access, expr: Expr },
    Loop { trip: usize, body: Vec<Node> },
    /// A scope without a constant trip count: raises `DynamicScope` when run.
    Dynamic,
}

/// Same tree shape and evaluation order as [`ir::Expr`].
enum Expr {
    Load(Access),
    Const(f64),
    Index(Affine),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
}

struct Access {
    /// The accessed array's name, for error payloads.
    array: String,
    /// `None` when no buffer declares the array.
    slab: Option<usize>,
    dims: Vec<Dim>,
}

/// One index of an access, with its dimension's stride and padded extent.
/// An access whose arity differs from its buffer's has no valid index, so
/// every one of its dimensions gets bound 0.
struct Dim {
    index: Index,
    stride: usize,
    bound: usize,
}

enum Index {
    Affine(Affine),
    Indirect(Box<Access>),
}

/// Largest slab the allocator can hold, in `f64` elements.
const MAX_SLAB: usize = isize::MAX as usize / std::mem::size_of::<f64>();

impl Resolved {
    pub(crate) fn new(p: &ir::Program) -> Self {
        let slabs: Vec<Slab> = p.buffers.iter().map(Slab::new).collect();
        let port = |array: &String| Port { array: array.clone(), slab: slab_of(p, array) };
        let cx = Cx { p, slabs: &slabs };
        let roots = p.roots.iter().map(|n| cx.node(n)).collect();
        Resolved {
            inputs: p.inputs.iter().map(port).collect(),
            outputs: p.outputs.iter().map(port).collect(),
            roots,
            slabs,
        }
    }

    /// Run on fresh NaN-poisoned memory.
    pub(crate) fn run(
        &self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<HashMap<String, Tensor>, ExecError> {
        let mut mem = Vec::with_capacity(self.slabs.len());
        for s in &self.slabs {
            let len = s.len.ok_or_else(|| ExecError::BadInput {
                array: s.buffer.clone(),
                reason: "physical length overflows the address space".into(),
            })?;
            mem.push(vec![f64::NAN; len]);
        }
        for port in &self.inputs {
            let t = inputs.get(&port.array).ok_or_else(|| ExecError::BadInput {
                array: port.array.clone(),
                reason: "missing".into(),
            })?;
            self.load_input(&mut mem, port, t)?;
        }
        let mut iters: Vec<i64> = Vec::new();
        run_nodes(&self.roots, &mut mem, &mut iters)?;
        let mut out = HashMap::new();
        for port in &self.outputs {
            out.insert(port.array.clone(), self.read_output(&mem, port)?);
        }
        Ok(out)
    }

    /// Copy a logical tensor into the (strided, possibly padded) slab.
    fn load_input(&self, mem: &mut [Vec<f64>], port: &Port, t: &Tensor) -> Result<(), ExecError> {
        let i = port.slab.ok_or_else(|| ExecError::UnknownArray(port.array.clone()))?;
        let slab = &self.slabs[i];
        if t.shape != slab.shape {
            return Err(ExecError::BadInput {
                array: port.array.clone(),
                reason: format!("shape {:?} != declared {:?}", t.shape, slab.shape),
            });
        }
        for (li, &v) in t.data.iter().enumerate() {
            mem[i][slab.physical(li)] = v;
        }
        Ok(())
    }

    /// Gather the logical tensor of an output array out of its slab.
    fn read_output(&self, mem: &[Vec<f64>], port: &Port) -> Result<Tensor, ExecError> {
        let i = port.slab.ok_or_else(|| ExecError::UnknownArray(port.array.clone()))?;
        let slab = &self.slabs[i];
        let len: usize = slab.shape.iter().product::<usize>().max(1);
        let data = (0..len).map(|li| mem[i][slab.physical(li)]).collect();
        Ok(Tensor { shape: slab.shape.clone(), data })
    }
}

/// Index of the first buffer declaring `array`, as [`ir::Program::buffer_of`].
fn slab_of(p: &ir::Program, array: &str) -> Option<usize> {
    p.buffers.iter().position(|b| b.holds(array))
}

impl Slab {
    fn new(b: &ir::BufferDecl) -> Self {
        // `physical_len` saturates, so an overflowing length fails this too
        let len = Some(b.physical_len()).filter(|&n| n <= MAX_SLAB);
        Slab { buffer: b.name.clone(), len, shape: b.shape(), strides: b.strides() }
    }

    /// Physical offset of the row-major logical element `li`.
    fn physical(&self, li: usize) -> usize {
        let mut rem = li;
        let mut off = 0usize;
        for d in (0..self.shape.len()).rev() {
            let ix = rem % self.shape[d];
            rem /= self.shape[d];
            off += ix * self.strides[d];
        }
        off
    }
}

/// Resolution context: the program and its buffers' slab layouts.
struct Cx<'a> {
    p: &'a ir::Program,
    slabs: &'a [Slab],
}

impl Cx<'_> {
    fn node(&self, n: &ir::Node) -> Node {
        match n {
            ir::Node::Op(op) => Node::Op { out: self.access(&op.out), expr: self.expr(&op.expr) },
            ir::Node::Scope(s) => match s.size {
                ir::ScopeSize::Const(trip) => Node::Loop {
                    trip,
                    body: s.children.iter().map(|c| self.node(c)).collect(),
                },
                _ => Node::Dynamic,
            },
        }
    }

    fn expr(&self, e: &ir::Expr) -> Expr {
        match e {
            ir::Expr::Load(a) => Expr::Load(self.access(a)),
            ir::Expr::Const(c) => Expr::Const(*c),
            ir::Expr::Index(a) => Expr::Index(a.clone()),
            ir::Expr::Unary(op, x) => Expr::Unary(*op, Box::new(self.expr(x))),
            ir::Expr::Binary(op, x, y) => {
                Expr::Binary(*op, Box::new(self.expr(x)), Box::new(self.expr(y)))
            }
        }
    }

    fn access(&self, a: &ir::Access) -> Access {
        let slab = slab_of(self.p, &a.array);
        // (strides, padded extents) when the arity matches the buffer's
        let layout = slab
            .map(|i| (&self.slabs[i].strides, &self.p.buffers[i].dims))
            .filter(|(_, dims)| dims.len() == a.indices.len());
        let dims = a
            .indices
            .iter()
            .enumerate()
            .map(|(d, ix)| Dim {
                index: match ix {
                    ir::IndexExpr::Affine(aff) => Index::Affine(aff.clone()),
                    ir::IndexExpr::Indirect(inner) => Index::Indirect(Box::new(self.access(inner))),
                },
                stride: layout.map_or(0, |(strides, _)| strides[d]),
                bound: layout.map_or(0, |(_, dims)| dims[d].pad_to),
            })
            .collect();
        Access { array: a.array.clone(), slab, dims }
    }
}

impl Expr {
    fn eval(&self, mem: &[Vec<f64>], iters: &[i64]) -> Result<f64, ExecError> {
        Ok(match self {
            Expr::Load(a) => a.read(mem, iters)?,
            Expr::Const(c) => *c,
            Expr::Index(a) => a.eval(iters) as f64,
            Expr::Unary(op, x) => op.eval(x.eval(mem, iters)?),
            Expr::Binary(op, x, y) => op.eval(x.eval(mem, iters)?, y.eval(mem, iters)?),
        })
    }
}

impl Access {
    fn read(&self, mem: &[Vec<f64>], iters: &[i64]) -> Result<f64, ExecError> {
        let (slab, off) = self.locate(mem, iters)?;
        Ok(mem[slab][off])
    }

    /// The slab and physical offset this access touches. Every index is
    /// evaluated before any bound fails, so an out-of-bounds error carries
    /// the whole index vector.
    fn locate(&self, mem: &[Vec<f64>], iters: &[i64]) -> Result<(usize, usize), ExecError> {
        let slab = self.slab.ok_or_else(|| ExecError::UnknownArray(self.array.clone()))?;
        let mut off = 0usize;
        let mut inside = true;
        for d in &self.dims {
            let v = d.index.eval(mem, iters)?;
            if v < 0 || v as usize >= d.bound {
                inside = false;
            } else {
                off += d.stride * v as usize;
            }
        }
        if !inside {
            // the same (side-effect free) evaluations again, now kept
            let indices =
                self.dims.iter().map(|d| d.index.eval(mem, iters)).collect::<Result<_, _>>()?;
            return Err(ExecError::OutOfBounds { array: self.array.clone(), indices });
        }
        Ok((slab, off))
    }
}

impl Index {
    fn eval(&self, mem: &[Vec<f64>], iters: &[i64]) -> Result<i64, ExecError> {
        match self {
            Index::Affine(a) => Ok(a.eval(iters)),
            Index::Indirect(inner) => Ok(inner.read(mem, iters)? as i64),
        }
    }
}

fn run_nodes(nodes: &[Node], mem: &mut [Vec<f64>], iters: &mut Vec<i64>) -> Result<(), ExecError> {
    for n in nodes {
        match n {
            Node::Op { out, expr } => {
                let v = expr.eval(mem, iters)?;
                let (slab, off) = out.locate(mem, iters)?;
                mem[slab][off] = v;
            }
            // All scope kinds execute sequentially: kinds (:v/:p/:g/...)
            // change *performance*, never semantics.
            Node::Loop { trip, body } => {
                let depth = iters.len();
                iters.push(0);
                for i in 0..*trip {
                    iters[depth] = i as i64;
                    run_nodes(body, mem, iters)?;
                }
                iters.pop();
            }
            Node::Dynamic => return Err(ExecError::DynamicScope),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_ir::builder::*;
    use perfdojo_ir::{BufferDecl, DType, Location, Program, ProgramBuilder};

    fn run1(p: &Program, inputs: &[(&str, Tensor)]) -> HashMap<String, Tensor> {
        let map: HashMap<String, Tensor> =
            inputs.iter().map(|(n, t)| (n.to_string(), t.clone())).collect();
        execute(p, &map).expect("exec")
    }

    #[test]
    fn elementwise_mul() {
        let mut b = ProgramBuilder::new("mul");
        b.input("x", &[2, 3]).input("y", &[2, 3]).output("z", &[2, 3]);
        b.scopes(&[2, 3], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), ld("y", &[0, 1])));
        });
        let p = b.build();
        let x = Tensor::from_vec(vec![2, 3], (1..=6).map(|v| v as f64).collect());
        let y = Tensor::fill(&[2, 3], 2.0);
        let o = run1(&p, &[("x", x), ("y", y)]);
        assert_eq!(o["z"].data, vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn rowmax_reduction() {
        let mut b = ProgramBuilder::new("rowmax");
        b.input("x", &[2, 4]).output("m", &[2]);
        b.scope(2, |b| {
            b.op(out("m", &[0]), cst(f64::NEG_INFINITY));
            b.scope(4, |b| {
                b.reduce(out("m", &[0]), BinaryOp::Max, ld("x", &[0, 1]));
            });
        });
        let p = b.build();
        let x = Tensor::from_vec(vec![2, 4], vec![1., 9., 3., 2., -5., -1., -9., -2.]);
        let o = run1(&p, &[("x", x)]);
        assert_eq!(o["m"].data, vec![9.0, -1.0]);
    }

    #[test]
    fn softmax_numerics() {
        let src = "\
kernel softmax
in x
out y
x f32 [2, 4] heap
y f32 [2, 4] heap
m f32 [2] stack
d f32 [2] stack

2 | m[{0}] = -inf
| 4 | m[{0}] = max(m[{0}], x[{0},{1}])
| d[{0}] = 0.0
| 4 | d[{0}] = (d[{0}] + exp((x[{0},{1}] - m[{0}])))
| 4 | y[{0},{1}] = (exp((x[{0},{1}] - m[{0}])) / d[{0}])
";
        let p = perfdojo_ir::parse_program(src).unwrap();
        let x = Tensor::from_vec(vec![2, 4], vec![0.0, 1.0, 2.0, 3.0, -1.0, -1.0, -1.0, -1.0]);
        let o = run1(&p, &[("x", x)]);
        let row0: f64 = o["y"].data[..4].iter().sum();
        let row1: f64 = o["y"].data[4..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-12);
        assert!((row1 - 1.0).abs() < 1e-12);
        assert!((o["y"].data[4] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn index_as_value() {
        let mut b = ProgramBuilder::new("iota");
        b.output("z", &[5]);
        b.scope(5, |b| {
            b.op(out("z", &[0]), idx(0));
        });
        let p = b.build();
        let o = run1(&p, &[]);
        assert_eq!(o["z"].data, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn broadcast_read() {
        let mut b = ProgramBuilder::new("bc");
        b.input("x", &[3]).output("z", &[3, 2]);
        b.scopes(&[3, 2], |b| {
            b.op(out("z", &[0, 1]), ld("x", &[0]));
        });
        let p = b.build();
        let o = run1(&p, &[("x", Tensor::from_vec(vec![3], vec![7., 8., 9.]))]);
        assert_eq!(o["z"].data, vec![7., 7., 8., 8., 9., 9.]);
    }

    #[test]
    fn reused_dim_aliases() {
        // t has a :N dim: every column writes the same physical element, so
        // after the row loop t[i, *] holds the *last* value written.
        let mut b = ProgramBuilder::new("reuse");
        let mut t = BufferDecl::new("t", DType::F32, &[2, 3], Location::Stack);
        t.dims[1].materialized = false;
        b.input("x", &[2, 3]).buffer(t).output("z", &[2]);
        b.scope(2, |b| {
            b.scope(3, |b| {
                b.op(out("t", &[0, 1]), ld("x", &[0, 1]));
            });
            b.op(
                out("z", &[0]),
                ld_at("t", vec![perfdojo_ir::Affine::var(0), perfdojo_ir::Affine::cst(2)]),
            );
        });
        let p = b.build();
        let x = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let o = run1(&p, &[("x", x)]);
        assert_eq!(o["z"].data, vec![3.0, 6.0]);
    }

    #[test]
    fn padding_pollutes_only_padding() {
        let mut b = ProgramBuilder::new("pad");
        let mut z = BufferDecl::new("z", DType::F32, &[3], Location::Heap);
        z.dims[0].pad_to = 4;
        b.input("x", &[3]).buffer(z).output_existing("z");
        b.scope(3, |b| {
            b.op(out("z", &[0]), un(UnaryOp::Relu, ld("x", &[0])));
        });
        let p = b.build();
        let o = run1(&p, &[("x", Tensor::from_vec(vec![3], vec![-1., 2., -3.]))]);
        assert_eq!(o["z"].data, vec![0.0, 2.0, 0.0]);
        assert_eq!(o["z"].shape, vec![3]);
    }

    #[test]
    fn missing_input_rejected() {
        let mut b = ProgramBuilder::new("m");
        b.input("x", &[2]).output("z", &[2]);
        b.scope(2, |b| {
            b.op(out("z", &[0]), ld("x", &[0]));
        });
        let p = b.build();
        assert!(matches!(execute(&p, &HashMap::new()), Err(ExecError::BadInput { .. })));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut b = ProgramBuilder::new("oob");
        b.input("x", &[2]).output("z", &[2]);
        b.scope(3, |b| {
            b.op(out("z", &[0]), ld("x", &[0]));
        });
        let p = b.build(); // not validated on purpose
        let x = Tensor::fill(&[2], 1.0);
        let mut m = HashMap::new();
        m.insert("x".to_string(), x);
        let err = ExecError::OutOfBounds { array: "x".into(), indices: vec![2] };
        assert_eq!(execute(&p, &m), Err(err));
    }

    #[test]
    fn overflowing_buffer_is_an_error_not_a_short_slab() {
        // 2^32 * 2^32 elements wrap a 64-bit length to 0
        let mut b = ProgramBuilder::new("huge");
        b.input("x", &[2]).output("z", &[2]);
        b.temp("t", &[1 << 32, 1 << 32], Location::Heap);
        b.scope(2, |b| {
            b.op(out("z", &[0]), ld("x", &[0]));
        });
        let p = b.build();
        let mut m = HashMap::new();
        m.insert("x".to_string(), Tensor::fill(&[2], 1.0));
        assert!(matches!(execute(&p, &m), Err(ExecError::BadInput { array, .. }) if array == "t"));
    }

    #[test]
    fn indirection_executes_even_though_excluded() {
        // The interpreter supports Table 2's indirection row so the feature
        // demo runs; validation (not the interpreter) is what excludes it.
        let src = "\
kernel gather
in x idxs
out z
x f32 [4] heap
idxs f32 [2] heap
z f32 [2] heap

2 | z[{0}] = x[idxs[{0}]]
";
        let p = perfdojo_ir::parse_program(src).unwrap();
        let mut m = HashMap::new();
        m.insert("x".to_string(), Tensor::from_vec(vec![4], vec![10., 11., 12., 13.]));
        m.insert("idxs".to_string(), Tensor::from_vec(vec![2], vec![3.0, 1.0]));
        let o = execute(&p, &m).unwrap();
        assert_eq!(o["z"].data, vec![13.0, 11.0]);
    }
}
