//! A/B oracle for the reference interpreter: `perfdojo_interp::execute`
//! (which resolves a program once, then runs its loop nest) must agree with
//! the plain tree-walking interpreter it replaced, kept below as test-only
//! code, bit for bit on every output and exactly on every `ExecError`.
//!
//! Cases: every kernel-suite program, naive and after the x86 heuristic
//! pass; seeded fuzz programs along random transformation walks; and the
//! padded, `:N`-reuse, indirect, out-of-bounds, unknown-array, dynamic-scope
//! and bad-input corner cases.

use perfdojo::prelude::*;
use perfdojo_fuzz::{gen_program, library_by_name, GenConfig};
use perfdojo_interp::ExecError;
use perfdojo_ir::builder::*;
use perfdojo_ir::{Affine, BufferDecl, DType, Location, Node, ScopeSize, UnaryOp};
use perfdojo_util::rng::Rng;
use std::collections::{BTreeMap, HashMap};

/// The tree-walking interpreter: every access looks its buffer up by name
/// and builds its index vector as it executes.
mod oracle {
    use perfdojo_interp::{ExecError, Tensor};
    use perfdojo_ir::{Access, Expr, IndexExpr, Node, Program, ScopeSize};
    use std::collections::HashMap;

    /// Physical memory image of a program: one flat `f64` slab per buffer.
    pub struct Memory {
        slabs: HashMap<String, Vec<f64>>,
    }

    impl Memory {
        /// Allocate all buffers, poisoned with NaN so reads of unwritten
        /// elements (including padding) are observable.
        pub fn allocate(p: &Program) -> Self {
            let mut slabs = HashMap::new();
            for b in &p.buffers {
                slabs.insert(b.name.clone(), vec![f64::NAN; b.physical_len()]);
            }
            Memory { slabs }
        }

        /// Copy a logical tensor into the (strided, possibly padded) buffer
        /// holding `array`.
        pub fn load_input(&mut self, p: &Program, array: &str, t: &Tensor) -> Result<(), ExecError> {
            let buf = p
                .buffer_of(array)
                .ok_or_else(|| ExecError::UnknownArray(array.to_string()))?;
            if t.shape != buf.shape() {
                return Err(ExecError::BadInput {
                    array: array.to_string(),
                    reason: format!("shape {:?} != declared {:?}", t.shape, buf.shape()),
                });
            }
            let slab = self.slabs.get_mut(&buf.name).unwrap();
            let strides = buf.strides();
            let shape = buf.shape();
            for (li, &v) in t.data.iter().enumerate() {
                let mut rem = li;
                let mut off = 0usize;
                for d in (0..shape.len()).rev() {
                    let ix = rem % shape[d];
                    rem /= shape[d];
                    off += ix * strides[d];
                }
                slab[off] = v;
            }
            Ok(())
        }

        /// Gather the logical tensor of `array` out of its buffer.
        pub fn read_output(&self, p: &Program, array: &str) -> Result<Tensor, ExecError> {
            let buf = p
                .buffer_of(array)
                .ok_or_else(|| ExecError::UnknownArray(array.to_string()))?;
            let slab = &self.slabs[&buf.name];
            let strides = buf.strides();
            let shape = buf.shape();
            let len: usize = shape.iter().product::<usize>().max(1);
            let mut data = vec![0.0; len];
            for (li, slot) in data.iter_mut().enumerate() {
                let mut rem = li;
                let mut off = 0usize;
                for d in (0..shape.len()).rev() {
                    let ix = rem % shape[d];
                    rem /= shape[d];
                    off += ix * strides[d];
                }
                *slot = slab[off];
            }
            Ok(Tensor { shape, data })
        }

        fn read(&self, p: &Program, acc: &Access, iters: &[i64]) -> Result<f64, ExecError> {
            let off = self.offset(p, acc, iters)?;
            Ok(self.slabs[&p.buffer_of(&acc.array).unwrap().name][off])
        }

        fn write(&mut self, p: &Program, acc: &Access, iters: &[i64], v: f64) -> Result<(), ExecError> {
            let off = self.offset(p, acc, iters)?;
            let name = p.buffer_of(&acc.array).unwrap().name.clone();
            self.slabs.get_mut(&name).unwrap()[off] = v;
            Ok(())
        }

        fn offset(&self, p: &Program, acc: &Access, iters: &[i64]) -> Result<usize, ExecError> {
            let buf = p
                .buffer_of(&acc.array)
                .ok_or_else(|| ExecError::UnknownArray(acc.array.clone()))?;
            let mut idx = Vec::with_capacity(acc.indices.len());
            for ix in &acc.indices {
                let v = match ix {
                    IndexExpr::Affine(a) => a.eval(iters),
                    IndexExpr::Indirect(inner) => self.read(p, inner, iters)? as i64,
                };
                idx.push(v);
            }
            buf.flat_index(&idx)
                .ok_or_else(|| ExecError::OutOfBounds { array: acc.array.clone(), indices: idx })
        }
    }

    /// Execute `p` on the given inputs, returning its output tensors keyed by
    /// array name.
    pub fn execute(
        p: &Program,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<HashMap<String, Tensor>, ExecError> {
        let mut mem = Memory::allocate(p);
        for name in &p.inputs {
            let t = inputs.get(name).ok_or_else(|| ExecError::BadInput {
                array: name.clone(),
                reason: "missing".into(),
            })?;
            mem.load_input(p, name, t)?;
        }
        let mut iters: Vec<i64> = Vec::new();
        for n in &p.roots {
            exec_node(p, n, &mut mem, &mut iters)?;
        }
        let mut out = HashMap::new();
        for name in &p.outputs {
            out.insert(name.clone(), mem.read_output(p, name)?);
        }
        Ok(out)
    }

    fn exec_node(
        p: &Program,
        node: &Node,
        mem: &mut Memory,
        iters: &mut Vec<i64>,
    ) -> Result<(), ExecError> {
        match node {
            Node::Op(op) => {
                let v = eval(p, &op.expr, mem, iters)?;
                mem.write(p, &op.out, iters, v)
            }
            Node::Scope(s) => {
                let trip = match &s.size {
                    ScopeSize::Const(n) => *n,
                    _ => return Err(ExecError::DynamicScope),
                };
                // All scope kinds execute sequentially: kinds (:v/:p/:g/...)
                // change *performance*, never semantics.
                iters.push(0);
                for i in 0..trip {
                    *iters.last_mut().unwrap() = i as i64;
                    for c in s.children.iter() {
                        exec_node(p, c, mem, iters)?;
                    }
                }
                iters.pop();
                Ok(())
            }
        }
    }

    fn eval(p: &Program, e: &Expr, mem: &Memory, iters: &[i64]) -> Result<f64, ExecError> {
        Ok(match e {
            Expr::Load(a) => mem.read(p, a, iters)?,
            Expr::Const(c) => *c,
            Expr::Index(a) => a.eval(iters) as f64,
            Expr::Unary(op, x) => op.eval(eval(p, x, mem, iters)?),
            Expr::Binary(op, x, y) => op.eval(eval(p, x, mem, iters)?, eval(p, y, mem, iters)?),
        })
    }
}

type Bits = BTreeMap<String, (Vec<usize>, Vec<u64>)>;

/// Outputs as exact bit patterns (NaN payloads included), in name order.
fn bits(r: Result<HashMap<String, Tensor>, ExecError>) -> Result<Bits, ExecError> {
    r.map(|out| {
        out.into_iter()
            .map(|(name, t)| (name, (t.shape, t.data.iter().map(|v| v.to_bits()).collect())))
            .collect()
    })
}

/// Run both interpreters on `inputs`; they must agree exactly.
fn assert_agree(
    label: &str,
    p: &Program,
    inputs: &HashMap<String, Tensor>,
) -> Result<Bits, ExecError> {
    let new = bits(execute(p, inputs));
    let old = bits(oracle::execute(p, inputs));
    assert_eq!(new, old, "{label}: resolve-once interpreter disagrees with the tree walker");
    new
}

fn assert_agree_on_random(label: &str, p: &Program, seed: u64) -> Result<Bits, ExecError> {
    assert_agree(label, p, &random_inputs(p, seed))
}

#[test]
fn every_suite_kernel_agrees_naive_and_heuristic_tuned() {
    let target = Target::x86();
    let suites = [
        perfdojo::kernels::tune_suite(),
        perfdojo::kernels::small_suite(),
        perfdojo::kernels::micro_suite(),
    ];
    let mut checked = 0;
    for k in suites.into_iter().flatten() {
        let naive = assert_agree_on_random(&k.label, &k.program, 42);
        assert!(naive.is_ok(), "{}: {naive:?}", k.label);
        let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
        perfdojo::search::heuristic_pass(&mut d);
        let tuned = assert_agree_on_random(&format!("{} tuned", k.label), d.current(), 42);
        assert!(tuned.is_ok(), "{} tuned: {tuned:?}", k.label);
        checked += 2;
    }
    assert!(checked >= 2 * 16, "suites shrank to {checked} programs");
}

#[test]
fn fuzz_programs_agree_along_transformation_walks() {
    let cfg = GenConfig::default();
    let mut steps = 0;
    for (i, lib) in ["cpu", "gpu", "snitch"].into_iter().enumerate() {
        let lib = library_by_name(lib).unwrap();
        for seed in 0..24u64 {
            let seed = seed + 1000 * i as u64;
            let mut rng = Rng::seed_from_u64(seed);
            let mut cur = gen_program(&mut rng, &cfg, &format!("f{seed}"));
            let inputs = random_inputs(&cur, seed);
            for step in 0..8 {
                let out = assert_agree(&format!("seed {seed} step {step}"), &cur, &inputs);
                assert!(out.is_ok(), "seed {seed} step {step}: {out:?}");
                steps += 1;
                let actions = available_actions(&cur, &lib);
                let Some(a) = rng.choose(&actions) else { break };
                cur = a.apply(&cur).unwrap();
            }
        }
    }
    assert!(steps > 200, "walks too short: {steps} programs");
}

fn inputs(pairs: &[(&str, Tensor)]) -> HashMap<String, Tensor> {
    pairs.iter().map(|(n, t)| (n.to_string(), t.clone())).collect()
}

#[test]
fn padded_buffers_agree_including_poisoned_padding() {
    let mut b = ProgramBuilder::new("pad");
    let mut z = BufferDecl::new("z", DType::F32, &[3], Location::Heap);
    z.dims[0].pad_to = 4;
    b.input("x", &[3]).buffer(z).output_existing("z");
    b.scope(3, |b| {
        b.op(out("z", &[0]), un(UnaryOp::Relu, ld("x", &[0])));
    });
    let p = b.build();
    let x = Tensor::from_vec(vec![3], vec![-1., 2., -3.]);
    assert!(assert_agree("pad", &p, &inputs(&[("x", x.clone())])).is_ok());

    // reading the never-written padding element yields the NaN poison
    let mut b = ProgramBuilder::new("pad-read");
    let mut t = BufferDecl::new("t", DType::F32, &[3], Location::Stack);
    t.dims[0].pad_to = 4;
    b.input("x", &[3]).buffer(t).output("z", &[3]);
    b.scope(3, |b| {
        b.op(out("t", &[0]), ld("x", &[0]));
    });
    b.scope(3, |b| {
        b.op(out_at("z", vec![Affine::var(0)]), ld_at("t", vec![Affine::scaled(0, 1, 1)]));
    });
    let p = b.build();
    let got = assert_agree("pad-read", &p, &inputs(&[("x", x)])).unwrap();
    assert!(f64::from_bits(got["z"].1[2]).is_nan());
}

#[test]
fn reused_dims_agree() {
    let mut b = ProgramBuilder::new("reuse");
    let mut t = BufferDecl::new("t", DType::F32, &[2, 3], Location::Stack);
    t.dims[1].materialized = false;
    b.input("x", &[2, 3]).buffer(t).output("z", &[2]);
    b.scope(2, |b| {
        b.scope(3, |b| {
            b.op(out("t", &[0, 1]), ld("x", &[0, 1]));
        });
        b.op(out("z", &[0]), ld_at("t", vec![Affine::var(0), Affine::cst(2)]));
    });
    let p = b.build();
    let x = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
    assert!(assert_agree("reuse", &p, &inputs(&[("x", x)])).is_ok());
}

const GATHER: &str = "\
kernel gather
in x idxs
out z
x f32 [4] heap
idxs f32 [2] heap
z f32 [2] heap

2 | z[{0}] = x[idxs[{0}]]
";

#[test]
fn indirect_accesses_agree_in_and_out_of_bounds() {
    let p = parse_program(GATHER).unwrap();
    let x = Tensor::from_vec(vec![4], vec![10., 11., 12., 13.]);
    let ok = inputs(&[("x", x.clone()), ("idxs", Tensor::from_vec(vec![2], vec![3.0, 1.0]))]);
    assert!(assert_agree("gather", &p, &ok).is_ok());
    let oob = inputs(&[("x", x), ("idxs", Tensor::from_vec(vec![2], vec![1.0, 7.0]))]);
    let err = ExecError::OutOfBounds { array: "x".into(), indices: vec![7] };
    assert_eq!(assert_agree("gather oob", &p, &oob), Err(err));
}

#[test]
fn out_of_bounds_errors_agree_with_every_index() {
    // past the trip count of the input
    let mut b = ProgramBuilder::new("oob");
    b.input("x", &[2]).output("z", &[2]);
    b.scope(3, |b| {
        b.op(out("z", &[0]), ld("x", &[0]));
    });
    let p = b.build();
    let x = inputs(&[("x", Tensor::fill(&[2], 1.0))]);
    assert!(matches!(assert_agree("oob", &p, &x), Err(ExecError::OutOfBounds { .. })));

    // inside the slab, past one dimension's padded extent; and a wrong arity
    for indices in [vec![Affine::cst(2), Affine::cst(5)], vec![Affine::cst(1)]] {
        let mut b = ProgramBuilder::new("oob2");
        b.output("z", &[4, 4]);
        b.op(out_at("z", indices), cst(1.0));
        let p = b.build();
        assert!(matches!(
            assert_agree("oob2", &p, &HashMap::new()),
            Err(ExecError::OutOfBounds { .. })
        ));
    }
}

const LATE: &str = "\
kernel late
in x
out z
x f32 [2] heap
z f32 [2] heap

2 | z[{0}] = x[{0}]
2 | z[{0}] = (z[{0}] + nope[{0}])
";

#[test]
fn unknown_arrays_and_dynamic_scopes_agree() {
    let p = parse_program(LATE).unwrap();
    let x = inputs(&[("x", Tensor::fill(&[2], 1.0))]);
    assert_eq!(
        assert_agree("unknown", &p, &x),
        Err(ExecError::UnknownArray("nope".into()))
    );

    // an undeclared output array is an error only after the nest ran
    let mut q = p.clone();
    q.roots.truncate(1);
    q.outputs.push("ghost".into());
    assert_eq!(
        assert_agree("ghost", &q, &x),
        Err(ExecError::UnknownArray("ghost".into()))
    );

    let mut q = p.clone();
    q.roots.truncate(1);
    let mut dynamic = q.roots[0].as_scope().unwrap().clone();
    dynamic.size = ScopeSize::While(perfdojo_ir::Access::vars("x", &[]));
    q.roots.push(Node::Scope(dynamic));
    assert_eq!(assert_agree("dynamic", &q, &x), Err(ExecError::DynamicScope));
}

#[test]
fn bad_inputs_agree() {
    let p = parse_program(GATHER).unwrap();
    let x = Tensor::from_vec(vec![4], vec![10., 11., 12., 13.]);
    let missing = inputs(&[("x", x.clone())]);
    assert!(matches!(
        assert_agree("missing", &p, &missing),
        Err(ExecError::BadInput { .. })
    ));
    let misshaped = inputs(&[("x", x), ("idxs", Tensor::fill(&[3], 0.0))]);
    assert!(matches!(
        assert_agree("misshaped", &p, &misshaped),
        Err(ExecError::BadInput { .. })
    ));
}
