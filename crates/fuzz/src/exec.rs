//! Executor for the lowered virtual ISA.
//!
//! [`perfdojo_codegen::lower`] mirrors the IR tree 1:1 (every `Scope`
//! becomes a `Loop`, every op a `Stmt` with pre-resolved strided addresses),
//! so the lowering can be *executed* by pair-walking the IR tree (for
//! expression structure) and the lowered tree (for addresses) together.
//! Values are read and written through [`AffineAddr`]s — folded buffer
//! strides plus offset — rather than through logical index math, so a bug in
//! address folding, stride-0 reuse handling, or padding layout shows up as a
//! differential against the reference interpreter, which must otherwise be
//! **bit-exact** (same evaluation order over the same f64 slabs).

use perfdojo_codegen::{AffineAddr, Loop, Lowered, LoweredKernel, Stmt};
use perfdojo_interp::Tensor;
use perfdojo_ir::{Expr, Node, Program};
use std::collections::HashMap;

struct Slabs {
    mem: HashMap<String, Vec<f64>>,
}

impl Slabs {
    fn addr(&self, buffer: &str, a: &AffineAddr, iters: &[i64]) -> Result<usize, String> {
        let mut off = a.offset;
        for &(depth, stride) in &a.strides {
            let it = *iters
                .get(depth)
                .ok_or_else(|| format!("address references depth {depth} outside nest"))?;
            off += stride * it;
        }
        let len = self.mem.get(buffer).map(|s| s.len()).unwrap_or(0);
        if off < 0 || off as usize >= len {
            return Err(format!("address {off} out of bounds for buffer '{buffer}' (len {len})"));
        }
        Ok(off as usize)
    }

    fn read(&self, buffer: &str, a: &AffineAddr, iters: &[i64]) -> Result<f64, String> {
        let off = self.addr(buffer, a, iters)?;
        Ok(self.mem[buffer][off])
    }

    fn write(&mut self, buffer: &str, a: &AffineAddr, iters: &[i64], v: f64) -> Result<(), String> {
        let off = self.addr(buffer, a, iters)?;
        *self
            .mem
            .get_mut(buffer)
            .ok_or_else(|| format!("unknown buffer '{buffer}'"))?
            .get_mut(off)
            .unwrap() = v;
        Ok(())
    }
}

/// Execute the lowered kernel `k` of program `p` on `inputs`, returning the
/// program's output tensors. `p` supplies expression structure and logical
/// input/output layouts; every element access goes through `k`'s addresses.
pub fn execute_lowered(
    p: &Program,
    k: &LoweredKernel,
    inputs: &HashMap<String, Tensor>,
) -> Result<HashMap<String, Tensor>, String> {
    // NaN-poisoned slabs sized from the lowered buffer table, so unwritten
    // elements (padding, dead lanes a bad transform creates) are observable.
    let mut slabs = Slabs { mem: HashMap::new() };
    for info in &k.buffers {
        let elems = info.bytes / info.dtype.bytes();
        slabs.mem.insert(info.name.clone(), vec![f64::NAN; elems.max(1)]);
    }

    // Inputs enter through the IR-side logical layout (same convention the
    // interpreter uses); the lowered addresses must agree with it.
    for name in &p.inputs {
        let t = inputs.get(name).ok_or_else(|| format!("missing input '{name}'"))?;
        let buf = p.buffer_of(name).ok_or_else(|| format!("undeclared input '{name}'"))?;
        if t.shape != buf.shape() {
            return Err(format!("input '{name}' shape {:?} != {:?}", t.shape, buf.shape()));
        }
        let strides = buf.strides();
        let shape = buf.shape();
        let slab = slabs
            .mem
            .get_mut(&buf.name)
            .ok_or_else(|| format!("buffer '{}' missing from lowered table", buf.name))?;
        for (li, &v) in t.data.iter().enumerate() {
            let mut rem = li;
            let mut off = 0usize;
            for d in (0..shape.len()).rev() {
                off += (rem % shape[d]) * strides[d];
                rem /= shape[d];
            }
            slab[off] = v;
        }
    }

    if p.roots.len() != k.body.len() {
        return Err(format!(
            "lowered root count {} != IR root count {}",
            k.body.len(),
            p.roots.len()
        ));
    }
    let mut iters: Vec<i64> = Vec::new();
    for (n, l) in p.roots.iter().zip(&k.body) {
        exec_pair(n, l, &mut slabs, &mut iters)?;
    }

    let mut out = HashMap::new();
    for name in &p.outputs {
        let buf = p.buffer_of(name).ok_or_else(|| format!("undeclared output '{name}'"))?;
        let strides = buf.strides();
        let shape = buf.shape();
        let slab = &slabs.mem[&buf.name];
        let len: usize = shape.iter().product::<usize>().max(1);
        let mut data = vec![0.0; len];
        for (li, slot) in data.iter_mut().enumerate() {
            let mut rem = li;
            let mut off = 0usize;
            for d in (0..shape.len()).rev() {
                off += (rem % shape[d]) * strides[d];
                rem /= shape[d];
            }
            *slot = slab[off];
        }
        out.insert(name.clone(), Tensor { shape, data });
    }
    Ok(out)
}

fn exec_pair(node: &Node, low: &Lowered, slabs: &mut Slabs, iters: &mut Vec<i64>) -> Result<(), String> {
    match (node, low) {
        (Node::Scope(s), Lowered::Loop(l)) => exec_loop(s, l, slabs, iters),
        (Node::Op(op), Lowered::Stmt(st)) => exec_stmt(&op.expr, st, slabs, iters),
        (n, l) => Err(format!("tree shape mismatch: IR {n:?} lowered to {l:?}")),
    }
}

fn exec_loop(
    s: &perfdojo_ir::Scope,
    l: &Loop,
    slabs: &mut Slabs,
    iters: &mut Vec<i64>,
) -> Result<(), String> {
    let trip = s.trip();
    if trip != l.trip {
        return Err(format!("loop trip {} != scope trip {trip}", l.trip));
    }
    if s.children.len() != l.body.len() {
        return Err(format!(
            "loop body length {} != scope child count {}",
            l.body.len(),
            s.children.len()
        ));
    }
    // Every loop kind executes sequentially: vector/parallel/unroll change
    // performance, never semantics.
    iters.push(0);
    for i in 0..trip {
        *iters.last_mut().unwrap() = i as i64;
        for (c, b) in s.children.iter().zip(&l.body) {
            exec_pair(c, b, slabs, iters)?;
        }
    }
    iters.pop();
    Ok(())
}

fn exec_stmt(expr: &Expr, st: &Stmt, slabs: &mut Slabs, iters: &[i64]) -> Result<(), String> {
    // Stmt.loads is built from `op.reads()`, which is `expr.accesses()` in
    // visit order — so consuming loads left-to-right during evaluation
    // pairs each Load leaf with its pre-resolved address.
    let mut values = Vec::with_capacity(st.loads.len());
    for m in &st.loads {
        values.push(slabs.read(&m.buffer, &m.addr, iters)?);
    }
    let mut next = 0usize;
    let v = eval(expr, &values, &mut next, iters)?;
    if next != values.len() {
        return Err(format!("expression consumed {next} of {} loads", values.len()));
    }
    slabs.write(&st.store.buffer, &st.store.addr, iters, v)
}

fn eval(e: &Expr, loads: &[f64], next: &mut usize, iters: &[i64]) -> Result<f64, String> {
    Ok(match e {
        Expr::Load(_) => {
            let v = *loads.get(*next).ok_or("more Load leaves than lowered loads")?;
            *next += 1;
            v
        }
        Expr::Const(c) => *c,
        Expr::Index(a) => a.eval(iters) as f64,
        Expr::Unary(op, x) => op.eval(eval(x, loads, next, iters)?),
        Expr::Binary(op, x, y) => {
            let xv = eval(x, loads, next, iters)?;
            let yv = eval(y, loads, next, iters)?;
            op.eval(xv, yv)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_codegen::lower;
    use perfdojo_interp::{execute, first_mismatch, random_inputs};
    use perfdojo_ir::parse_program;

    fn roundtrip(src: &str, seed: u64) {
        let p = parse_program(src).expect("parse");
        let k = lower(&p).expect("lower");
        let inputs = random_inputs(&p, seed);
        let interp = execute(&p, &inputs).expect("interp");
        let lowered = execute_lowered(&p, &k, &inputs).expect("lowered exec");
        for (name, r) in &interp {
            let m = first_mismatch(r, &lowered[name], true);
            assert_eq!(m, None, "'{name}' diverged (bit-exact policy)");
        }
    }

    #[test]
    fn matches_interpreter_on_strided_matmul() {
        roundtrip(
            "\
kernel mm
in a b
out c
a f32 [4, 3] heap
b f32 [3, 5] heap
c f32 [4, 5] heap

4 | 5 | c[{0},{1}] = 0.0
| | 3 | c[{0},{1}] = (c[{0},{1}] + (a[{0},{2}] * b[{2},{1}]))
",
            1,
        );
    }

    #[test]
    fn matches_interpreter_through_reuse_and_padding() {
        roundtrip(
            "\
kernel fused
in x
out z
x f32 [4, 6] heap
t f32 [4, 6:N] stack
z f32 [4, 6^8] heap

4 | 6 | t[{0},{1}] = exp(x[{0},{1}])
| | z[{0},{1}] = (t[{0},{1}] * 2.0)
",
            2,
        );
    }

    #[test]
    fn matches_interpreter_on_reversed_index() {
        roundtrip(
            "\
kernel rev
in x
out z
x f32 [5] heap
z f32 [5] heap

5 | z[{0}] = x[4 - {0}]
",
            3,
        );
    }

    #[test]
    fn rejects_out_of_nest_address() {
        // An address referencing a depth deeper than the nest is an executor
        // error, not a silent wrong answer.
        let p = parse_program(
            "\
kernel ok
in x
out z
x f32 [2] heap
z f32 [2] heap

2 | z[{0}] = x[{0}]
",
        )
        .unwrap();
        let mut k = lower(&p).unwrap();
        if let Lowered::Loop(l) = &mut k.body[0] {
            if let Lowered::Stmt(st) = &mut l.body[0] {
                st.loads[0].addr.strides = vec![(7, 1)];
            }
        }
        let inputs = random_inputs(&p, 0);
        assert!(execute_lowered(&p, &k, &inputs).is_err());
    }
}
