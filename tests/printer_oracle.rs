//! A/B oracle for the textual printer: the streaming writer behind
//! `print_program`, `structure_text` and `structure_hash` must reproduce
//! the printer it replaced, kept below as test-only code, byte for byte.
//! The old printer built each tree line as a `String` and joined them;
//! the old fingerprint cloned the program, blanked its name, sizes, trip
//! counts and constants, printed the clone and hashed the text with
//! FNV-1a. Every library key, graph fingerprint and saved library depends
//! on those bytes, so the new printer may change none of them.
//!
//! Cases: every kernel-suite program (paper, tune, small, micro; program
//! and verify program), each heuristic-pass state of the suite programs
//! on x86, gh200 and snitch, 2000 seeded fuzz programs, and hand-built
//! corners: empty scopes as first, later and nested children, data-dependent
//! and `while` sizes, `:N` dims, padding, array aliases, non-finite and
//! signed-zero constants, indirect indices, several roots and non-ASCII
//! names under bars.

use perfdojo::prelude::*;
use perfdojo_fuzz::{gen_program, GenConfig};
use perfdojo_ir::builder::*;
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_ir::text::{print_program, print_tree};
use perfdojo_ir::{
    structure_hash, structure_text, Access, Affine, BinaryOp, BufferDecl, DType, IndexExpr,
    Location, Node, OpNode, Scope, ScopeKind, ScopeSize, UnaryOp,
};
use perfdojo_util::rng::Rng;

/// The printer and fingerprint text as they were before the streaming
/// writer: every item rendered to its own `String`, each tree line
/// accumulated in a prefix and pushed to a line vector, and the structure
/// text printed from a normalized clone.
mod oracle {
    use perfdojo_ir::{
        Access, Affine, BinaryOp, BufferDecl, Expr, IndexExpr, Node, Program, Scope, ScopeSize,
        UnaryOp,
    };

    fn affine(a: &Affine) -> String {
        let mut f = String::new();
        let mut first = true;
        for &(d, c) in &a.terms {
            if first {
                if c == 1 {
                    f += &format!("{{{d}}}");
                } else if c == -1 {
                    f += &format!("-{{{d}}}");
                } else {
                    f += &format!("{c}*{{{d}}}");
                }
                first = false;
            } else if c == 1 {
                f += &format!("+{{{d}}}");
            } else if c == -1 {
                f += &format!("-{{{d}}}");
            } else if c > 0 {
                f += &format!("+{c}*{{{d}}}");
            } else {
                f += &format!("{c}*{{{d}}}");
            }
        }
        if first {
            f += &format!("{}", a.offset);
        } else if a.offset > 0 {
            f += &format!("+{}", a.offset);
        } else if a.offset < 0 {
            f += &format!("{}", a.offset);
        }
        f
    }

    fn access(a: &Access) -> String {
        let indices: Vec<String> = a
            .indices
            .iter()
            .map(|ix| match ix {
                IndexExpr::Affine(af) => affine(af),
                IndexExpr::Indirect(inner) => access(inner),
            })
            .collect();
        format!("{}[{}]", a.array, indices.join(","))
    }

    fn expr(e: &Expr) -> String {
        match e {
            Expr::Load(a) => access(a),
            Expr::Const(c) => {
                if *c == f64::NEG_INFINITY {
                    "-inf".to_string()
                } else if *c == f64::INFINITY {
                    "inf".to_string()
                } else {
                    format!("{c:?}")
                }
            }
            Expr::Index(a) => format!("({})", affine(a)),
            Expr::Unary(UnaryOp::Neg, x) => format!("neg({})", expr(x)),
            Expr::Unary(op, x) => format!("{}({})", op.name(), expr(x)),
            Expr::Binary(op @ (BinaryOp::Max | BinaryOp::Min), x, y) => {
                format!("{}({}, {})", op.name(), expr(x), expr(y))
            }
            Expr::Binary(op, x, y) => format!("({} {} {})", expr(x), op.name(), expr(y)),
        }
    }

    fn buffer(b: &BufferDecl) -> String {
        let mut f = format!("{} {} [", b.name, b.dtype.name());
        for (i, d) in b.dims.iter().enumerate() {
            if i > 0 {
                f += ", ";
            }
            f += &format!("{}", d.size);
            if d.pad_to != d.size {
                f += &format!("^{}", d.pad_to);
            }
            if !d.materialized {
                f += ":N";
            }
        }
        f += &format!("] {}", b.location.name());
        if !b.arrays.is_empty() {
            f += &format!(" -> {}", b.arrays.join(", "));
        }
        f
    }

    fn header(s: &Scope) -> String {
        let mut h = match &s.size {
            ScopeSize::Const(n) => n.to_string(),
            ScopeSize::DataDep(a) => access(a),
            ScopeSize::While(a) => format!("while {}", access(a)),
        };
        h.push_str(s.kind.suffix());
        if s.ssr {
            h.push_str(":s");
        }
        if s.frep {
            h.push_str(":f");
        }
        h
    }

    pub fn print_program(p: &Program) -> String {
        let mut out = String::new();
        out.push_str(&format!("kernel {}\n", p.name));
        if !p.inputs.is_empty() {
            out.push_str(&format!("in {}\n", p.inputs.join(" ")));
        }
        if !p.outputs.is_empty() {
            out.push_str(&format!("out {}\n", p.outputs.join(" ")));
        }
        for b in &p.buffers {
            out.push_str(&buffer(b));
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&print_tree(&p.roots));
        out
    }

    pub fn print_tree(roots: &[Node]) -> String {
        let mut lines: Vec<String> = Vec::new();
        let mut open_cols: Vec<usize> = Vec::new();
        for n in roots {
            print_node(n, &mut lines, &mut open_cols, &mut String::new());
        }
        let mut s = lines.join("\n");
        if !s.is_empty() {
            s.push('\n');
        }
        s
    }

    fn print_node(
        node: &Node,
        lines: &mut Vec<String>,
        open_cols: &mut Vec<usize>,
        prefix: &mut String,
    ) {
        match node {
            Node::Op(op) => {
                lines.push(format!("{prefix}{} = {}", access(&op.out), expr(&op.expr)));
            }
            Node::Scope(s) => {
                let col = prefix.chars().count();
                let header = header(s);
                prefix.push_str(&header);
                prefix.push_str(" | ");
                open_cols.push(col);
                for (i, c) in s.children.iter().enumerate() {
                    if i == 0 {
                        print_node(c, lines, open_cols, prefix);
                    } else {
                        let mut np = String::new();
                        for &c0 in open_cols.iter() {
                            while np.chars().count() < c0 {
                                np.push(' ');
                            }
                            np.push_str("| ");
                        }
                        print_node(c, lines, open_cols, &mut np);
                    }
                }
                open_cols.pop();
                prefix.truncate(prefix.len() - header.len() - 3);
            }
        }
    }

    pub fn structure_text(p: &Program) -> String {
        let mut q = p.clone();
        q.name = "_".into();
        for b in &mut q.buffers {
            for d in &mut b.dims {
                d.size = 0;
                d.pad_to = 0;
            }
        }
        for n in &mut q.roots {
            normalize_node(n);
        }
        print_program(&q)
    }

    fn normalize_node(n: &mut Node) {
        match n {
            Node::Scope(s) => {
                if let ScopeSize::Const(_) = s.size {
                    s.size = ScopeSize::Const(0);
                }
                for c in s.children_mut() {
                    normalize_node(c);
                }
            }
            Node::Op(op) => normalize_expr(&mut op.expr),
        }
    }

    fn normalize_expr(e: &mut Expr) {
        match e {
            Expr::Const(c) => *c = 0.0,
            Expr::Unary(_, a) => normalize_expr(a),
            Expr::Binary(_, a, b) => {
                normalize_expr(a);
                normalize_expr(b);
            }
            Expr::Load(_) | Expr::Index(_) => {}
        }
    }
}

/// Every printer entry point must match the old printer on `p`.
fn assert_same(label: &str, p: &Program) {
    let exact = oracle::print_program(p);
    assert_eq!(print_program(p), exact, "{label}: print_program drifted");
    assert_eq!(p.to_string(), exact, "{label}: Program's Display drifted");
    assert_eq!(
        print_tree(&p.roots),
        oracle::print_tree(&p.roots),
        "{label}: print_tree drifted"
    );
    let structure = oracle::structure_text(p);
    assert_eq!(
        structure_text(p),
        structure,
        "{label}: structure_text drifted"
    );
    assert_eq!(
        structure_hash(p),
        fnv1a(structure.as_bytes()),
        "{label}: structure_hash drifted"
    );
}

fn suites() -> Vec<perfdojo::kernels::KernelInstance> {
    [
        perfdojo::kernels::paper_suite(),
        perfdojo::kernels::tune_suite(),
        perfdojo::kernels::small_suite(),
        perfdojo::kernels::micro_suite(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

#[test]
fn every_suite_program_prints_identically() {
    let mut checked = 0;
    for k in suites() {
        assert_same(&k.label, &k.program);
        assert_same(&format!("{} verify", k.label), &k.verify_program);
        checked += 2;
    }
    assert!(checked >= 100, "suites shrank to {checked} programs");
}

#[test]
fn every_heuristic_pass_state_prints_identically() {
    let mut checked = 0;
    for target in [Target::x86(), Target::gh200(), Target::snitch()] {
        for k in suites() {
            let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
            perfdojo::search::heuristic_pass(&mut d);
            // replay the pass one step at a time: every state it went through
            let mut cur = d.history.initial.clone();
            for (i, a) in d.history.steps.iter().enumerate() {
                cur = a.apply(&cur).unwrap();
                assert_same(&format!("{} on {} step {i}", k.label, target.name), &cur);
                checked += 1;
            }
            assert_eq!(print_program(&cur), print_program(d.current()));
        }
    }
    assert!(
        checked > 500,
        "heuristic passes too short: {checked} states"
    );
}

#[test]
fn fuzz_programs_print_identically() {
    let cfg = GenConfig::default();
    for seed in 0..2000u64 {
        let mut rng = Rng::seed_from_u64(seed);
        assert_same(
            &format!("fuzz seed {seed}"),
            &gen_program(&mut rng, &cfg, &format!("f{seed}")),
        );
    }
}

fn op(array: &str, depths: &[usize], e: perfdojo_ir::Expr) -> Node {
    Node::Op(OpNode::new(Access::vars(array, depths), e))
}

fn scope(size: ScopeSize, kind: ScopeKind, children: Vec<Node>) -> Node {
    let mut s = Scope::new(0, children);
    s.size = size;
    s.kind = kind;
    Node::Scope(s)
}

fn n(size: usize, children: Vec<Node>) -> Node {
    Node::Scope(Scope::new(size, children))
}

fn program(roots: Vec<Node>) -> Program {
    let mut b = ProgramBuilder::new("corner");
    b.input("x", &[4, 8]).output("z", &[4, 8]);
    let mut p = b.build();
    p.roots = roots;
    p
}

#[test]
fn empty_scopes_print_identically_wherever_they_sit() {
    let z = || op("z", &[0], cst(1.0));
    let cases: Vec<(&str, Vec<Node>)> = vec![
        ("empty root", vec![n(3, vec![])]),
        ("empty first child", vec![n(4, vec![n(8, vec![]), z()])]),
        (
            "empty later child",
            vec![n(4, vec![z(), n(8, vec![]), z()])],
        ),
        (
            "empty nested first child",
            vec![n(16, vec![n(8, vec![n(4, vec![]), z()]), z()])],
        ),
        (
            "empty at every level",
            vec![n(2, vec![n(3, vec![n(4, vec![])]), n(5, vec![])])],
        ),
        (
            "empty roots between",
            vec![n(2, vec![]), n(3, vec![z()]), n(4, vec![n(5, vec![])])],
        ),
        (
            "empty deep later child",
            vec![n(
                16,
                vec![z(), n(8, vec![z(), n(4, vec![n(2, vec![])]), z()]), z()],
            )],
        ),
    ];
    for (label, roots) in cases {
        assert_same(label, &program(roots));
    }
}

#[test]
fn dynamic_sizes_and_scope_annotations_print_identically() {
    let z = || op("z", &[0, 1], add(ld("x", &[0, 1]), cst(0.5)));
    let mut ann = Scope::new(8, vec![z()]);
    ann.kind = ScopeKind::Vector;
    ann.ssr = true;
    ann.frep = true;
    let roots = vec![
        scope(
            ScopeSize::DataDep(Access::vars("x", &[])),
            ScopeKind::Seq,
            vec![n(8, vec![z()]), z()],
        ),
        scope(
            ScopeSize::While(Access::new("x", vec![Affine::cst(0), Affine::cst(1)])),
            ScopeKind::Parallel,
            vec![Node::Scope(ann), n(2, vec![z()])],
        ),
        scope(
            ScopeSize::Const(4),
            ScopeKind::GpuGrid,
            vec![z(), n(8, vec![])],
        ),
    ];
    assert_same("dynamic sizes", &program(roots));
}

#[test]
fn declarations_print_identically() {
    let mut b = ProgramBuilder::new("decls");
    b.input("x", &[4, 8]).output("z", &[4, 8]);
    let mut t = BufferDecl::new("t", DType::F64, &[4, 8, 3], Location::Stack);
    t.dims[1].materialized = false;
    t.dims[2].pad_to = 4;
    t.arrays = vec!["ta".into(), "tb".into()];
    b.buffer(t);
    let mut r = BufferDecl::new("r", DType::I32, &[2], Location::Register);
    r.dims[0].pad_to = 2;
    b.buffer(r);
    let mut s = BufferDecl::new("s", DType::F32, &[5], Location::Shared);
    s.dims[0].pad_to = 8;
    s.dims[0].materialized = false;
    s.arrays = vec!["only".into()];
    b.buffer(s);
    b.scopes(&[4, 8], |b| {
        b.op(out("ta", &[0, 1]), ld("x", &[0, 1]));
        b.op(out("z", &[0, 1]), ld("tb", &[0, 1]));
    });
    assert_same("decls", &b.build());
    // no inputs, no outputs, no buffers, no tree
    assert_same("bare", &Program::new("bare"));
}

#[test]
fn constants_and_indices_print_identically() {
    let consts = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        1e300,
        -1.5e-300,
        f64::MIN_POSITIVE / 4.0,
        1.0 / 3.0,
        123456789.0,
    ];
    let mut b = ProgramBuilder::new("consts");
    b.input("x", &[4, 8])
        .input("idxs", &[4])
        .output("z", &[4, 8]);
    b.scopes(&[4, 8], |b| {
        for (i, &c) in consts.iter().enumerate() {
            let e = match i % 4 {
                0 => mul(ld("x", &[0, 1]), cst(c)),
                1 => un(UnaryOp::Neg, add(cst(c), idx(1))),
                2 => bin(BinaryOp::Max, cst(c), un(UnaryOp::Exp, ld("x", &[1, 0]))),
                _ => bin(BinaryOp::Min, div(cst(c), cst(-c)), sub(idx(0), cst(c))),
            };
            b.op(out("z", &[0, 1]), e);
        }
        b.op(
            out_at(
                "z",
                vec![
                    Affine::scaled(0, -3, 7).add(&Affine::scaled(1, 2, 0)),
                    Affine::cst(-2),
                ],
            ),
            ld_at(
                "x",
                vec![
                    Affine::scaled(1, -1, -1),
                    Affine::scaled(0, 4, 0).add(&Affine::var(1)),
                ],
            ),
        );
    });
    let mut p = b.build();
    // an indirect index, nested twice
    let inner = Access::vars("idxs", &[0]);
    let mid = Access {
        array: "idxs".into(),
        indices: vec![IndexExpr::Indirect(Box::new(inner))],
    };
    let gather = Access {
        array: "x".into(),
        indices: vec![
            IndexExpr::Indirect(Box::new(mid)),
            IndexExpr::Affine(Affine::var(1)),
        ],
    };
    p.roots.push(n(
        4,
        vec![n(
            8,
            vec![Node::Op(OpNode::new(
                Access::vars("z", &[0, 1]),
                perfdojo_ir::Expr::Load(gather),
            ))],
        )],
    ));
    assert_same("consts", &p);
}

#[test]
fn bars_count_chars_not_bytes() {
    // a multi-byte array name in a data-dependent header widens its line
    // by fewer columns than bytes
    let z = || op("zé", &[0], cst(2.0));
    let roots = vec![
        scope(
            ScopeSize::DataDep(Access::vars("ñü", &[])),
            ScopeKind::Seq,
            vec![n(3, vec![z(), z()]), z()],
        ),
        n(
            2,
            vec![
                scope(
                    ScopeSize::While(Access::vars("é", &[])),
                    ScopeKind::Unroll,
                    vec![z(), n(4, vec![])],
                ),
                z(),
            ],
        ),
    ];
    assert_same("non-ascii", &program(roots));
}
