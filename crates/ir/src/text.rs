//! Printer for the human-readable textual format (paper §2.1, Fig. 3b).
//!
//! Buffer declarations come first, then a blank line, then the tree. On tree
//! lines, a vertical bar `|` denotes a child relationship with the nearest
//! preceding line that does not contain a bar in the same position — i.e.
//! each leading bar stands for one still-open ancestor scope, aligned under
//! that scope's header.
//!
//! One streaming writer, `write_program`, renders a program into any
//! [`fmt::Write`] sink in one of two views: the exact text
//! ([`print_program`]) or the shape-normalized text the structural
//! fingerprint hashes ([`crate::fingerprint`]). Nothing is cloned and no
//! line is buffered: the writer tracks its own column for the bars. The
//! `Display` impls of [`crate::Expr`], [`crate::BufferDecl`] and
//! [`crate::OpNode`], and [`crate::Scope::header`], call the same
//! per-item writers with the exact view, so the two views share every
//! token and a change to the format is a change to the fingerprint.

use crate::node::Node;
use crate::program::Program;
use std::fmt::{self, Write};

/// Version of the textual format. Bump on any change to the printer's
/// output; persisted schedule libraries record it and invalidate entries
/// whose structural fingerprints were computed under an older format.
pub const FORMAT_VERSION: u32 = 1;

/// Which rendering of a program the printer writes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum View {
    /// The program text itself.
    Exact,
    /// The text with everything shape-derived blanked: the kernel name
    /// prints as `_`, every buffer size, pad and constant trip count as
    /// `0`, and every floating-point constant as `0.0`.
    Structure,
}

/// Stream `p` in `view` into `out` (declarations, blank line, tree).
pub(crate) fn write_program<W: Write>(out: &mut W, p: &Program, view: View) -> fmt::Result {
    out.write_str("kernel ")?;
    out.write_str(match view {
        View::Exact => &p.name,
        View::Structure => "_",
    })?;
    out.write_char('\n')?;
    for (tag, names) in [("in", &p.inputs), ("out", &p.outputs)] {
        if !names.is_empty() {
            out.write_str(tag)?;
            for name in names {
                out.write_char(' ')?;
                out.write_str(name)?;
            }
            out.write_char('\n')?;
        }
    }
    for b in &p.buffers {
        b.write_to(out, view)?;
        out.write_char('\n')?;
    }
    out.write_char('\n')?;
    write_tree(out, &p.roots, view)
}

/// Stream the tree in bar notation in `view` into `out`.
fn write_tree<W: Write>(out: &mut W, roots: &[Node], view: View) -> fmt::Result {
    let mut t = TreeWriter { out, view, col: 0, mute: false, open: Vec::new() };
    for n in roots {
        t.line(n)?;
    }
    Ok(())
}

/// Render the full program (declarations, blank line, tree).
pub fn print_program(p: &Program) -> String {
    let mut s = String::new();
    write_program(&mut s, p, View::Exact).expect("writing to a String cannot fail");
    s
}

/// Render only the tree in bar notation.
pub fn print_tree(roots: &[Node]) -> String {
    let mut s = String::new();
    write_tree(&mut s, roots, View::Exact).expect("writing to a String cannot fail");
    s
}

/// The tree half of the printer. A scope's first child continues its
/// header's line; each later child starts a line with a bar under every
/// open scope's header.
struct TreeWriter<'a, W> {
    out: &'a mut W,
    view: View,
    /// Chars written on the current line so far (muted ones included).
    col: usize,
    /// The current line prints nothing: its first-child chain ends in an
    /// empty scope instead of an operation. Its columns still count, since
    /// the later children of the scopes on it put bars under them.
    mute: bool,
    /// Header columns of the open ancestor scopes, outermost first.
    open: Vec<usize>,
}

impl<W: Write> Write for TreeWriter<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.col += s.chars().count();
        if self.mute {
            Ok(())
        } else {
            self.out.write_str(s)
        }
    }
}

impl<W: Write> TreeWriter<'_, W> {
    /// Start a new line with `node`.
    fn line(&mut self, node: &Node) -> fmt::Result {
        self.col = 0;
        self.mute = !ends_in_op(node);
        for i in 0..self.open.len() {
            while self.col < self.open[i] {
                self.write_char(' ')?;
            }
            self.write_str("| ")?;
        }
        self.node(node)
    }

    /// Continue the current line with `node`.
    fn node(&mut self, node: &Node) -> fmt::Result {
        let view = self.view;
        match node {
            Node::Op(op) => {
                op.write_to(self, view)?;
                self.write_char('\n')
            }
            Node::Scope(s) => {
                self.open.push(self.col);
                s.write_header(self, view)?;
                self.write_str(" | ")?;
                let mut children = s.children.iter();
                if let Some(first) = children.next() {
                    self.node(first)?;
                }
                for c in children {
                    self.line(c)?;
                }
                self.open.pop();
                Ok(())
            }
        }
    }
}

/// True when the first-child chain from `node` reaches an operation.
fn ends_in_op(mut node: &Node) -> bool {
    loop {
        match node {
            Node::Op(_) => return true,
            Node::Scope(s) => match s.children.first() {
                Some(c) => node = c,
                None => return false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferDecl, DType, Location};
    use crate::expr::{Access, BinaryOp, Expr};
    use crate::node::{OpNode, Scope};

    fn op(out: &str, depths: &[usize], expr: Expr) -> Node {
        Node::Op(OpNode::new(Access::vars(out, depths), expr))
    }

    #[test]
    fn single_line_nest() {
        let roots = vec![Node::Scope(Scope::new(
            4,
            vec![Node::Scope(Scope::new(
                8,
                vec![op(
                    "z",
                    &[0, 1],
                    Expr::Binary(
                        BinaryOp::Mul,
                        Box::new(Expr::Load(Access::vars("x", &[0, 1]))),
                        Box::new(Expr::Load(Access::vars("y", &[0, 1]))),
                    ),
                )],
            ))],
        ))];
        assert_eq!(
            print_tree(&roots),
            "4 | 8 | z[{0},{1}] = (x[{0},{1}] * y[{0},{1}])\n"
        );
    }

    #[test]
    fn bars_align_under_parent() {
        let roots = vec![Node::Scope(Scope::new(
            4,
            vec![
                op("m", &[0], Expr::Const(0.0)),
                Node::Scope(Scope::new(8, vec![op("e", &[0, 1], Expr::Const(1.0))])),
            ],
        ))];
        let t = print_tree(&roots);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "4 | m[{0}] = 0.0");
        assert_eq!(lines[1], "| 8 | e[{0},{1}] = 1.0");
    }

    #[test]
    fn full_program_header() {
        let mut p = Program::new("copy");
        p.buffers.push(BufferDecl::new("x", DType::F32, &[4], Location::Heap));
        p.buffers.push(BufferDecl::new("z", DType::F32, &[4], Location::Heap));
        p.inputs = vec!["x".into()];
        p.outputs = vec!["z".into()];
        p.roots = vec![Node::Scope(Scope::new(
            4,
            vec![op("z", &[0], Expr::Load(Access::vars("x", &[0])))],
        ))];
        let t = print_program(&p);
        assert!(t.starts_with("kernel copy\nin x\nout z\nx f32 [4] heap\nz f32 [4] heap\n\n"));
        assert!(t.ends_with("4 | z[{0}] = x[{0}]\n"));
    }

    #[test]
    fn two_top_level_scopes() {
        let roots = vec![
            Node::Scope(Scope::new(2, vec![op("a", &[0], Expr::Const(0.0))])),
            Node::Scope(Scope::new(3, vec![op("b", &[0], Expr::Const(1.0))])),
        ];
        let t = print_tree(&roots);
        assert_eq!(t, "2 | a[{0}] = 0.0\n3 | b[{0}] = 1.0\n");
    }

    #[test]
    fn a_line_ending_in_an_empty_scope_prints_nothing_but_keeps_its_columns() {
        // the unprinted line `16 | 8 | 4 | ` still puts the 8 at column 5
        let roots = vec![Node::Scope(Scope::new(
            16,
            vec![Node::Scope(Scope::new(
                8,
                vec![Node::Scope(Scope::new(4, vec![])), op("a", &[0], Expr::Const(1.0))],
            ))],
        ))];
        assert_eq!(print_tree(&roots), "|    | a[{0}] = 1.0\n");
        assert_eq!(print_tree(&[Node::Scope(Scope::new(3, vec![]))]), "");
    }

    #[test]
    fn structure_view_blanks_shapes_and_constants_only() {
        let mut p = Program::new("scaled");
        let mut x = BufferDecl::new("x", DType::F64, &[4, 8], Location::Stack);
        x.dims[1].pad_to = 16;
        x.dims[0].materialized = false;
        p.buffers.push(x);
        p.inputs = vec!["x".into()];
        p.roots = vec![Node::Scope(Scope::new(
            4,
            vec![op("x", &[0, 0], Expr::Const(-0.25))],
        ))];
        let mut s = String::new();
        write_program(&mut s, &p, View::Structure).unwrap();
        assert_eq!(s, "kernel _\nin x\nx f64 [0:N, 0] stack\n\n0 | x[{0},{0}] = 0.0\n");
        assert!(print_program(&p).contains("[4:N, 8^16]"));
    }
}
