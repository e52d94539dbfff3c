//! Tree addressing.
//!
//! Transformations operate on *individual code locations* (paper §2.2), so
//! they need a stable way to point into the program tree. A [`Path`] is the
//! sequence of child indices from the root.

use crate::node::Node;
use std::fmt;

/// Address of a node: child indices from the root forest.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Path(pub Vec<usize>);

impl Path {
    /// The root forest itself (empty path; not a node).
    pub fn root() -> Self {
        Path(Vec::new())
    }

    /// Path to `child` under `self`.
    pub fn child(&self, i: usize) -> Path {
        let mut v = self.0.clone();
        v.push(i);
        Path(v)
    }

    /// Path to the parent scope (None at root level).
    pub fn parent(&self) -> Option<Path> {
        if self.0.is_empty() {
            None
        } else {
            Some(Path(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Index within the parent's children.
    pub fn last(&self) -> Option<usize> {
        self.0.last().copied()
    }

    /// Number of edges from the root.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the root path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Parse the textual form produced by `Display` (`@0.1.2`; `@` alone is
    /// the root path). Returns `None` on anything else.
    pub fn parse(s: &str) -> Option<Path> {
        let rest = s.strip_prefix('@')?;
        if rest.is_empty() {
            return Some(Path::root());
        }
        let mut v = Vec::new();
        for part in rest.split('.') {
            v.push(part.parse::<usize>().ok()?);
        }
        Some(Path(v))
    }

    /// The path to the sibling following this node.
    pub fn next_sibling(&self) -> Option<Path> {
        let mut v = self.0.clone();
        let last = v.pop()?;
        v.push(last + 1);
        Some(Path(v))
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<&[usize]> for Path {
    fn from(v: &[usize]) -> Self {
        Path(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Path {
    fn from(v: [usize; N]) -> Self {
        Path(v.to_vec())
    }
}

/// Immutable lookup of a node in a forest.
pub fn get<'a>(roots: &'a [Node], path: &Path) -> Option<&'a Node> {
    let (&first, rest) = path.0.split_first()?;
    let mut node = roots.get(first)?;
    for &i in rest {
        node = node.as_scope()?.children.get(i)?;
    }
    Some(node)
}

/// Mutable lookup of a node in a forest.
pub fn get_mut<'a>(roots: &'a mut [Node], path: &Path) -> Option<&'a mut Node> {
    let (&first, rest) = path.0.split_first()?;
    let mut node = roots.get_mut(first)?;
    for &i in rest {
        node = node.as_scope_mut()?.children_mut().get_mut(i)?;
    }
    Some(node)
}

/// The children list containing the node at `path` (the root list for
/// top-level paths), plus the node's index in it.
pub fn siblings_mut<'a>(roots: &'a mut Vec<Node>, path: &Path) -> Option<(&'a mut Vec<Node>, usize)> {
    let idx = path.last()?;
    match path.parent() {
        None => None,
        Some(p) if p.is_empty() => Some((roots, idx)),
        Some(p) => {
            let parent = get_mut(roots, &p)?;
            Some((parent.as_scope_mut()?.children_mut(), idx))
        }
    }
}

/// Depth-first walk over every node, calling `f(path, node, scope_depth)`
/// where `scope_depth` is the number of *scope* ancestors of the node.
pub fn walk<'a>(roots: &'a [Node], f: &mut dyn FnMut(&Path, &'a Node, usize)) {
    fn rec<'a>(
        node: &'a Node,
        path: &Path,
        depth: usize,
        f: &mut dyn FnMut(&Path, &'a Node, usize),
    ) {
        f(path, node, depth);
        if let Node::Scope(s) = node {
            for (i, c) in s.children.iter().enumerate() {
                rec(c, &path.child(i), depth + 1, f);
            }
        }
    }
    for (i, n) in roots.iter().enumerate() {
        rec(n, &Path(vec![i]), 0, f);
    }
}

/// All operation leaves with their paths and the trip sizes of their
/// enclosing scope chain (outermost first).
pub fn ops_with_scopes<'a>(roots: &'a [Node]) -> Vec<(Path, &'a crate::node::OpNode, Vec<&'a crate::node::Scope>)> {
    let mut out = Vec::new();
    fn rec<'a>(
        node: &'a Node,
        path: &Path,
        chain: &mut Vec<&'a crate::node::Scope>,
        out: &mut Vec<(Path, &'a crate::node::OpNode, Vec<&'a crate::node::Scope>)>,
    ) {
        match node {
            Node::Op(op) => out.push((path.clone(), op, chain.clone())),
            Node::Scope(s) => {
                chain.push(s);
                for (i, c) in s.children.iter().enumerate() {
                    rec(c, &path.child(i), chain, out);
                }
                chain.pop();
            }
        }
    }
    let mut chain = Vec::new();
    for (i, n) in roots.iter().enumerate() {
        rec(n, &Path(vec![i]), &mut chain, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Access, Expr};
    use crate::node::{OpNode, Scope};

    fn forest() -> Vec<Node> {
        vec![Node::Scope(Scope::new(
            2,
            vec![
                Node::Op(OpNode::new(Access::vars("a", &[0]), Expr::Const(0.0))),
                Node::Scope(Scope::new(
                    3,
                    vec![Node::Op(OpNode::new(Access::vars("b", &[0, 1]), Expr::Const(1.0)))],
                )),
            ],
        ))]
    }

    #[test]
    fn get_by_path() {
        let f = forest();
        assert!(get(&f, &Path::from([0])).unwrap().as_scope().is_some());
        assert!(get(&f, &Path::from([0, 0])).unwrap().as_op().is_some());
        assert!(get(&f, &Path::from([0, 1, 0])).unwrap().as_op().is_some());
        assert!(get(&f, &Path::from([1])).is_none());
        assert!(get(&f, &Path::from([0, 2])).is_none());
    }

    #[test]
    fn parse_roundtrips_display() {
        for p in [Path::root(), Path::from([0]), Path::from([3, 0, 12])] {
            assert_eq!(Path::parse(&p.to_string()), Some(p));
        }
        assert_eq!(Path::parse("0.1"), None, "missing @ sigil");
        assert_eq!(Path::parse("@0.x"), None, "non-numeric segment");
        assert_eq!(Path::parse("@0..1"), None, "empty segment");
    }

    #[test]
    fn walk_visits_all() {
        let f = forest();
        let mut n = 0;
        walk(&f, &mut |_, _, _| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn ops_with_scopes_chain() {
        let f = forest();
        let ops = ops_with_scopes(&f);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].2.len(), 1);
        assert_eq!(ops[1].2.len(), 2);
        assert_eq!(ops[1].2[1].trip(), 3);
    }

    #[test]
    fn siblings_mut_top_and_nested() {
        let mut f = forest();
        {
            let (sibs, i) = siblings_mut(&mut f, &Path::from([0])).unwrap();
            assert_eq!(i, 0);
            assert_eq!(sibs.len(), 1);
        }
        {
            let (sibs, i) = siblings_mut(&mut f, &Path::from([0, 1])).unwrap();
            assert_eq!(i, 1);
            assert_eq!(sibs.len(), 2);
        }
    }
}
