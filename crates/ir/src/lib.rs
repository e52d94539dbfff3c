//! # PerfDojo intermediate representation
//!
//! The main data structure is an **ordered tree** (paper §2.1, Fig. 3):
//! internal vertices are single-dimensional iteration *scopes*, leaves are
//! *operations* with one output access and an expression over input accesses,
//! constants and iteration indices. The order of children defines execution
//! order within the parent.
//!
//! Multidimensional arrays live in declared *buffers*; an index refers to the
//! iteration of a particular ancestor scope with `{d}` where `d` is the depth
//! of that scope in the operation's ancestor chain (0 = outermost).
//!
//! The crate provides:
//! * the AST ([`Program`], [`Node`], [`Scope`], [`OpNode`], [`Expr`],
//!   [`Access`], [`Affine`], [`BufferDecl`]),
//! * a human-readable textual format (printer in [`text`], parser in
//!   [`parse`]) mirroring the paper's bar notation,
//! * tree navigation by [`Path`] (used by transformations to address code
//!   locations),
//! * well-formedness validation ([`validate`]) that also *rejects* the
//!   representation features the paper deliberately excludes (indirection,
//!   data-dependent ranges, general control flow) while keeping them
//!   expressible for completeness tests (Table 2).

pub mod affine;
pub mod arena;
pub mod buffer;
pub mod builder;
pub mod expr;
pub mod fingerprint;
pub mod node;
pub mod parse;
pub mod path;
pub mod program;
pub mod text;
pub mod validate;

pub use affine::Affine;
pub use arena::Arena;
pub use buffer::{BufDim, BufferDecl, DType, Location};
pub use builder::ProgramBuilder;
pub use expr::{Access, BinaryOp, Expr, IndexExpr, UnaryOp};
pub use fingerprint::{exact_fp128, exact_text, structure_hash, structure_text, Fp128};
pub use node::{Node, OpNode, Scope, ScopeKind, ScopeSize};
pub use parse::{parse_program, ParseError};
pub use path::Path;
pub use program::Program;
pub use validate::{validate, ValidateError};
