//! Buffer and array declarations.
//!
//! A buffer declaration follows the paper's textual format
//! (`buffer_name data_type shape location -> list_of_array_names`):
//! it names a region of memory, the data type it holds, its shape, its
//! memory location, and optionally the arrays that share the buffer. A
//! dimension with the `:N` suffix is **not materialized**: it occupies a
//! single element, which is the layout trick behind the `reuse_dims`
//! transformation (paper Fig. 5).

use crate::text::View;
use std::fmt;

/// Scalar element type stored in a buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DType {
    /// 32-bit IEEE float (the suite's default).
    #[default]
    F32,
    /// 64-bit IEEE float.
    F64,
    /// 32-bit signed integer.
    I32,
}

impl DType {
    /// Size of one element in bytes.
    pub fn bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F64 => 8,
        }
    }

    /// Textual name used by the printer/parser.
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::I32 => "i32",
        }
    }

    /// Parse a dtype name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(DType::F32),
            "f64" => Some(DType::F64),
            "i32" => Some(DType::I32),
            _ => None,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Memory placement of a buffer. The machine models assign different access
/// costs per location; the `set_location` transformation moves buffers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Location {
    /// Main memory, dynamically allocated.
    #[default]
    Heap,
    /// Thread-local stack storage (small, cache-resident).
    Stack,
    /// Register-allocated (only for tiny, fully-unrolled temporaries).
    Register,
    /// GPU shared / scratchpad memory.
    Shared,
}

impl Location {
    /// Textual name used by the printer/parser.
    pub fn name(self) -> &'static str {
        match self {
            Location::Heap => "heap",
            Location::Stack => "stack",
            Location::Register => "register",
            Location::Shared => "shared",
        }
    }

    /// Parse a location name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "heap" => Some(Location::Heap),
            "stack" => Some(Location::Stack),
            "register" => Some(Location::Register),
            "shared" => Some(Location::Shared),
            _ => None,
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One dimension of a buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufDim {
    /// Logical extent of the dimension.
    pub size: usize,
    /// When `false` (`:N` suffix) the dimension is collapsed to one element;
    /// iteration order must make the reuse safe (checked by `reuse_dims`).
    pub materialized: bool,
    /// Physical extent (>= `size`); enlarged by the padding transformation.
    pub pad_to: usize,
}

impl BufDim {
    /// A plain materialized, unpadded dimension.
    pub fn new(size: usize) -> Self {
        BufDim { size, materialized: true, pad_to: size }
    }

    /// Number of elements this dimension contributes to the physical layout.
    pub fn physical(self) -> usize {
        if self.materialized {
            self.pad_to
        } else {
            1
        }
    }
}

/// A buffer declaration: named storage holding one or more arrays.
#[derive(Clone, PartialEq, Debug)]
pub struct BufferDecl {
    /// Buffer name (also the array name when `arrays` is empty).
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Shape, outermost dimension first. Layout is row-major over the
    /// dimensions *as stored* (the `swap_dims` transformation permutes them
    /// together with every access).
    pub dims: Vec<BufDim>,
    /// Memory placement.
    pub location: Location,
    /// Arrays residing in this buffer. Empty means a single array with the
    /// buffer's own name.
    pub arrays: Vec<String>,
}

impl BufferDecl {
    /// A buffer holding a single array of the same name.
    pub fn new(name: &str, dtype: DType, shape: &[usize], location: Location) -> Self {
        BufferDecl {
            name: name.to_string(),
            dtype,
            dims: shape.iter().map(|&s| BufDim::new(s)).collect(),
            location,
            arrays: Vec::new(),
        }
    }

    /// Names of arrays stored in this buffer.
    pub fn array_names(&self) -> Vec<&str> {
        if self.arrays.is_empty() {
            vec![self.name.as_str()]
        } else {
            self.arrays.iter().map(String::as_str).collect()
        }
    }

    /// True when `array` resides in this buffer.
    pub fn holds(&self, array: &str) -> bool {
        if self.arrays.is_empty() {
            self.name == array
        } else {
            self.arrays.iter().any(|a| a == array)
        }
    }

    /// Number of physical elements (respecting `:N` reuse and padding),
    /// saturating at `usize::MAX`.
    pub fn physical_len(&self) -> usize {
        self.dims.iter().fold(1, |n: usize, d| n.saturating_mul(d.physical())).max(1)
    }

    /// Physical size in bytes, saturating at `usize::MAX`.
    pub fn bytes(&self) -> usize {
        self.physical_len().saturating_mul(self.dtype.bytes())
    }

    /// Row-major strides over physical dimensions; non-materialized dims get
    /// stride 0 so every index maps to the same (reused) element.
    pub fn strides(&self) -> Vec<usize> {
        let n = self.dims.len();
        let mut strides = vec![0usize; n];
        let mut acc = 1usize;
        for i in (0..n).rev() {
            if self.dims[i].materialized {
                strides[i] = acc;
                acc = acc.saturating_mul(self.dims[i].pad_to);
            } else {
                strides[i] = 0;
            }
        }
        strides
    }

    /// Physical flat offset for logical indices `idx` (must match arity).
    pub fn flat_index(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let strides = self.strides();
        let mut off = 0usize;
        for (i, &v) in idx.iter().enumerate() {
            if v < 0 || v as usize >= self.dims[i].pad_to {
                return None;
            }
            off += strides[i] * v as usize;
        }
        Some(off)
    }

    /// Logical shape (sizes, outermost first).
    pub fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.size).collect()
    }
}

impl BufferDecl {
    /// Write the declaration line in `view` (the [`View::Structure`] line
    /// prints every size and pad as `0`).
    pub(crate) fn write_to<W: fmt::Write>(&self, f: &mut W, view: View) -> fmt::Result {
        f.write_str(&self.name)?;
        f.write_char(' ')?;
        f.write_str(self.dtype.name())?;
        f.write_str(" [")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match view {
                View::Exact => {
                    write!(f, "{}", d.size)?;
                    if d.pad_to != d.size {
                        write!(f, "^{}", d.pad_to)?;
                    }
                }
                View::Structure => f.write_char('0')?,
            }
            if !d.materialized {
                f.write_str(":N")?;
            }
        }
        f.write_str("] ")?;
        f.write_str(self.location.name())?;
        for (i, a) in self.arrays.iter().enumerate() {
            f.write_str(if i == 0 { " -> " } else { ", " })?;
            f.write_str(a)?;
        }
        Ok(())
    }
}

impl fmt::Display for BufferDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f, View::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let b = BufferDecl::new("x", DType::F32, &[4, 3, 2], Location::Heap);
        assert_eq!(b.strides(), vec![6, 2, 1]);
        assert_eq!(b.flat_index(&[1, 2, 1]), Some(6 + 4 + 1));
        assert_eq!(b.physical_len(), 24);
    }

    #[test]
    fn non_materialized_dim_has_zero_stride() {
        let mut b = BufferDecl::new("t", DType::F32, &[4, 3], Location::Heap);
        b.dims[1].materialized = false;
        assert_eq!(b.strides(), vec![1, 0]);
        assert_eq!(b.physical_len(), 4);
        // all indices of dim 1 alias
        assert_eq!(b.flat_index(&[2, 0]), b.flat_index(&[2, 2]));
    }

    #[test]
    fn padding_changes_strides_not_logical_shape() {
        let mut b = BufferDecl::new("x", DType::F32, &[4, 300], Location::Heap);
        b.dims[1].pad_to = 320;
        assert_eq!(b.strides(), vec![320, 1]);
        assert_eq!(b.shape(), vec![4, 300]);
        assert_eq!(b.bytes(), 4 * 320 * 4);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let b = BufferDecl::new("x", DType::F32, &[4], Location::Heap);
        assert_eq!(b.flat_index(&[4]), None);
        assert_eq!(b.flat_index(&[-1]), None);
    }

    #[test]
    fn shared_buffer_arrays() {
        let mut b = BufferDecl::new("buf", DType::F32, &[8], Location::Stack);
        b.arrays = vec!["m".into(), "d".into()];
        assert!(b.holds("m"));
        assert!(b.holds("d"));
        assert!(!b.holds("buf"));
        assert_eq!(
            b.to_string(),
            "buf f32 [8] stack -> m, d"
        );
    }

    #[test]
    fn dtype_roundtrip() {
        for d in [DType::F32, DType::F64, DType::I32] {
            assert_eq!(DType::parse(d.name()), Some(d));
        }
        assert_eq!(DType::parse("f16"), None);
    }
}
