//! Element data types.

use std::fmt;

/// Tensor element type.
///
/// The checker is value-agnostic; dtypes exist so shape/type inference can
/// reject mixed-type operations the way PyTorch would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit float (the default compute type in the models we build).
    F32,
    /// 64-bit signed integer (token ids, routing indices).
    I64,
    /// Boolean masks.
    Bool,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::I64 => "i64",
            DType::Bool => "bool",
        };
        f.write_str(s)
    }
}
