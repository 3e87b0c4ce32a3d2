//! Named, typed, shaped variables — the unit of staging I/O.

use std::sync::Arc;

/// Element type of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 64-bit float.
    F64,
    /// 32-bit float.
    F32,
    /// 64-bit unsigned integer.
    U64,
    /// Raw bytes.
    U8,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size(&self) -> usize {
        match self {
            Dtype::F64 | Dtype::U64 => 8,
            Dtype::F32 => 4,
            Dtype::U8 => 1,
        }
    }
}

/// A named data block published into a step.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Variable name (unique within a step).
    pub name: String,
    /// Element type.
    pub dtype: Dtype,
    /// Logical shape (row-major); the product times `dtype.size()` must
    /// equal `data.len()`.
    pub shape: Vec<usize>,
    /// The payload (cheaply cloneable).
    pub data: Arc<[u8]>,
}

impl Variable {
    /// Creates a variable from an f64 slice.
    pub fn from_f64(name: impl Into<String>, shape: Vec<usize>, values: &[f64]) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            values.len(),
            "shape/data mismatch"
        );
        let mut buf = Vec::with_capacity(values.len() * 8);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Self {
            name: name.into(),
            dtype: Dtype::F64,
            shape,
            data: buf.into(),
        }
    }

    /// Creates a raw byte variable.
    pub fn from_bytes(name: impl Into<String>, data: Vec<u8>) -> Self {
        let shape = vec![data.len()];
        Self {
            name: name.into(),
            dtype: Dtype::U8,
            shape,
            data: data.into(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// True for an empty variable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.len()
    }

    /// Decodes the payload as f64 values.
    ///
    /// # Panics
    /// Panics if the dtype is not `F64`.
    pub fn as_f64(&self) -> Vec<f64> {
        assert_eq!(self.dtype, Dtype::F64, "variable {} is not F64", self.name);
        self.data
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        let v = Variable::from_f64("u", vec![2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(v.len(), 6);
        assert_eq!(v.nbytes(), 48);
        assert_eq!(v.as_f64(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn byte_variable() {
        let v = Variable::from_bytes("raw", vec![1, 2, 3]);
        assert_eq!(v.dtype, Dtype::U8);
        assert_eq!(v.nbytes(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn shape_mismatch_rejected() {
        Variable::from_f64("u", vec![4], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "is not F64")]
    fn wrong_dtype_decode_rejected() {
        Variable::from_bytes("raw", vec![0; 8]).as_f64();
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(Dtype::F64.size(), 8);
        assert_eq!(Dtype::F32.size(), 4);
        assert_eq!(Dtype::U64.size(), 8);
        assert_eq!(Dtype::U8.size(), 1);
    }
}
