//! The value vocabulary shared by the PPL, the PPX protocol, and simulators.
//!
//! A [`Value`] is anything a sample/observe/tag statement can carry: scalars,
//! integers, booleans, strings, or dense f32 tensors. Tensors use a flat
//! row-major layout identical to the one used by `etalumis-tensor`, so
//! conversion across the protocol boundary is cheap.

use std::fmt;
use std::sync::Arc;

/// A dense row-major f32 tensor value (shape + flat data).
#[derive(Clone, Debug, PartialEq)]
pub struct TensorValue {
    /// Dimension sizes, outermost first.
    pub shape: Vec<usize>,
    /// Flat row-major data; `data.len() == shape.iter().product()`.
    pub data: Vec<f32>,
}

impl TensorValue {
    /// Create a tensor value, checking that the shape matches the data length.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape {:?} does not match data len {}", shape, data.len());
        Self { shape, data }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A zero-filled tensor of the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: vec![0.0; n] }
    }
}

/// A runtime value flowing through sample/observe statements and the PPX wire.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// No payload (e.g. result of a side-effecting program).
    #[default]
    Unit,
    /// Boolean.
    Bool(bool),
    /// Signed integer (categorical indices, counts).
    Int(i64),
    /// Real scalar.
    Real(f64),
    /// Dense f32 tensor (e.g. detector voxel grids), shared: cloning the
    /// value copies a pointer, so every trace of a posterior records the
    /// one registered observation instead of a copy of its voxels.
    Tensor(Arc<TensorValue>),
    /// UTF-8 string (names, tags).
    Str(String),
}

impl Value {
    /// Interpret as f64, converting ints and bools; panics on non-numeric.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Real(x) => *x,
            Value::Int(i) => *i as f64,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => panic!("Value::as_f64 on non-numeric value {other:?}"), // etalumis: allow(panic-freedom, reason = "documented panicking accessor on variant mismatch")
        }
    }

    /// Interpret as i64 (ints, bools, and integral reals); panics otherwise.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            Value::Bool(b) => *b as i64,
            Value::Real(x) => {
                assert!(x.fract() == 0.0, "Value::as_i64 on non-integral real {x}");
                *x as i64
            }
            other => panic!("Value::as_i64 on non-integer value {other:?}"), // etalumis: allow(panic-freedom, reason = "documented panicking accessor on variant mismatch")
        }
    }

    /// Borrow as a tensor; panics if not a tensor.
    pub fn as_tensor(&self) -> &TensorValue {
        match self {
            Value::Tensor(t) => t,
            other => panic!("Value::as_tensor on {other:?}"), // etalumis: allow(panic-freedom, reason = "documented panicking accessor on variant mismatch")
        }
    }

    /// Number of scalar components (1 for scalars, len for tensors, 0 for unit).
    pub fn numel(&self) -> usize {
        match self {
            Value::Unit => 0,
            Value::Tensor(t) => t.len(),
            Value::Str(_) => 0,
            _ => 1,
        }
    }

    /// A compact name for the variant (used in error messages and the wire).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Tensor(_) => "tensor",
            Value::Str(_) => "str",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(x) => write!(f, "{x:.6}"),
            Value::Tensor(t) => write!(f, "tensor{:?}", t.shape),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Real(x)
    }
}
impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}
impl From<TensorValue> for Value {
    fn from(t: TensorValue) -> Self {
        Value::Tensor(Arc::new(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Value::from(2.5).as_f64(), 2.5);
        assert_eq!(Value::from(7i64).as_i64(), 7);
        assert_eq!(Value::from(true).as_f64(), 1.0);
        assert_eq!(Value::Real(3.0).as_i64(), 3);
    }

    #[test]
    #[should_panic]
    fn as_f64_on_string_panics() {
        Value::Str("x".into()).as_f64();
    }

    #[test]
    fn tensor_value_shape_checked() {
        let t = TensorValue::new(vec![2, 3], vec![0.0; 6]);
        assert_eq!(t.len(), 6);
        assert_eq!(Value::from(t).numel(), 6);
    }

    #[test]
    #[should_panic]
    fn tensor_value_bad_shape_panics() {
        TensorValue::new(vec![2, 3], vec![0.0; 5]);
    }
}
