//! Runtime values, simulated addresses, and the scalar semantics of the
//! IR's arithmetic, comparison and conversion instructions.

use spf_ir::{BinOp, CmpOp, Const, Conv, UnOp};

/// A simulated 64-bit address. `0` is the null reference ([`NULL`]).
pub type Addr = u64;

/// The null reference.
pub const NULL: Addr = 0;

/// A runtime value held in a virtual register, field, or array element.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// Reference ([`NULL`] for null).
    Ref(Addr),
}

impl Value {
    /// The register type of this value.
    pub fn ty(self) -> spf_ir::Ty {
        match self {
            Value::I32(_) => spf_ir::Ty::I32,
            Value::I64(_) => spf_ir::Ty::I64,
            Value::F64(_) => spf_ir::Ty::F64,
            Value::Ref(_) => spf_ir::Ty::Ref,
        }
    }

    /// The zero/default value of a register type.
    pub fn zero_of(ty: spf_ir::Ty) -> Value {
        match ty {
            spf_ir::Ty::I32 => Value::I32(0),
            spf_ir::Ty::I64 => Value::I64(0),
            spf_ir::Ty::F64 => Value::F64(0.0),
            spf_ir::Ty::Ref => Value::Ref(NULL),
        }
    }

    /// The untagged 8-byte word a register slot holds for this value: an
    /// `I32` zero-extended into the low half, an `I64` as is, an `F64` as
    /// its bit pattern, a `Ref` as its address. Every type's zero value is
    /// the zero word.
    #[inline(always)]
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I32(v) => v as u32 as u64,
            Value::I64(v) => v as u64,
            Value::F64(v) => v.to_bits(),
            Value::Ref(a) => a,
        }
    }

    /// Inverse of [`Value::to_bits`] for a slot of type `ty` (an `I32`
    /// reads the low half only).
    #[inline(always)]
    pub fn from_bits(ty: spf_ir::Ty, bits: u64) -> Value {
        match ty {
            spf_ir::Ty::I32 => Value::I32(bits as i32),
            spf_ir::Ty::I64 => Value::I64(bits as i64),
            spf_ir::Ty::F64 => Value::F64(f64::from_bits(bits)),
            spf_ir::Ty::Ref => Value::Ref(bits),
        }
    }

    /// Extracts an `i32`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `I32` (a verifier-rejected program).
    pub fn as_i32(self) -> i32 {
        match self {
            Value::I32(v) => v,
            other => panic!("expected i32, got {other:?}"),
        }
    }

    /// Extracts an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `I64`.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            other => panic!("expected i64, got {other:?}"),
        }
    }

    /// Extracts an `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `F64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::F64(v) => v,
            other => panic!("expected f64, got {other:?}"),
        }
    }

    /// Extracts a reference.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `Ref`.
    pub fn as_ref_addr(self) -> Addr {
        match self {
            Value::Ref(a) => a,
            other => panic!("expected ref, got {other:?}"),
        }
    }
}

impl From<Const> for Value {
    fn from(c: Const) -> Value {
        match c {
            Const::I32(v) => Value::I32(v),
            Const::I64(v) => Value::I64(v),
            Const::F64(v) => Value::F64(v),
            Const::Null => Value::Ref(NULL),
        }
    }
}

impl Value {
    /// The constant that spells this value; a non-null reference has none.
    pub fn as_const(self) -> Option<Const> {
        match self {
            Value::I32(v) => Some(Const::I32(v)),
            Value::I64(v) => Some(Const::I64(v)),
            Value::F64(v) => Some(Const::F64(v)),
            Value::Ref(NULL) => Some(Const::Null),
            Value::Ref(_) => None,
        }
    }
}

// The four evaluators below are the only statement of what `Bin`, `Un`,
// `Cmp` and `Convert` compute: the interpreter's handlers, object
// inspection and the constant folder all call them. Integer arithmetic
// wraps as in Java (`MIN / -1 == MIN`, `MIN % -1 == 0`, shift counts are
// taken modulo the width). Each returns `None` only for a zero integer
// divisor or for operand types the verifier rejects.

/// `a op b`.
#[inline(always)]
pub fn apply_bin(op: BinOp, a: Value, b: Value) -> Option<Value> {
    Some(match (a, b) {
        (Value::I32(x), Value::I32(y)) => Value::I32(match op {
            BinOp::Div | BinOp::Rem if y == 0 => return None,
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => x.wrapping_div(y),
            BinOp::Rem => x.wrapping_rem(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::Shr => x.wrapping_shr(y as u32),
            BinOp::UShr => ((x as u32).wrapping_shr(y as u32)) as i32,
        }),
        (Value::I64(x), Value::I64(y)) => Value::I64(match op {
            BinOp::Div | BinOp::Rem if y == 0 => return None,
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => x.wrapping_div(y),
            BinOp::Rem => x.wrapping_rem(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::Shr => x.wrapping_shr(y as u32),
            BinOp::UShr => ((x as u64).wrapping_shr(y as u32)) as i64,
        }),
        (Value::F64(x), Value::F64(y)) => Value::F64(match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            _ => return None,
        }),
        _ => return None,
    })
}

/// `op v`.
#[inline(always)]
pub fn apply_un(op: UnOp, v: Value) -> Option<Value> {
    Some(match (op, v) {
        (UnOp::Neg, Value::I32(x)) => Value::I32(x.wrapping_neg()),
        (UnOp::Neg, Value::I64(x)) => Value::I64(x.wrapping_neg()),
        (UnOp::Neg, Value::F64(x)) => Value::F64(-x),
        (UnOp::Not, Value::I32(x)) => Value::I32(!x),
        (UnOp::Not, Value::I64(x)) => Value::I64(!x),
        _ => return None,
    })
}

/// `a op b` as the 0/1 flag a `Cmp` writes. A comparison with a NaN
/// operand is unordered: false for every operator except `Ne`.
#[inline(always)]
pub fn apply_cmp(op: CmpOp, a: Value, b: Value) -> Option<i32> {
    let ord = match (a, b) {
        (Value::I32(x), Value::I32(y)) => x.partial_cmp(&y),
        (Value::I64(x), Value::I64(y)) => x.partial_cmp(&y),
        (Value::F64(x), Value::F64(y)) => x.partial_cmp(&y),
        (Value::Ref(x), Value::Ref(y)) => x.partial_cmp(&y),
        _ => return None,
    };
    let Some(ord) = ord else {
        return Some(matches!(op, CmpOp::Ne) as i32);
    };
    use std::cmp::Ordering::*;
    Some(match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    } as i32)
}

/// `v` converted by `conv` (float to integer saturates, NaN becomes 0).
#[inline(always)]
pub fn apply_conv(conv: Conv, v: Value) -> Option<Value> {
    Some(match (conv, v) {
        (Conv::I32ToI64, Value::I32(x)) => Value::I64(x as i64),
        (Conv::I64ToI32, Value::I64(x)) => Value::I32(x as i32),
        (Conv::I32ToF64, Value::I32(x)) => Value::F64(x as f64),
        (Conv::F64ToI32, Value::F64(x)) => Value::I32(x as i32),
        (Conv::I64ToF64, Value::I64(x)) => Value::F64(x as f64),
        (Conv::F64ToI64, Value::F64(x)) => Value::I64(x as i64),
        _ => return None,
    })
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}L"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Ref(NULL) => f.write_str("null"),
            Value::Ref(a) => write!(f, "@{a:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero_of(spf_ir::Ty::I32), Value::I32(0));
        assert_eq!(Value::zero_of(spf_ir::Ty::Ref), Value::Ref(NULL));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::I32(7).as_i32(), 7);
        assert_eq!(Value::Ref(16).as_ref_addr(), 16);
        assert_eq!(Value::F64(1.25).as_f64(), 1.25);
        assert_eq!(Value::I64(-3).as_i64(), -3);
    }

    #[test]
    #[should_panic(expected = "expected i32")]
    fn wrong_accessor_panics() {
        Value::F64(0.0).as_i32();
    }

    #[test]
    fn slot_words_round_trip_every_type() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let values = [
            Value::I32(0),
            Value::I32(-1),
            Value::I32(i32::MIN),
            Value::I32(i32::MAX),
            Value::I64(-1),
            Value::I64(i64::MIN),
            Value::F64(-0.0),
            Value::F64(nan),
            Value::F64(f64::NEG_INFINITY),
            Value::Ref(NULL),
            Value::Ref(0x10_0040),
        ];
        for v in values {
            let back = Value::from_bits(v.ty(), v.to_bits());
            // Compared as words: `NaN != NaN` and `-0.0 == 0.0` as values.
            assert_eq!(back.ty(), v.ty());
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        // An `I32` occupies the low half only, and reads back from it only.
        assert_eq!(Value::I32(-1).to_bits(), 0xffff_ffff);
        assert_eq!(Value::I32(i32::MIN).to_bits(), 0x8000_0000);
        assert_eq!(
            Value::from_bits(spf_ir::Ty::I32, 0xdead_beef_ffff_fffe),
            Value::I32(-2)
        );
        assert_eq!(Value::F64(-0.0).to_bits(), 1 << 63);
        assert_eq!(Value::F64(nan).to_bits(), 0x7ff8_dead_beef_0001);
        // Every type's zero value is the zero word.
        for ty in [
            spf_ir::Ty::I32,
            spf_ir::Ty::I64,
            spf_ir::Ty::F64,
            spf_ir::Ty::Ref,
        ] {
            assert_eq!(Value::zero_of(ty).to_bits(), 0);
        }
    }

    #[test]
    fn display() {
        assert_eq!(Value::Ref(NULL).to_string(), "null");
        assert_eq!(Value::Ref(0x20).to_string(), "@0x20");
        assert_eq!(Value::I64(5).to_string(), "5L");
    }
}
