//! IR instructions and terminators.

use crate::entities::{BlockId, FieldId, MethodId, Reg, StaticId};
use crate::types::{Const, ElemTy};

/// Binary arithmetic/logic operations.
///
/// Integer-only operations (`Rem`, bit ops, shifts) are rejected by the
/// verifier on float operands; `Add`..`Div` work on all numeric types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division truncates; division by zero traps).
    Div,
    /// Remainder (integer only).
    Rem,
    /// Bitwise and (integer only).
    And,
    /// Bitwise or (integer only).
    Or,
    /// Bitwise xor (integer only).
    Xor,
    /// Left shift (integer only).
    Shl,
    /// Arithmetic right shift (integer only).
    Shr,
    /// Logical right shift (integer only).
    UShr,
}

impl BinOp {
    /// Whether the operation is defined only on integers.
    pub fn int_only(self) -> bool {
        !matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }
}

/// Comparison operations; the result is an `I32` that is 0 or 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Unary operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise not (integer only).
    Not,
}

/// Numeric conversions between register types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Conv {
    /// Sign-extend `I32` to `I64`.
    I32ToI64,
    /// Truncate `I64` to `I32`.
    I64ToI32,
    /// Convert `I32` to `F64`.
    I32ToF64,
    /// Convert `F64` to `I32` (saturating, like Java `d2i`).
    F64ToI32,
    /// Convert `I64` to `F64`.
    I64ToF64,
    /// Convert `F64` to `I64` (saturating).
    F64ToI64,
}

impl Conv {
    /// Source and destination register types of the conversion.
    pub fn signature(self) -> (crate::Ty, crate::Ty) {
        use crate::Ty::*;
        match self {
            Conv::I32ToI64 => (I32, I64),
            Conv::I64ToI32 => (I64, I32),
            Conv::I32ToF64 => (I32, F64),
            Conv::F64ToI32 => (F64, I32),
            Conv::I64ToF64 => (I64, F64),
            Conv::F64ToI64 => (F64, I64),
        }
    }
}

/// How a `Prefetch` pseudo-instruction maps to hardware (paper §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrefetchKind {
    /// The processor's prefetch instruction. Cheap, but on the Pentium 4 it
    /// is cancelled when the address misses the DTLB.
    Hardware,
    /// A load guarded by a software exception check. Costs a real access but
    /// fills a missing DTLB entry in advance ("TLB priming").
    GuardedLoad,
}

impl std::fmt::Display for PrefetchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchKind::Hardware => f.write_str("hw"),
            PrefetchKind::GuardedLoad => f.write_str("guarded"),
        }
    }
}

/// Address expression of a `Prefetch` or `SpecLoad` pseudo-instruction.
///
/// These mirror the address forms the paper's code generator emits: the
/// address a load would use, displaced by a constant (`d*c` for
/// inter-iteration prefetching, field offsets and intra-iteration strides
/// for the dereference-based forms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrefetchAddr {
    /// `addr(obj) + delta` — a field (or header) of an object whose
    /// reference is in `base`, displaced by `delta` bytes.
    FieldOf {
        /// Register holding the object reference.
        base: Reg,
        /// Byte displacement relative to the object's address.
        delta: i64,
    },
    /// `addr(arr) + header + idx * scale + delta` — an array element
    /// address displaced by `delta` bytes.
    ArrayElem {
        /// Register holding the array reference.
        arr: Reg,
        /// Register holding the element index (`I32`).
        idx: Reg,
        /// Element size in bytes.
        scale: u8,
        /// Extra byte displacement (e.g. `d*c` for stride prefetching).
        delta: i64,
    },
}

impl PrefetchAddr {
    /// Registers read by the address expression.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        match *self {
            PrefetchAddr::FieldOf { base, .. } => out.push(base),
            PrefetchAddr::ArrayElem { arr, idx, .. } => {
                out.push(arr);
                out.push(idx);
            }
        }
    }

    /// Returns a copy with `extra` added to the displacement.
    pub fn with_extra_delta(self, extra: i64) -> Self {
        match self {
            PrefetchAddr::FieldOf { base, delta } => PrefetchAddr::FieldOf {
                base,
                delta: delta + extra,
            },
            PrefetchAddr::ArrayElem {
                arr,
                idx,
                scale,
                delta,
            } => PrefetchAddr::ArrayElem {
                arr,
                idx,
                scale,
                delta: delta + extra,
            },
        }
    }
}

/// A non-terminator IR instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Instr {
    /// Load a constant into `dst`.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        value: Const,
    },
    /// Copy `src` into `dst`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = op a b`.
    Bin {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: BinOp,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = op src`.
    Un {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: UnOp,
        /// Operand.
        src: Reg,
    },
    /// `dst = (a op b) ? 1 : 0`.
    Cmp {
        /// Destination register (`I32`).
        dst: Reg,
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Numeric conversion.
    Convert {
        /// Destination register.
        dst: Reg,
        /// The conversion.
        conv: Conv,
        /// Source register.
        src: Reg,
    },
    /// `dst = obj.field` — a `getfield`. Traps on null.
    GetField {
        /// Destination register.
        dst: Reg,
        /// Object reference.
        obj: Reg,
        /// The field.
        field: FieldId,
    },
    /// `obj.field = src` — a `putfield`. Traps on null.
    PutField {
        /// Object reference.
        obj: Reg,
        /// The field.
        field: FieldId,
        /// Value to store.
        src: Reg,
    },
    /// `dst = statics[sid]` — a `getstatic`.
    GetStatic {
        /// Destination register.
        dst: Reg,
        /// The static slot.
        sid: StaticId,
    },
    /// `statics[sid] = src` — a `putstatic`.
    PutStatic {
        /// The static slot.
        sid: StaticId,
        /// Value to store.
        src: Reg,
    },
    /// `dst = arr[idx]` — an array load (`aaload`/`iaload`/…).
    /// Traps on null or out-of-bounds index.
    ALoad {
        /// Destination register.
        dst: Reg,
        /// Array reference.
        arr: Reg,
        /// Element index (`I32`).
        idx: Reg,
        /// Element type.
        elem: ElemTy,
    },
    /// `arr[idx] = src` — an array store.
    AStore {
        /// Array reference.
        arr: Reg,
        /// Element index (`I32`).
        idx: Reg,
        /// Value to store.
        src: Reg,
        /// Element type.
        elem: ElemTy,
    },
    /// `dst = arr.length` — an `arraylength` (also emitted implicitly for
    /// bounds checks by a real JIT; here workloads emit it explicitly).
    ArrayLen {
        /// Destination register (`I32`).
        dst: Reg,
        /// Array reference.
        arr: Reg,
    },
    /// Allocate a new object of `class`.
    New {
        /// Destination register (`Ref`).
        dst: Reg,
        /// The class to instantiate.
        class: crate::entities::ClassId,
    },
    /// Allocate a new array of `elem` with length `len`.
    NewArray {
        /// Destination register (`Ref`).
        dst: Reg,
        /// Element type.
        elem: ElemTy,
        /// Length register (`I32`).
        len: Reg,
    },
    /// Direct call.
    Call {
        /// Register receiving the return value, if the callee returns one.
        dst: Option<Reg>,
        /// The callee.
        callee: MethodId,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Software prefetch of a predicted address (inserted by the optimizer).
    ///
    /// Never traps: invalid addresses are silently ignored, matching the
    /// semantics of hardware prefetch / guarded loads.
    Prefetch {
        /// Address expression.
        addr: PrefetchAddr,
        /// Hardware mapping.
        kind: PrefetchKind,
    },
    /// Speculative load of a reference from a predicted address (inserted by
    /// the optimizer). Yields null instead of trapping when the address is
    /// invalid.
    SpecLoad {
        /// Destination register (`Ref`).
        dst: Reg,
        /// Address expression.
        addr: PrefetchAddr,
    },
}

impl Instr {
    /// The register defined by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Instr::Const { dst, .. }
            | Instr::Move { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Convert { dst, .. }
            | Instr::GetField { dst, .. }
            | Instr::GetStatic { dst, .. }
            | Instr::ALoad { dst, .. }
            | Instr::ArrayLen { dst, .. }
            | Instr::New { dst, .. }
            | Instr::NewArray { dst, .. }
            | Instr::SpecLoad { dst, .. } => Some(dst),
            Instr::Call { dst, .. } => dst,
            Instr::PutField { .. }
            | Instr::PutStatic { .. }
            | Instr::AStore { .. }
            | Instr::Prefetch { .. } => None,
        }
    }

    /// Appends the registers read by this instruction to `out`.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        match self {
            Instr::Const { .. } | Instr::GetStatic { .. } | Instr::New { .. } => {}
            Instr::Move { src, .. } | Instr::Un { src, .. } | Instr::Convert { src, .. } => {
                out.push(*src)
            }
            Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => {
                out.push(*a);
                out.push(*b);
            }
            Instr::GetField { obj, .. } => out.push(*obj),
            Instr::PutField { obj, src, .. } => {
                out.push(*obj);
                out.push(*src);
            }
            Instr::PutStatic { src, .. } => out.push(*src),
            Instr::ALoad { arr, idx, .. } => {
                out.push(*arr);
                out.push(*idx);
            }
            Instr::AStore { arr, idx, src, .. } => {
                out.push(*arr);
                out.push(*idx);
                out.push(*src);
            }
            Instr::ArrayLen { arr, .. } => out.push(*arr),
            Instr::NewArray { len, .. } => out.push(*len),
            Instr::Call { args, .. } => out.extend_from_slice(args),
            Instr::Prefetch { addr, .. } => addr.uses(out),
            Instr::SpecLoad { addr, .. } => addr.uses(out),
        }
    }

    /// Whether this is one of the load instructions that can be a node of a
    /// load dependence graph (paper §3.1): `getfield`, `getstatic`, array
    /// loads, and `arraylength`.
    pub fn is_ldg_load(&self) -> bool {
        matches!(
            self,
            Instr::GetField { .. }
                | Instr::GetStatic { .. }
                | Instr::ALoad { .. }
                | Instr::ArrayLen { .. }
        )
    }
}

/// Block terminators.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on `cond != 0`.
    Branch {
        /// Condition register (`I32`).
        cond: Reg,
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
    },
    /// Return from the function.
    Return(Option<Reg>),
    /// Dynamically unreachable (used for dead continuation blocks created by
    /// structured `break`/`continue`). Executing it is a VM trap.
    Unreachable,
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> SuccIter {
        match self {
            Terminator::Jump(t) => SuccIter::One(*t, false),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => SuccIter::Two(*then_bb, *else_bb, 0),
            Terminator::Return(_) | Terminator::Unreachable => SuccIter::None,
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        match self {
            Terminator::Branch { cond, .. } => out.push(*cond),
            Terminator::Return(Some(r)) => out.push(*r),
            _ => {}
        }
    }
}

/// Iterator over a terminator's successors.
#[derive(Debug)]
pub enum SuccIter {
    /// No successors.
    None,
    /// One successor; the bool records whether it was yielded.
    One(BlockId, bool),
    /// Two successors; the u8 counts how many were yielded.
    Two(BlockId, BlockId, u8),
}

impl Iterator for SuccIter {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        match self {
            SuccIter::None => None,
            SuccIter::One(b, done) => {
                if *done {
                    None
                } else {
                    *done = true;
                    Some(*b)
                }
            }
            SuccIter::Two(a, b, n) => match *n {
                0 => {
                    *n = 1;
                    Some(*a)
                }
                1 => {
                    *n = 2;
                    Some(*b)
                }
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{BlockId, FieldId, Reg};

    #[test]
    fn dst_and_uses() {
        let i = Instr::Bin {
            dst: Reg::new(2),
            op: BinOp::Add,
            a: Reg::new(0),
            b: Reg::new(1),
        };
        assert_eq!(i.dst(), Some(Reg::new(2)));
        let mut u = Vec::new();
        i.uses(&mut u);
        assert_eq!(u, vec![Reg::new(0), Reg::new(1)]);
    }

    #[test]
    fn ldg_load_classification() {
        let gf = Instr::GetField {
            dst: Reg::new(0),
            obj: Reg::new(1),
            field: FieldId::new(0),
        };
        assert!(gf.is_ldg_load());
        let c = Instr::Const {
            dst: Reg::new(0),
            value: crate::Const::I32(0),
        };
        assert!(!c.is_ldg_load());
    }

    #[test]
    fn successors() {
        let t = Terminator::Branch {
            cond: Reg::new(0),
            then_bb: BlockId::new(1),
            else_bb: BlockId::new(2),
        };
        let s: Vec<_> = t.successors().collect();
        assert_eq!(s, vec![BlockId::new(1), BlockId::new(2)]);
        assert_eq!(Terminator::Return(None).successors().count(), 0);
        assert_eq!(
            Terminator::Jump(BlockId::new(3))
                .successors()
                .collect::<Vec<_>>(),
            vec![BlockId::new(3)]
        );
    }

    #[test]
    fn prefetch_addr_delta() {
        let a = PrefetchAddr::FieldOf {
            base: Reg::new(1),
            delta: 16,
        };
        let b = a.with_extra_delta(64);
        assert_eq!(
            b,
            PrefetchAddr::FieldOf {
                base: Reg::new(1),
                delta: 80
            }
        );
    }

    #[test]
    fn int_only_ops() {
        assert!(BinOp::Rem.int_only());
        assert!(BinOp::Shl.int_only());
        assert!(!BinOp::Add.int_only());
    }
}
