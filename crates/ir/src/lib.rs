//! Typed register IR for the stride-prefetch JIT reproduction.
//!
//! This crate provides the compiler substrate the paper's algorithm runs on:
//!
//! * a Java-bytecode-like, register-based intermediate representation
//!   ([`Instr`], [`Function`], [`Program`]) including the load instructions
//!   that can appear in a *load dependence graph* (`GetField`, `GetStatic`,
//!   `ALoad`, `ArrayLen`) and the two pseudo-instructions the optimizer
//!   inserts (`Prefetch`, `SpecLoad`);
//! * a [`FunctionBuilder`] with structured control flow for writing
//!   workloads by hand;
//! * classic analyses: control-flow graph ([`cfg::Cfg`]), dominators
//!   ([`dom::DomTree`]), a loop nesting forest ([`loops::LoopForest`]) and
//!   reaching definitions / use-def chains ([`defuse::UseDef`]);
//! * an IR [`verify::verify`] pass used by tests and by the builder.
//!
//! # Example
//!
//! ```
//! use spf_ir::{ProgramBuilder, Ty, Const};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut b = pb.function("add1", &[Ty::I32], Some(Ty::I32));
//! let x = b.param(0);
//! let one = b.const_i32(1);
//! let y = b.add(x, one);
//! b.ret(Some(y));
//! let m = b.finish();
//! let program = pb.finish();
//! assert_eq!(program.method(m).name(), "add1");
//! ```

pub mod bitset;
pub mod builder;
pub mod cfg;
pub mod defuse;
pub mod display;
pub mod dom;
pub mod entities;
pub mod func;
pub mod instr;
pub mod loops;
pub mod packed;
pub mod program;
pub mod types;
pub mod verify;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use entities::{BlockId, ClassId, FieldId, InstrRef, MethodId, Reg, StaticId};
pub use func::{Block, Function};
pub use instr::{BinOp, CmpOp, Conv, Instr, PrefetchAddr, PrefetchKind, Terminator, UnOp};
pub use packed::{pack_reg_pair, unpack_reg_pair};
pub use program::{ClassDef, FieldDef, MethodDef, Program, StaticDef};
pub use types::{Const, ElemTy, Ty};
