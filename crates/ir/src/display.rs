//! Human-readable printing of instructions (used by reports and debugging).

use crate::func::Function;
use crate::instr::{Instr, PrefetchAddr};
use crate::program::Program;

/// Renders one instruction as text.
pub fn instr_to_string(program: &Program, _func: &Function, instr: &Instr) -> String {
    let addr_str = |a: &PrefetchAddr| match *a {
        PrefetchAddr::FieldOf { base, delta } => format!("[{base} + {delta}]"),
        PrefetchAddr::ArrayElem {
            arr,
            idx,
            scale,
            delta,
        } => format!("[{arr} + {idx}*{scale} + {delta}]"),
    };
    match instr {
        Instr::Const { dst, value } => format!("{dst} = const {value}"),
        Instr::Move { dst, src } => format!("{dst} = {src}"),
        Instr::Bin { dst, op, a, b } => format!("{dst} = {op:?} {a}, {b}"),
        Instr::Un { dst, op, src } => format!("{dst} = {op:?} {src}"),
        Instr::Cmp { dst, op, a, b } => format!("{dst} = {op:?} {a}, {b}"),
        Instr::Convert { dst, conv, src } => format!("{dst} = {conv:?} {src}"),
        Instr::GetField { dst, obj, field } => {
            let fd = program.field(*field);
            format!("{dst} = getfield {obj}.{}", fd.name)
        }
        Instr::PutField { obj, field, src } => {
            let fd = program.field(*field);
            format!("putfield {obj}.{} = {src}", fd.name)
        }
        Instr::GetStatic { dst, sid } => {
            format!("{dst} = getstatic {}", program.static_def(*sid).name)
        }
        Instr::PutStatic { sid, src } => {
            format!("putstatic {} = {src}", program.static_def(*sid).name)
        }
        Instr::ALoad {
            dst,
            arr,
            idx,
            elem,
        } => format!("{dst} = aload.{elem} {arr}[{idx}]"),
        Instr::AStore {
            arr,
            idx,
            src,
            elem,
        } => format!("astore.{elem} {arr}[{idx}] = {src}"),
        Instr::ArrayLen { dst, arr } => format!("{dst} = arraylength {arr}"),
        Instr::New { dst, class } => format!("{dst} = new {}", program.class(*class).name),
        Instr::NewArray { dst, elem, len } => format!("{dst} = newarray {elem}[{len}]"),
        Instr::Call { dst, callee, args } => {
            let name = program.method(*callee).name();
            let args: Vec<String> = args.iter().map(|r| r.to_string()).collect();
            match dst {
                Some(d) => format!("{d} = call {name}({})", args.join(", ")),
                None => format!("call {name}({})", args.join(", ")),
            }
        }
        Instr::Prefetch { addr, kind } => format!("prefetch.{kind} {}", addr_str(addr)),
        Instr::SpecLoad { dst, addr } => format!("{dst} = spec_load {}", addr_str(addr)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::{ElemTy, Ty};

    #[test]
    fn renders_all_major_forms() {
        let mut pb = ProgramBuilder::new();
        let (cls, fields) = pb.add_class("Token", &[("size", ElemTy::I32)]);
        let sid = pb.add_static("g", ElemTy::I32);
        let mut b = pb.function("show", &[Ty::Ref], Some(Ty::I32));
        let o = b.param(0);
        let v = b.getfield(o, fields[0]);
        b.putstatic(sid, v);
        let t = b.new_object(cls);
        let n = b.const_i32(4);
        let arr = b.new_array(ElemTy::Ref, n);
        let zero = b.const_i32(0);
        b.astore(arr, zero, t, ElemTy::Ref);
        let len = b.arraylen(arr);
        b.ret(Some(len));
        let m = b.finish();
        let p = pb.finish();
        let f = p.method(m).func();
        let lines: Vec<String> = (f.instr_sites())
            .map(|s| instr_to_string(&p, f, f.instr(s)))
            .collect();
        let text = lines.join("\n");
        assert!(text.contains("getfield r0.size"), "{text}");
        assert!(text.contains("new Token"), "{text}");
        assert!(text.contains("newarray ref"), "{text}");
        assert!(text.contains("arraylength"), "{text}");
        assert!(text.contains("putstatic g"), "{text}");
    }
}
