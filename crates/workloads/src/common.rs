//! Shared workload infrastructure: sizes, the registry entry type, and IR
//! helpers (a deterministic LCG and a Fisher–Yates shuffle emitted as IR).

use std::sync::Arc;

use spf_core::PrefetchOptions;
use spf_ir::{CmpOp, ElemTy, FunctionBuilder, MethodId, Program, Reg, StaticId};
use spf_memsim::ProcessorConfig;
use spf_vm::{NoopSink, Predecoded, TraceSink, Vm, VmConfig};

/// Problem size, analogous to SPEC's problem-size knob (the paper uses 100
/// for SPECjvm98 and "Size A" for JavaGrande).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Size {
    /// Seconds-long unit-test size.
    Tiny,
    /// Criterion-bench size.
    Small,
    /// Figure-regeneration size (the default for `figures`).
    Full,
}

impl Size {
    /// Scales a `Full`-size parameter down for smaller runs.
    pub fn scale(self, full: i32) -> i32 {
        match self {
            Size::Tiny => (full / 16).max(4),
            Size::Small => (full / 4).max(8),
            Size::Full => full,
        }
    }
}

impl std::str::FromStr for Size {
    type Err = String;

    /// The one spelling of a size word every binary accepts.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "tiny" => Ok(Size::Tiny),
            "small" => Ok(Size::Small),
            "full" => Ok(Size::Full),
            _ => Err(format!("unknown size {s:?}; expected tiny, small or full")),
        }
    }
}

/// Which suite the original benchmark belongs to (Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// SPECjvm98.
    SpecJvm98,
    /// JavaGrande v2.0 Section 3.
    JavaGrande,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::SpecJvm98 => f.write_str("SPECjvm98"),
            Suite::JavaGrande => f.write_str("JavaGrande"),
        }
    }
}

/// A built workload, ready to run on a [`spf_vm::Vm`].
#[derive(Debug)]
pub struct BuiltWorkload {
    /// The program.
    pub program: Program,
    /// Entry method; takes no arguments and returns an `I32` checksum.
    pub entry: MethodId,
    /// Heap capacity the workload needs.
    pub heap_bytes: usize,
    /// Expected checksum, if the workload is fully deterministic.
    pub expected: Option<i32>,
    /// Invocation count at which methods are JIT-compiled. Most workloads
    /// use the VM default (2); interpreter-heavy ones (jack) use a higher
    /// threshold so their many once-called methods stay interpreted, which
    /// is what produces their low compiled-code fraction in Table 3.
    pub compile_threshold: u32,
}

/// A registry entry describing one workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Short name, matching the paper's (e.g. "db", "Euler").
    pub name: &'static str,
    /// Table 3 description.
    pub description: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// Builder.
    pub build: fn(Size) -> BuiltWorkload,
}

impl WorkloadSpec {
    /// Builds the workload at `size` and pre-decodes its method bodies.
    pub fn prepare<S: TraceSink>(&self, size: Size) -> Prepared<S> {
        let built = (self.build)(size);
        Prepared {
            name: self.name,
            pre: Arc::new(Predecoded::new(built.program)),
            entry: built.entry,
            heap_bytes: built.heap_bytes,
            expected: built.expected,
            compile_threshold: built.compile_threshold,
        }
    }
}

/// A registry workload built and pre-decoded once: the one road from a
/// [`WorkloadSpec`] to a warm [`Vm`]. Every VM made from it shares the
/// decoded method bodies, so a matrix sweep or a tenant fleet decodes
/// each program once instead of once per VM.
pub struct Prepared<S: TraceSink = NoopSink> {
    name: &'static str,
    pre: Arc<Predecoded<S>>,
    entry: MethodId,
    heap_bytes: usize,
    expected: Option<i32>,
    compile_threshold: u32,
}

impl<S: TraceSink> Prepared<S> {
    /// The workload's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configuration a VM of this workload runs under: its heap size
    /// and compile threshold, `options`, and the defaults for the rest.
    pub fn vm_config(&self, options: &PrefetchOptions) -> VmConfig {
        VmConfig {
            heap_bytes: self.heap_bytes,
            prefetch: options.clone(),
            compile_threshold: self.compile_threshold,
            ..VmConfig::default()
        }
    }

    /// A fresh VM over the shared bodies. `config` is
    /// [`vm_config`](Self::vm_config), as is or with fields overridden.
    pub fn vm(&self, config: VmConfig, proc: &ProcessorConfig, sink: S) -> Vm<S> {
        Vm::from_predecoded(&self.pre, config, proc.clone(), sink)
    }

    /// Calls the entry method `runs` times and returns the last checksum.
    ///
    /// # Panics
    ///
    /// Panics, naming the workload, if a call faults or the checksum is
    /// not the one the workload declares.
    pub fn warm(&self, vm: &mut Vm<S>, runs: u32) -> i32 {
        let mut checksum = 0;
        for _ in 0..runs {
            checksum = vm
                .call(self.entry, &[])
                .unwrap_or_else(|e| panic!("{} faulted: {e}", self.name))
                .expect("entry returns a checksum")
                .as_i32();
        }
        if let Some(expected) = self.expected {
            assert_eq!(checksum, expected, "{} checksum", self.name);
        }
        checksum
    }
}

/// Emits `seed = seed * 1103515245 + 12345; value = (seed >>> 16) & 0x7fff`
/// against a static seed slot; returns the non-negative pseudo-random
/// `I32`.
pub fn emit_lcg_next(b: &mut FunctionBuilder<'_>, seed: StaticId) -> Reg {
    let s = b.getstatic(seed);
    let a = b.const_i32(1103515245);
    let c = b.const_i32(12345);
    let sa = b.mul(s, a);
    let s2 = b.add(sa, c);
    b.putstatic(seed, s2);
    let sixteen = b.const_i32(16);
    let hi = b.bin(spf_ir::BinOp::UShr, s2, sixteen);
    let mask = b.const_i32(0x7fff);
    b.and(hi, mask)
}

/// Emits a Fisher–Yates shuffle of the first `n` elements of `arr` (an
/// array of references) driven by the LCG at `seed`.
pub fn emit_shuffle_refs(b: &mut FunctionBuilder<'_>, arr: Reg, n: Reg, seed: StaticId) {
    // for i in (1..n).rev() { j = rnd % (i+1); swap(arr[i], arr[j]) }
    // Implemented forward for simplicity: for i in 0..n { j = rnd % n; swap }
    b.for_i32(
        0,
        1,
        CmpOp::Lt,
        |_| n,
        |b, i| {
            let r = emit_lcg_next(b, seed);
            let j = b.rem(r, n);
            let ai = b.aload(arr, i, ElemTy::Ref);
            let aj = b.aload(arr, j, ElemTy::Ref);
            b.astore(arr, i, aj, ElemTy::Ref);
            b.astore(arr, j, ai, ElemTy::Ref);
        },
    );
}

/// Emits `checksum = checksum * 31 + v` and returns the new checksum
/// register value (callers keep `checksum` in a mutable register).
pub fn emit_mix(b: &mut FunctionBuilder<'_>, checksum: Reg, v: Reg) {
    let thirty_one = b.const_i32(31);
    let m = b.mul(checksum, thirty_one);
    let s = b.add(m, v);
    b.move_(checksum, s);
}

/// Declares the conventional seed static used by workloads.
pub fn add_seed(pb: &mut spf_ir::ProgramBuilder, name: &str) -> StaticId {
    pb.add_static(name, ElemTy::I32)
}

/// Emits code setting static `seed` to `value`.
pub fn emit_set_seed(b: &mut FunctionBuilder<'_>, seed: StaticId, value: i32) {
    let v = b.const_i32(value);
    b.putstatic(seed, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_heap::Value;
    use spf_ir::Ty;

    #[test]
    fn size_scaling() {
        assert_eq!(Size::Full.scale(1600), 1600);
        assert_eq!(Size::Small.scale(1600), 400);
        assert_eq!(Size::Tiny.scale(1600), 100);
        assert_eq!(Size::Tiny.scale(8), 4);
    }

    #[test]
    fn size_words_parse_strictly() {
        assert_eq!("tiny".parse(), Ok(Size::Tiny));
        assert_eq!("small".parse(), Ok(Size::Small));
        assert_eq!("full".parse(), Ok(Size::Full));
        for bad in ["", "tinny", "Tiny", " tiny", "db", "--jobs", "1"] {
            let err = bad.parse::<Size>().unwrap_err();
            for word in ["tiny", "small", "full"] {
                assert!(err.contains(word), "{bad:?}: {err}");
            }
        }
    }

    #[test]
    fn lcg_is_deterministic_and_nonnegative() {
        let mut pb = spf_ir::ProgramBuilder::new();
        let seed = add_seed(&mut pb, "seed");
        let mut b = pb.function("main", &[], Some(Ty::I32));
        emit_set_seed(&mut b, seed, 42);
        let acc = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(acc, z);
        let n = b.const_i32(100);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, _| {
                let r = emit_lcg_next(b, seed);
                // all values in [0, 0x7fff]
                let neg = b.const_i32(0);
                let bad = b.lt(r, neg);
                b.if_(bad, |b| {
                    let m1 = b.const_i32(-1_000_000);
                    b.move_(acc, m1);
                });
                emit_mix(b, acc, r);
            },
        );
        b.ret(Some(acc));
        let main = b.finish();
        let p = pb.finish();
        let mut vm1 = Vm::new(p.clone(), VmConfig::default(), ProcessorConfig::pentium4());
        let mut vm2 = Vm::new(p, VmConfig::default(), ProcessorConfig::athlon_mp());
        let a = vm1.call(main, &[]).unwrap();
        let b2 = vm2.call(main, &[]).unwrap();
        assert_eq!(a, b2, "LCG independent of processor model");
        assert_ne!(a, Some(Value::I32(-1_000_000)), "no negative draws");
    }

    #[test]
    fn shuffle_permutes() {
        let mut pb = spf_ir::ProgramBuilder::new();
        let (cls, fs) = pb.add_class("Tag", &[("id", ElemTy::I32)]);
        let seed = add_seed(&mut pb, "seed");
        let mut b = pb.function("main", &[], Some(Ty::I32));
        emit_set_seed(&mut b, seed, 7);
        let n = b.const_i32(32);
        let arr = b.new_array(ElemTy::Ref, n);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, i| {
                let o = b.new_object(cls);
                b.putfield(o, fs[0], i);
                b.astore(arr, i, o, ElemTy::Ref);
            },
        );
        emit_shuffle_refs(&mut b, arr, n, seed);
        // Sum of ids must be invariant (0 + 1 + ... + 31 = 496); also count
        // how many stayed in place.
        let sum = b.new_reg(Ty::I32);
        let inplace = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(sum, z);
        b.move_(inplace, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, i| {
                let o = b.aload(arr, i, ElemTy::Ref);
                let id = b.getfield(o, fs[0]);
                let s = b.add(sum, id);
                b.move_(sum, s);
                let same = b.eq(id, i);
                b.if_(same, |b| b.inc(inplace, 1));
            },
        );
        // return sum * 100 + inplace
        let hundred = b.const_i32(100);
        let scaled = b.mul(sum, hundred);
        let out = b.add(scaled, inplace);
        b.ret(Some(out));
        let main = b.finish();
        let mut vm = Vm::new(
            pb.finish(),
            VmConfig::default(),
            ProcessorConfig::pentium4(),
        );
        let out = vm.call(main, &[]).unwrap().unwrap().as_i32();
        let (sum, inplace) = (out / 100, out % 100);
        assert_eq!(sum, 496, "shuffle preserved the multiset");
        assert!(inplace < 16, "shuffle actually moved things: {inplace}");
    }
}
