//! The load dependence graph (paper §3.1).
//!
//! Each node is a load instruction in the target loop that uses a reference
//! as an operand (`getfield`, `getstatic`, array loads, `arraylength`); a
//! directed edge `L1 -> L2` exists iff `L2` is *directly data dependent*
//! upon `L1`, i.e. `L2` loads through the value `L1` loaded. Only adjacent
//! pairs in this graph are checked for intra-iteration stride patterns,
//! which bounds the cost of object inspection.

use std::collections::HashMap;

use spf_ir::defuse::{DefSite, UseDef};
use spf_ir::loops::{LoopForest, LoopId};
use spf_ir::{Function, Instr, InstrRef, Program, Reg};

/// Identifies a node within one [`Ldg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LdgNodeId(u32);

impl LdgNodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LdgNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0 + 1) // 1-based, like the paper's Table 1
    }
}

/// One load instruction in the graph.
#[derive(Clone, Debug)]
pub struct LdgNode {
    /// The load's instruction site.
    pub site: InstrRef,
    /// The innermost loop containing the site (used for the small-trip-count
    /// rule when nested loops are folded into their parent).
    pub innermost: Option<LoopId>,
    /// Dominant inter-iteration stride, once annotated by stride analysis.
    pub inter_stride: Option<i64>,
    /// Number of address samples the annotation is based on.
    pub samples: usize,
}

/// A direct data dependence between two loads.
#[derive(Clone, Debug)]
pub struct LdgEdge {
    /// The load producing the reference.
    pub from: LdgNodeId,
    /// The load consuming it as base address.
    pub to: LdgNodeId,
    /// Dominant intra-iteration stride `A(to) - A(from)`, once annotated.
    pub intra_stride: Option<i64>,
}

/// The load dependence graph of one loop.
#[derive(Clone, Debug, Default)]
pub struct Ldg {
    nodes: Vec<LdgNode>,
    edges: Vec<LdgEdge>,
    by_site: HashMap<InstrRef, LdgNodeId>,
}

impl Ldg {
    /// Builds the graph for the loop `target` of `func`.
    ///
    /// Loads inside nested loops are included (the decision whether their
    /// nested loop has a small enough trip count to exploit them is made
    /// after inspection). Edges are derived from use-def chains, following
    /// `Move` copies; a base whose reaching definition is not unique
    /// contributes no edge, keeping the analysis cheap and conservative.
    pub fn build(func: &Function, ud: &UseDef, forest: &LoopForest, target: LoopId) -> Self {
        let info = forest.info(target);
        let mut ldg = Ldg::default();
        for b in func.block_ids() {
            if !info.contains(b) {
                continue;
            }
            for (i, instr) in func.block(b).instrs.iter().enumerate() {
                if instr.is_ldg_load() {
                    let site = InstrRef::new(b, i);
                    let id = LdgNodeId(ldg.nodes.len() as u32);
                    ldg.nodes.push(LdgNode {
                        site,
                        innermost: forest.innermost(b),
                        inter_stride: None,
                        samples: 0,
                    });
                    ldg.by_site.insert(site, id);
                }
            }
        }
        // Edges: trace each node's base operand back to a producing load.
        for to in 0..ldg.nodes.len() {
            let site = ldg.nodes[to].site;
            let base = match func.instr(site) {
                Instr::GetField { obj, .. } => Some(*obj),
                Instr::ALoad { arr, .. } => Some(*arr),
                Instr::AStore { .. } => None,
                Instr::ArrayLen { arr, .. } => Some(*arr),
                _ => None, // GetStatic has no register base
            };
            if let Some(reg) = base {
                if let Some(origin) = trace_origin(func, ud, &ldg.by_site, site, reg, 0) {
                    let from = ldg.by_site[&origin];
                    ldg.edges.push(LdgEdge {
                        from,
                        to: LdgNodeId(to as u32),
                        intra_stride: None,
                    });
                }
            }
        }
        ldg
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = LdgNodeId> {
        (0..self.nodes.len() as u32).map(LdgNodeId)
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics on an id from another graph.
    pub fn node(&self, id: LdgNodeId) -> &LdgNode {
        &self.nodes[id.index()]
    }

    /// Mutably borrows a node (stride analysis annotates through this).
    ///
    /// # Panics
    ///
    /// Panics on an id from another graph.
    pub fn node_mut(&mut self, id: LdgNodeId) -> &mut LdgNode {
        &mut self.nodes[id.index()]
    }

    /// All edges.
    pub fn edges(&self) -> &[LdgEdge] {
        &self.edges
    }

    /// Mutable access to the edges (for stride annotation).
    pub fn edges_mut(&mut self) -> &mut [LdgEdge] {
        &mut self.edges
    }

    /// The node for a load site, if it is in the graph.
    pub fn node_at(&self, site: InstrRef) -> Option<LdgNodeId> {
        self.by_site.get(&site).copied()
    }

    /// Ids of nodes adjacent to `id` (successors: loads data-dependent on
    /// it).
    pub fn successors(&self, id: LdgNodeId) -> impl Iterator<Item = &LdgEdge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// The edge `from -> to`, if present.
    pub fn edge(&self, from: LdgNodeId, to: LdgNodeId) -> Option<&LdgEdge> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }

    /// The paper-style symbolic address of a node's load (Table 1's
    /// "Memory addresses" column): `&base.field`, `&arr[idx]`,
    /// `&arr.length`, or `&statics.name`.
    pub fn symbolic_address(program: &Program, func: &Function, site: InstrRef) -> String {
        match func.instr(site) {
            Instr::GetField { obj, field, .. } => {
                format!("&{obj}.{}", program.field(*field).name)
            }
            Instr::ALoad { arr, idx, .. } => format!("&{arr}[{idx}]"),
            Instr::ArrayLen { arr, .. } => format!("&{arr}.length"),
            Instr::GetStatic { sid, .. } => {
                format!("&statics.{}", program.static_def(*sid).name)
            }
            other => format!("{other:?}"),
        }
    }

    /// Renders the graph like the paper's Figure 5: one line per node with
    /// its instruction, then the edge list.
    pub fn render(&self, program: &Program, func: &Function) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for id in self.node_ids() {
            let n = self.node(id);
            let _ = writeln!(
                s,
                "{id:>4}  {:<22} {}",
                Self::symbolic_address(program, func, n.site),
                spf_ir::display::instr_to_string(program, func, func.instr(n.site))
            );
        }
        for e in &self.edges {
            let _ = writeln!(s, "      {} -> {}", e.from, e.to);
        }
        s
    }
}

/// Follows use-def chains (through `Move`s) from the use of `reg` at `site`
/// to a load site in `nodes`, if the chain is unique.
fn trace_origin(
    func: &Function,
    ud: &UseDef,
    nodes: &HashMap<InstrRef, LdgNodeId>,
    site: InstrRef,
    reg: Reg,
    depth: usize,
) -> Option<InstrRef> {
    if depth > 32 {
        return None;
    }
    match ud.unique_reaching_def(func, site, reg)? {
        DefSite::Param(_) => None,
        DefSite::Instr(def_site) => match func.instr(def_site) {
            Instr::Move { src, .. } => trace_origin(func, ud, nodes, def_site, *src, depth + 1),
            instr if instr.is_ldg_load() => nodes.contains_key(&def_site).then_some(def_site),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::cfg::Cfg;
    use spf_ir::dom::DomTree;
    use spf_ir::{CmpOp, ElemTy, ProgramBuilder, Ty};

    /// Builds a mini `findInMemory`-style method:
    /// for i in 0..tv.ptr { tmp = tv.v[i]; s += tmp.size }
    fn build_chase() -> (Program, spf_ir::MethodId) {
        let mut pb = ProgramBuilder::new();
        let (_tok, tok_fields) =
            pb.add_class("Token", &[("size", ElemTy::I32), ("facts", ElemTy::Ref)]);
        let (_tv, tv_fields) =
            pb.add_class("TokenVector", &[("v", ElemTy::Ref), ("ptr", ElemTy::I32)]);
        let mut b = pb.function("find", &[Ty::Ref], Some(Ty::I32));
        let tv = b.param(0);
        let sum = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(sum, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |b| b.getfield(tv, tv_fields[1]), // L1: tv.ptr
            |b, i| {
                let v = b.getfield(tv, tv_fields[0]); // L2: tv.v
                let tmp = b.aload(v, i, ElemTy::Ref); // L4: tv.v[i]
                let sz = b.getfield(tmp, tok_fields[0]); // L5: tmp.size
                let s2 = b.add(sum, sz);
                b.move_(sum, s2);
            },
        );
        b.ret(Some(sum));
        let m = b.finish();
        (pb.finish(), m)
    }

    fn build_ldg(p: &Program, m: spf_ir::MethodId) -> (Ldg, LoopId) {
        let f = p.method(m).func();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        let ud = UseDef::compute(f, &cfg);
        let target = forest.roots()[0];
        (Ldg::build(f, &ud, &forest, target), target)
    }

    #[test]
    fn nodes_are_the_loop_loads() {
        let (p, m) = build_chase();
        let (ldg, _) = build_ldg(&p, m);
        // tv.ptr (header), tv.v, tv.v[i], tmp.size
        assert_eq!(ldg.len(), 4);
    }

    #[test]
    fn edges_follow_reference_chasing() {
        let (p, m) = build_chase();
        let (ldg, _) = build_ldg(&p, m);
        let f = p.method(m).func();
        // Find each node by instruction form.
        let mut aload = None;
        let mut getsize = None;
        let mut getv = None;
        for id in ldg.node_ids() {
            match f.instr(ldg.node(id).site) {
                Instr::ALoad { .. } => aload = Some(id),
                Instr::GetField { field, .. } if p.field(*field).name == "size" => {
                    getsize = Some(id)
                }
                Instr::GetField { field, .. } if p.field(*field).name == "v" => getv = Some(id),
                _ => {}
            }
        }
        let (aload, getsize, getv) = (aload.unwrap(), getsize.unwrap(), getv.unwrap());
        // tv.v -> tv.v[i]  and  tv.v[i] -> tmp.size
        assert!(ldg.edge(getv, aload).is_some(), "{}", ldg.render(&p, f));
        assert!(ldg.edge(aload, getsize).is_some(), "{}", ldg.render(&p, f));
        // No edge into tv.v: its base is a parameter.
        assert!(ldg.edges().iter().all(|e| e.to != getv));
    }

    #[test]
    fn render_mentions_nodes_and_edges() {
        let (p, m) = build_chase();
        let (ldg, _) = build_ldg(&p, m);
        let text = ldg.render(&p, p.method(m).func());
        assert!(text.contains("L1"), "{text}");
        assert!(text.contains("->"), "{text}");
    }

    #[test]
    fn symbolic_addresses_match_table1_style() {
        let (p, m) = build_chase();
        let (ldg, _) = build_ldg(&p, m);
        let f = p.method(m).func();
        let rendered: Vec<String> = ldg
            .node_ids()
            .map(|id| Ldg::symbolic_address(&p, f, ldg.node(id).site))
            .collect();
        // Table 1 style: &tv.ptr, &tv.v, &tv.v[i], &tmp.size (register names
        // stand in for source names).
        assert!(rendered.iter().any(|a| a.ends_with(".ptr")), "{rendered:?}");
        assert!(
            rendered.iter().any(|a| a.ends_with(".size")),
            "{rendered:?}"
        );
        assert!(rendered.iter().any(|a| a.contains('[')), "{rendered:?}");
    }

    #[test]
    fn getstatic_is_a_leafless_node() {
        let mut pb = ProgramBuilder::new();
        let sid = pb.add_static("g", ElemTy::Ref);
        let mut b = pb.function("s", &[Ty::I32], None);
        let n = b.param(0);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, _| {
                let g = b.getstatic(sid);
                let _len = b.arraylen(g);
            },
        );
        let m = b.finish();
        let p = pb.finish();
        let (ldg, _) = build_ldg(&p, m);
        assert_eq!(ldg.len(), 2);
        // getstatic -> arraylength edge exists.
        assert_eq!(ldg.edges().len(), 1);
    }
}
