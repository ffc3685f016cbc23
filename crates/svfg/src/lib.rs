//! The sparse value-flow graph (SVFG) — Section II-B of the paper.
//!
//! Nodes are the program's instructions (call instructions contribute two
//! nodes: the call itself and its *return side*, mirroring SVF's
//! `ActualIN`/`ActualOUT` split) plus the `MEMPHI`s inserted by memory-SSA
//! construction.
//!
//! Edges come in two flavours:
//!
//! * **Direct** edges carry top-level (`P`) value flow. They are trivial
//!   to compute from SSA def-use chains, plus call/return bindings.
//! * **Indirect** edges carry address-taken (`A`) value flow; each is
//!   labelled with the object `o` whose points-to state flows along it.
//!   They come from the memory-SSA def-use chains.
//!
//! Interprocedural indirect edges for **indirect** call sites are *not*
//! materialised eagerly: they are recorded as [`CallBinding`]s keyed by
//! `(call site, callee)` and activated by the flow-sensitive solver when
//! its own (more precise) call-graph resolution proves the callee — the
//! paper's on-the-fly call-graph construction. The nodes whose inputs can
//! grow this way are the δ nodes of Section IV-C1: `FUNENTRY` nodes of
//! address-taken functions and return sides of indirect calls.
//!
//! # Examples
//!
//! ```
//! let prog = vsfs_ir::parse_program(r#"
//! func @main() {
//! entry:
//!   %p = alloc stack A
//!   %q = alloc heap H
//!   store %q, %p
//!   %r = load %p
//!   ret
//! }
//! "#)?;
//! let aux = vsfs_andersen::analyze(&prog);
//! let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
//! let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
//! assert!(svfg.indirect_edge_count() >= 1); // store --A--> load
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod build;
pub mod dot;
pub mod stable;

pub use dot::{DotAnnotations, DotRole};
pub use stable::StableKeys;

use vsfs_adt::{define_index, Adjacency, FxHashMap, IndexVec};
use vsfs_ir::{DefUse, FuncId, InstId, ObjId};
use vsfs_mssa::MemPhiId;

define_index!(
    /// A node of the SVFG.
    SvfgNodeId,
    "n"
);

define_index!(
    /// An interned object-label set shared by the graph's indirect edges.
    ///
    /// A `(from, to)` node pair with value flow for many objects is one
    /// grouped edge labelled by an `ObjSetId`; identical label sets across
    /// pairs share one id (on large workloads the ~15× label repetition
    /// collapses accordingly). Resolve with [`Svfg::obj_set`].
    ObjSetId,
    "os"
);

/// What an SVFG node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SvfgNodeKind {
    /// An ordinary instruction — or the *call side* of a `CALL`
    /// (argument passing, µ relay into callees).
    Inst(InstId),
    /// The *return side* of a `CALL` (receives callee exit state and the
    /// bypass value; defines the call's χs).
    CallRet(InstId),
    /// A `MEMPHI` inserted by memory-SSA construction.
    MemPhi(MemPhiId),
}

/// Interprocedural indirect value-flow of one `(call site, callee)` pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallBinding {
    /// Objects flowing caller → callee (`call node --o--> FUNENTRY`).
    pub ins: Vec<ObjId>,
    /// Objects flowing callee → caller (`FUNEXIT --o--> return side`).
    pub outs: Vec<ObjId>,
}

/// The sparse value-flow graph.
///
/// Every per-node list is stored flat ([`Adjacency`]: one offsets array
/// plus one item array).
#[derive(Debug, Clone)]
pub struct Svfg {
    pub(crate) nodes: IndexVec<SvfgNodeId, SvfgNodeKind>,
    /// The node of each instruction (its call side, for calls; the return
    /// side of call `i` is always the node after it).
    pub(crate) node_of_inst: IndexVec<InstId, SvfgNodeId>,
    pub(crate) node_of_memphi: IndexVec<MemPhiId, SvfgNodeId>,
    pub(crate) direct_succs: Adjacency<SvfgNodeId>,
    /// Grouped indirect edges: one entry per `(from, to)` pair, labelled
    /// by an interned object set.
    pub(crate) ind_succs: Adjacency<SvfgNodeId, (SvfgNodeId, ObjSetId)>,
    pub(crate) ind_preds: Adjacency<SvfgNodeId, (SvfgNodeId, ObjSetId)>,
    /// Interned label sets: arena of sorted object ids plus per-set
    /// `(start, len)` spans, indexed by [`ObjSetId`].
    pub(crate) obj_set_arena: Vec<ObjId>,
    pub(crate) obj_set_spans: Vec<(u32, u32)>,
    pub(crate) call_bindings: FxHashMap<(InstId, FuncId), CallBinding>,
    pub(crate) delta: IndexVec<SvfgNodeId, bool>,
    pub(crate) indirect_edges: usize,
    /// Top-level def-use chains of the program, shared with the solvers.
    pub(crate) defuse: DefUse,
}

impl Svfg {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of direct (top-level) edges, including call/return bindings
    /// resolved by the auxiliary analysis.
    pub fn direct_edge_count(&self) -> usize {
        self.direct_succs.len()
    }

    /// Number of indirect (address-taken) edges, including the
    /// interprocedural edges recorded in call bindings.
    pub fn indirect_edge_count(&self) -> usize {
        self.indirect_edges
    }

    /// What `node` represents.
    pub fn kind(&self, node: SvfgNodeId) -> SvfgNodeKind {
        self.nodes[node]
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = SvfgNodeId> + 'static {
        (0..self.nodes.len()).map(|i| SvfgNodeId::new(i as u32))
    }

    /// The node of instruction `inst` (the call side, for calls).
    pub fn inst_node(&self, inst: InstId) -> SvfgNodeId {
        self.node_of_inst[inst]
    }

    /// The return-side node of call instruction `call`.
    ///
    /// # Panics
    ///
    /// Panics if `call` is not a call instruction.
    pub fn callret_node(&self, call: InstId) -> SvfgNodeId {
        let n = SvfgNodeId::new(self.node_of_inst[call].raw() + 1);
        assert!(
            self.nodes.get(n) == Some(&SvfgNodeKind::CallRet(call)),
            "{call:?} is not a call instruction"
        );
        n
    }

    /// The node of a `MEMPHI`.
    pub fn memphi_node(&self, phi: MemPhiId) -> SvfgNodeId {
        self.node_of_memphi[phi]
    }

    /// Direct successors of `node`.
    pub fn direct_succs(&self, node: SvfgNodeId) -> &[SvfgNodeId] {
        self.direct_succs.of(node)
    }

    /// Grouped indirect successors of `node`: one entry per successor,
    /// labelled with the interned set of objects flowing along the edge
    /// (intraprocedural + direct-call interprocedural). Sorted by
    /// successor id.
    pub fn indirect_succs(&self, node: SvfgNodeId) -> &[(SvfgNodeId, ObjSetId)] {
        self.ind_succs.of(node)
    }

    /// Grouped indirect predecessors of `node`, sorted by predecessor id.
    pub fn indirect_preds(&self, node: SvfgNodeId) -> &[(SvfgNodeId, ObjSetId)] {
        self.ind_preds.of(node)
    }

    /// The object labels behind an interned set id, sorted ascending.
    pub fn obj_set(&self, set: ObjSetId) -> &[ObjId] {
        let (start, len) = self.obj_set_spans[set.index()];
        &self.obj_set_arena[start as usize..(start + len) as usize]
    }

    /// Number of distinct interned object-label sets.
    pub fn obj_set_count(&self) -> usize {
        self.obj_set_spans.len()
    }

    /// Indirect successors of `node` expanded to per-object labelled
    /// edges, as `(succ, obj)` pairs.
    pub fn indirect_succs_expanded(
        &self,
        node: SvfgNodeId,
    ) -> impl Iterator<Item = (SvfgNodeId, ObjId)> + '_ {
        self.ind_succs
            .of(node)
            .iter()
            .flat_map(move |&(t, s)| self.obj_set(s).iter().map(move |&o| (t, o)))
    }

    /// Indirect predecessors of `node` expanded to per-object labelled
    /// edges, as `(pred, obj)` pairs.
    pub fn indirect_preds_expanded(
        &self,
        node: SvfgNodeId,
    ) -> impl Iterator<Item = (SvfgNodeId, ObjId)> + '_ {
        self.ind_preds
            .of(node)
            .iter()
            .flat_map(move |&(f, s)| self.obj_set(s).iter().map(move |&o| (f, o)))
    }

    /// The deferred interprocedural binding for `(call, callee)`, if the
    /// auxiliary analysis considered that target possible.
    pub fn call_binding(&self, call: InstId, callee: FuncId) -> Option<&CallBinding> {
        self.call_bindings.get(&(call, callee))
    }

    /// Iterates all deferred `(call, callee)` bindings.
    pub fn call_bindings(&self) -> impl Iterator<Item = (&(InstId, FuncId), &CallBinding)> {
        self.call_bindings.iter()
    }

    /// Returns `true` if `node` is a δ node (Section IV-C1): its incoming
    /// indirect edges may grow during flow-sensitive solving due to
    /// on-the-fly call-graph resolution.
    pub fn is_delta(&self, node: SvfgNodeId) -> bool {
        self.delta[node]
    }

    /// The program's top-level def-use chains, computed once by
    /// [`Svfg::build`] (its direct edges come from them).
    pub fn defuse(&self) -> &DefUse {
        &self.defuse
    }
}
