//! The generic source-sink reachability engine.
//!
//! A checker's *source* introduces a taint fact "object `o`'s memory
//! state, as of this SVFG node" (e.g. "freed at this `FREE`"). The fact
//! propagates forward along the graph the memory-SSA renaming already
//! built: an `o`-labelled indirect edge means the target consumes the
//! source's memory state of `o`, so the taint travels *unguarded* — it
//! cannot be killed, because even a strong update's χ produces a state
//! observed *after* the tainted one, and any later µ wired to the
//! tainted def genuinely observes it. Precision enters only at the ends:
//! which objects are seeded (source guard) and which reached nodes count
//! (sink guard), both answered by the caller through its
//! [`crate::PtsView`].
//!
//! Interprocedural edges for *indirect* call sites are not materialised
//! in the SVFG; they live in deferred [`vsfs_svfg::CallBinding`]s keyed
//! by `(call, callee)`. [`TaintGraph`] activates exactly the bindings
//! whose call edge the view resolves, mirroring what the flow-sensitive
//! solver itself does on the fly — so the Andersen view walks more
//! interprocedural edges than the flow-sensitive view, as it should.

use std::collections::VecDeque;
use vsfs_adt::{FxHashMap, FxHashSet};
use vsfs_ir::{ObjId, Program};
use vsfs_svfg::{Svfg, SvfgNodeId};

use crate::view::PtsView;

/// The SVFG plus the interprocedural binding edges a view activates.
pub struct TaintGraph<'a> {
    svfg: &'a Svfg,
    /// Activated `CallBinding` edges, keyed by source node.
    extra_succs: FxHashMap<SvfgNodeId, Vec<(SvfgNodeId, ObjId)>>,
}

/// One BFS wave from a single source node: every traversed edge in BFS
/// order, plus the parent map for path reconstruction.
pub struct Wave {
    seed: SvfgNodeId,
    parent: FxHashMap<(SvfgNodeId, ObjId), (SvfgNodeId, ObjId)>,
    /// Every `(from, object, to)` edge the wave crossed, in BFS order.
    /// Edges into already-visited nodes are included (a loop can carry a
    /// freed object back into its own `FREE`), so sink scans must
    /// deduplicate findings themselves.
    pub edges: Vec<(SvfgNodeId, ObjId, SvfgNodeId)>,
}

impl Wave {
    /// The node path `seed → … → from → to` that first carried `obj` to
    /// `from`. Deterministic: BFS with deterministically ordered edges
    /// makes the first-discovery parent unique.
    pub fn path(&self, from: SvfgNodeId, obj: ObjId, to: SvfgNodeId) -> Vec<SvfgNodeId> {
        let mut rev = vec![to, from];
        let mut cur = (from, obj);
        while cur.0 != self.seed {
            match self.parent.get(&cur) {
                Some(&p) => {
                    rev.push(p.0);
                    cur = p;
                }
                None => break,
            }
        }
        rev.reverse();
        rev
    }
}

impl<'a> TaintGraph<'a> {
    /// Builds the propagation graph for one view: the SVFG's materialised
    /// indirect edges plus the deferred call-binding edges of every call
    /// edge the view resolves.
    pub fn new(prog: &Program, svfg: &'a Svfg, view: &dyn PtsView) -> TaintGraph<'a> {
        let mut extra_succs: FxHashMap<SvfgNodeId, Vec<(SvfgNodeId, ObjId)>> = FxHashMap::default();
        for (call, callee) in view.call_edges() {
            let Some(binding) = svfg.call_binding(call, callee) else { continue };
            let f = &prog.functions[callee];
            let call_node = svfg.inst_node(call);
            let entry_node = svfg.inst_node(f.entry_inst);
            for &o in &binding.ins {
                extra_succs.entry(call_node).or_default().push((entry_node, o));
            }
            let exit_node = svfg.inst_node(f.exit_inst);
            let ret_node = svfg.callret_node(call);
            for &o in &binding.outs {
                extra_succs.entry(exit_node).or_default().push((ret_node, o));
            }
        }
        TaintGraph { svfg, extra_succs }
    }

    /// Forward BFS from `seed`, carrying each object in `objs` along its
    /// own labelled edges. `objs` must be sorted for deterministic order.
    pub fn reach(&self, seed: SvfgNodeId, objs: &[ObjId]) -> Wave {
        let mut wave = Wave { seed, parent: FxHashMap::default(), edges: Vec::new() };
        let mut visited: FxHashSet<(SvfgNodeId, ObjId)> = FxHashSet::default();
        let mut queue: VecDeque<(SvfgNodeId, ObjId)> = VecDeque::new();
        for &o in objs {
            if visited.insert((seed, o)) {
                queue.push_back((seed, o));
            }
        }
        while let Some((node, obj)) = queue.pop_front() {
            let materialised = self
                .svfg
                .indirect_succs(node)
                .iter()
                .filter(|&&(_, s)| self.svfg.obj_set(s).binary_search(&obj).is_ok())
                .map(|&(succ, _)| succ);
            let activated = self
                .extra_succs
                .get(&node)
                .map(|v| v.as_slice())
                .unwrap_or(&[])
                .iter()
                .filter(|&&(_, eo)| eo == obj)
                .map(|&(succ, _)| succ);
            for succ in materialised.chain(activated) {
                wave.edges.push((node, obj, succ));
                if visited.insert((succ, obj)) {
                    wave.parent.insert((succ, obj), (node, obj));
                    queue.push_back((succ, obj));
                }
            }
        }
        wave
    }
}
