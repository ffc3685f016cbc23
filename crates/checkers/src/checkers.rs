//! The four memory-safety checkers, expressed as source-sink queries.

use std::collections::VecDeque;
use vsfs_adt::FxHashSet;
use vsfs_ir::{BlockId, InstId, InstKind, ObjId, Program};
use vsfs_svfg::{Svfg, SvfgNodeId, SvfgNodeKind};

use crate::engine::TaintGraph;
use crate::view::PtsView;

/// Which checker produced a finding. The declaration order is the report
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckerKind {
    /// A `LOAD`/`STORE` may access an object after a `FREE` of it.
    UseAfterFree,
    /// A `FREE` may deallocate an already-deallocated object.
    DoubleFree,
    /// A heap allocation with an exit path on which no reaching `FREE`
    /// runs.
    Leak,
    /// A `LOAD`/`STORE`/`FREE` whose pointer may be null.
    NullDeref,
}

impl CheckerKind {
    /// All checkers, in report order.
    pub const ALL: [CheckerKind; 4] = [
        CheckerKind::UseAfterFree,
        CheckerKind::DoubleFree,
        CheckerKind::Leak,
        CheckerKind::NullDeref,
    ];

    /// The checker's report name.
    pub fn name(self) -> &'static str {
        match self {
            CheckerKind::UseAfterFree => "use-after-free",
            CheckerKind::DoubleFree => "double-free",
            CheckerKind::Leak => "leak",
            CheckerKind::NullDeref => "null-deref",
        }
    }
}

/// One diagnostic. `Ord` is the report order: checker, then sink
/// instruction, then object, then source — so rendered output is stable
/// without any further tie-breaking.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The checker that fired.
    pub checker: CheckerKind,
    /// The sink: the offending access/`FREE`, or the allocation for
    /// leaks.
    pub inst: InstId,
    /// The object involved (the null pseudo-object for null-derefs).
    pub obj: ObjId,
    /// The source: the earlier `FREE` for use-after-free/double-free;
    /// `None` for leaks and null-derefs (their source is `inst` itself).
    pub src: Option<InstId>,
    /// The SVFG node path that carried the object from source to sink
    /// (empty when no value-flow propagation was involved).
    pub path: Vec<SvfgNodeId>,
}

/// Runs all four checkers over `prog` under `view` and returns the
/// sorted finding set.
pub fn run_checkers(prog: &Program, svfg: &Svfg, view: &dyn PtsView) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_freed_memory(prog, svfg, view, &mut findings);
    check_leaks(prog, view, &mut findings);
    check_null_derefs(prog, view, &mut findings);
    findings.sort();
    findings.dedup();
    findings
}

/// Use-after-free and double-free: seed "freed" taint at every `FREE`,
/// propagate along the object's value-flow edges, and test reached
/// accesses against the view.
fn check_freed_memory(
    prog: &Program,
    svfg: &Svfg,
    view: &dyn PtsView,
    findings: &mut Vec<Finding>,
) {
    let graph = TaintGraph::new(prog, svfg, view);
    for (free, inst) in prog.insts.iter_enumerated() {
        let InstKind::Free { ptr } = inst.kind else { continue };
        // Only heap objects participate: freeing stack/global memory is a
        // different defect class this checker does not model.
        let objs: Vec<ObjId> =
            view.pts(ptr).iter().filter(|&o| prog.objects[o].is_heap()).collect();
        if objs.is_empty() {
            continue;
        }
        let wave = graph.reach(svfg.inst_node(free), &objs);
        let mut reported: FxHashSet<(CheckerKind, InstId, ObjId)> = FxHashSet::default();
        for &(from, obj, to) in &wave.edges {
            let SvfgNodeKind::Inst(sink) = svfg.kind(to) else { continue };
            let checker = match prog.insts[sink].kind {
                InstKind::Load { addr, .. } | InstKind::Store { addr, .. }
                    if view.pts(addr).contains(obj) =>
                {
                    CheckerKind::UseAfterFree
                }
                InstKind::Free { ptr: ptr2 } if view.pts(ptr2).contains(obj) => {
                    CheckerKind::DoubleFree
                }
                _ => continue,
            };
            if reported.insert((checker, sink, obj)) {
                findings.push(Finding {
                    checker,
                    inst: sink,
                    obj,
                    src: Some(free),
                    path: wave.path(from, obj, to),
                });
            }
        }
    }
}

/// Leak: a heap allocation leaks when no `FREE` may free it at all, or
/// when every such `FREE` is in the allocating function yet some CFG
/// path from the allocation to the function's exit avoids them all.
/// Frees in *other* functions are treated as covering every path
/// (interprocedural path feasibility is out of scope), so this direction
/// is conservative towards fewer leak reports.
fn check_leaks(prog: &Program, view: &dyn PtsView, findings: &mut Vec<Finding>) {
    let frees: Vec<InstId> = prog
        .insts
        .iter_enumerated()
        .filter(|(_, i)| matches!(i.kind, InstKind::Free { .. }))
        .map(|(id, _)| id)
        .collect();
    for (alloc, inst) in prog.insts.iter_enumerated() {
        let InstKind::Alloc { obj, .. } = inst.kind else { continue };
        if !prog.objects[obj].is_heap() {
            continue;
        }
        let may_free: Vec<InstId> = frees
            .iter()
            .copied()
            .filter(|&f| match prog.insts[f].kind {
                InstKind::Free { ptr } => view.pts(ptr).contains(obj),
                _ => false,
            })
            .collect();
        let leaks = if may_free.is_empty() {
            true
        } else if may_free.iter().any(|&f| prog.insts[f].func != inst.func) {
            false
        } else {
            has_free_avoiding_exit_path(prog, alloc, &may_free)
        };
        if leaks {
            findings.push(Finding {
                checker: CheckerKind::Leak,
                inst: alloc,
                obj,
                src: None,
                path: Vec::new(),
            });
        }
    }
}

/// Is there a CFG path from `alloc` to its function's exit block along
/// which none of `frees` executes?
fn has_free_avoiding_exit_path(prog: &Program, alloc: InstId, frees: &[InstId]) -> bool {
    let func = prog.insts[alloc].func;
    let alloc_block = prog.insts[alloc].block;
    let exit_block = prog.functions[func].exit_block;
    let blocked = |b: BlockId| prog.blocks[b].insts.iter().any(|i| frees.contains(i));
    // Leaving the allocation's own block executes everything after the
    // allocation, so a later free in the same block covers every path.
    let insts = &prog.blocks[alloc_block].insts;
    let alloc_idx = insts.iter().position(|&i| i == alloc).expect("alloc is in its block");
    if insts[alloc_idx + 1..].iter().any(|i| frees.contains(i)) {
        return false;
    }
    if alloc_block == exit_block {
        return true;
    }
    // BFS over blocks, skipping any that execute a free. The allocation
    // block itself is *re-enterable* (via a loop), and on re-entry its
    // pre-allocation frees run too, so it gets the ordinary test.
    let mut visited: FxHashSet<BlockId> = FxHashSet::default();
    let mut queue: VecDeque<BlockId> =
        prog.blocks[alloc_block].term.successors().iter().copied().collect();
    while let Some(b) = queue.pop_front() {
        if !visited.insert(b) || blocked(b) {
            continue;
        }
        if b == exit_block {
            return true;
        }
        queue.extend(prog.blocks[b].term.successors().iter().copied());
    }
    false
}

/// Null-deref: any `LOAD`/`STORE`/`FREE` whose pointer operand may be
/// the null pseudo-object. (The IR's `free` does not tolerate null, so a
/// possibly-null `free` is reported too.) Pure sink checking — nullness
/// is an ordinary points-to fact, killed by strong updates, so the
/// flow-sensitive view already encodes the interesting reasoning.
fn check_null_derefs(prog: &Program, view: &dyn PtsView, findings: &mut Vec<Finding>) {
    let Some(null) = prog.null_object() else { return };
    for (id, inst) in prog.insts.iter_enumerated() {
        let ptr = match inst.kind {
            InstKind::Load { addr, .. } | InstKind::Store { addr, .. } => addr,
            InstKind::Free { ptr } => ptr,
            _ => continue,
        };
        if view.pts(ptr).contains(null) {
            findings.push(Finding {
                checker: CheckerKind::NullDeref,
                inst: id,
                obj: null,
                src: None,
                path: Vec::new(),
            });
        }
    }
}
