//! Interprocedural mod/ref analysis with escape filtering.
//!
//! For each function, computes the set of address-taken objects it may
//! modify (`mod`) or read (`ref`), including effects of all (transitive)
//! callees per the auxiliary call graph. Solved as a fixpoint with a
//! function worklist: when a callee's summary grows, its callers are
//! re-examined (this converges for call-graph cycles too).
//!
//! # Escape filtering
//!
//! An object allocated in function `f` that is unreachable — through the
//! auxiliary points-to relation — from any global, call argument, or
//! returned pointer is *private* to `f`: no other activation can hold a
//! pointer to it. Private objects are excluded from the summary `f`
//! exposes to its callers (and hence from call-site χ/µ annotations and
//! `FUNENTRY`/`FUNEXIT` boundary sets). This mirrors SVF's mod/ref
//! refinement and is sound even under recursion: a fresh activation's
//! private object starts uninitialised, and no pointer to an outer
//! frame's instance can reach the inner activation, so no value flow is
//! lost by cutting the interprocedural chain.
//!
//! Without this filter, heap objects that never leave their allocating
//! function would annotate every transitive call site, inflating the SVFG
//! quadratically.

use vsfs_adt::{FifoWorklist, FxHashMap, IndexVec, PointsToSet};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{FuncId, InstKind, ObjId, ObjKind, Program};

/// Mod/ref summaries for every function.
#[derive(Debug, Clone)]
pub struct ModRef {
    /// Full (unfiltered) sets: what the function itself may touch.
    mods: IndexVec<FuncId, PointsToSet<ObjId>>,
    refs: IndexVec<FuncId, PointsToSet<ObjId>>,
    /// Caller-visible sets: full sets minus objects private to the
    /// function.
    summary_mods: IndexVec<FuncId, PointsToSet<ObjId>>,
    summary_refs: IndexVec<FuncId, PointsToSet<ObjId>>,
    /// Objects reachable from globals, call arguments, or returns.
    escaped: PointsToSet<ObjId>,
}

impl ModRef {
    /// Computes mod/ref summaries using `aux` for pointer dereferences and
    /// the call graph.
    pub fn compute(prog: &Program, aux: &AndersenResult) -> Self {
        let escaped = compute_escaped(prog, aux);
        let n = prog.functions.len();
        let mut mods: IndexVec<FuncId, PointsToSet<ObjId>> =
            (0..n).map(|_| PointsToSet::new()).collect();
        let mut refs: IndexVec<FuncId, PointsToSet<ObjId>> =
            (0..n).map(|_| PointsToSet::new()).collect();

        // Direct effects.
        for (_, inst) in prog.insts.iter_enumerated() {
            match &inst.kind {
                InstKind::Store { addr, .. } => {
                    mods[inst.func].union_with(aux.value_pts(*addr));
                }
                InstKind::Load { addr, .. } => {
                    refs[inst.func].union_with(aux.value_pts(*addr));
                }
                // FREE weakly updates everything its operand may point to,
                // so the deallocation shows up as a value-flow event.
                InstKind::Free { ptr } => {
                    mods[inst.func].union_with(aux.value_pts(*ptr));
                }
                _ => {}
            }
        }

        // Caller-visible filter: drop objects private to the function.
        let summarise = |full: &PointsToSet<ObjId>, f: FuncId| -> PointsToSet<ObjId> {
            let mut s = PointsToSet::new();
            for o in full.iter() {
                if escaped.contains(o) || home_function(prog, o) != Some(f) {
                    s.insert(o);
                }
            }
            s
        };

        // Transitive effects over the call graph, propagating *summaries*.
        let mut summary_mods: IndexVec<FuncId, PointsToSet<ObjId>> =
            prog.functions.indices().map(|f| summarise(&mods[f], f)).collect();
        let mut summary_refs: IndexVec<FuncId, PointsToSet<ObjId>> =
            prog.functions.indices().map(|f| summarise(&refs[f], f)).collect();

        let mut worklist: FifoWorklist<FuncId> = FifoWorklist::new(n);
        for f in prog.functions.indices() {
            worklist.push(f);
        }
        while let Some(f) = worklist.pop() {
            let mut changed = false;
            for call in prog.func_insts(f) {
                for &callee in aux.callgraph.callees(call) {
                    if callee == f {
                        continue;
                    }
                    let cm = summary_mods[callee].clone();
                    let cr = summary_refs[callee].clone();
                    changed |= mods[f].union_with(&cm);
                    changed |= refs[f].union_with(&cr);
                    // Callee-visible objects are never private to f
                    // (different home), so they join f's summary directly.
                    changed |= summary_mods[f].union_with(&cm);
                    changed |= summary_refs[f].union_with(&cr);
                }
            }
            if changed {
                for &call in aux.callgraph.callers(f) {
                    worklist.push(prog.insts[call].func);
                }
                worklist.push(f);
            }
        }
        ModRef { mods, refs, summary_mods, summary_refs, escaped }
    }

    /// Objects `func` may modify (directly or via callees), including its
    /// own private objects.
    pub fn mods(&self, func: FuncId) -> &PointsToSet<ObjId> {
        &self.mods[func]
    }

    /// Objects `func` may read (directly or via callees), including its
    /// own private objects.
    pub fn refs(&self, func: FuncId) -> &PointsToSet<ObjId> {
        &self.refs[func]
    }

    /// The caller-visible mod set (drives call-site χ and `FUNEXIT` µ
    /// annotations).
    pub fn summary_mods(&self, func: FuncId) -> &PointsToSet<ObjId> {
        &self.summary_mods[func]
    }

    /// The caller-visible ref set.
    pub fn summary_refs(&self, func: FuncId) -> &PointsToSet<ObjId> {
        &self.summary_refs[func]
    }

    /// `mods(func) ∪ refs(func)`: every object relevant inside `func` —
    /// its `FUNENTRY` χ set.
    pub fn relevant(&self, func: FuncId) -> PointsToSet<ObjId> {
        let mut s = self.mods[func].clone();
        s.union_with(&self.refs[func]);
        s
    }

    /// The caller-visible relevant set (`summary_mods ∪ summary_refs`) —
    /// what flows across a call boundary into `func`.
    pub fn summary_relevant(&self, func: FuncId) -> PointsToSet<ObjId> {
        let mut s = self.summary_mods[func].clone();
        s.union_with(&self.summary_refs[func]);
        s
    }

    /// Returns `true` if `obj` may be reachable from another function's
    /// activation.
    pub fn is_escaped(&self, obj: ObjId) -> bool {
        self.escaped.contains(obj)
    }
}

/// The function owning an object's allocation site, if any.
fn home_function(prog: &Program, o: ObjId) -> Option<FuncId> {
    match prog.objects[o].kind {
        ObjKind::Stack(f) | ObjKind::Heap(f) => Some(f),
        ObjKind::Field { base, .. } => home_function(prog, base),
        ObjKind::Global | ObjKind::Function(_) | ObjKind::Null => None,
    }
}

/// Objects transitively reachable (via the auxiliary points-to relation)
/// from globals, call arguments, or returned pointers.
fn compute_escaped(prog: &Program, aux: &AndersenResult) -> PointsToSet<ObjId> {
    let mut escaped = PointsToSet::new();
    let mut work: Vec<ObjId> = Vec::new();
    let add = |o: ObjId, escaped: &mut PointsToSet<ObjId>, work: &mut Vec<ObjId>| {
        if escaped.insert(o) {
            work.push(o);
        }
    };
    // Roots: global storage, everything passed as an argument, everything
    // returned.
    for &(_, obj) in &prog.globals {
        add(obj, &mut escaped, &mut work);
    }
    for (_, inst) in prog.insts.iter_enumerated() {
        match &inst.kind {
            InstKind::Call { args, .. } => {
                for &a in args {
                    for o in aux.value_pts(a).iter() {
                        add(o, &mut escaped, &mut work);
                    }
                }
            }
            InstKind::FunExit { ret: Some(r), .. } => {
                for o in aux.value_pts(*r).iter() {
                    add(o, &mut escaped, &mut work);
                }
            }
            _ => {}
        }
    }
    // Closure: pointers stored inside escaped objects escape too, and so
    // do an escaped aggregate's fields.
    let mut fields_of: FxHashMap<ObjId, Vec<ObjId>> = FxHashMap::default();
    for (o, obj) in prog.objects.iter_enumerated() {
        if let ObjKind::Field { base, .. } = obj.kind {
            fields_of.entry(base).or_default().push(o);
        }
    }
    while let Some(o) = work.pop() {
        for p in aux.object_pts(o).iter().collect::<Vec<_>>() {
            add(p, &mut escaped, &mut work);
        }
        if let Some(fs) = fields_of.get(&o) {
            for &f in fs.clone().iter() {
                add(f, &mut escaped, &mut work);
            }
        }
    }
    escaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn obj(prog: &Program, name: &str) -> ObjId {
        prog.objects.iter_enumerated().find(|(_, o)| o.name == name).map(|(id, _)| id).unwrap()
    }

    #[test]
    fn direct_and_transitive() {
        let prog = parse_program(
            r#"
            global @g
            global @h
            func @leaf(%v) {
            entry:
              store %v, @g
              %x = load @h
              ret
            }
            func @mid() {
            entry:
              %a = alloc heap A
              call @leaf(%a)
              ret
            }
            func @main() {
            entry:
              call @mid()
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mr = ModRef::compute(&prog, &aux);
        let g = obj(&prog, "g");
        let h = obj(&prog, "h");
        let leaf = prog.function_by_name("leaf").unwrap();
        let mid = prog.function_by_name("mid").unwrap();
        let main = prog.entry_function();
        for f in [leaf, mid, main] {
            assert!(mr.mods(f).contains(g), "{f:?} should mod g");
            assert!(mr.refs(f).contains(h), "{f:?} should ref h");
        }
        assert!(!mr.refs(leaf).contains(g));
        assert!(mr.relevant(leaf).contains(g) && mr.relevant(leaf).contains(h));
    }

    #[test]
    fn mutual_recursion_converges() {
        let prog = parse_program(
            r#"
            global @g
            global @h
            func @a(%v) {
            entry:
              store %v, @g
              call @b(%v)
              ret
            }
            func @b(%v) {
            entry:
              %x = load @h
              call @a(%v)
              ret
            }
            func @main() {
            entry:
              %o = alloc heap O
              call @a(%o)
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mr = ModRef::compute(&prog, &aux);
        let g = obj(&prog, "g");
        let h = obj(&prog, "h");
        let a = prog.function_by_name("a").unwrap();
        let b = prog.function_by_name("b").unwrap();
        assert!(mr.mods(a).contains(g) && mr.mods(b).contains(g));
        assert!(mr.refs(a).contains(h) && mr.refs(b).contains(h));
    }

    #[test]
    fn indirect_callees_included() {
        let prog = parse_program(
            r#"
            global @g
            func @cb() {
            entry:
              %x = alloc heap X
              store %x, @g
              ret
            }
            func @main() {
            entry:
              %fp = funaddr @cb
              icall %fp()
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mr = ModRef::compute(&prog, &aux);
        assert!(mr.mods(prog.entry_function()).contains(obj(&prog, "g")));
    }

    #[test]
    fn private_objects_stay_out_of_summaries() {
        let prog = parse_program(
            r#"
            func @worker(%v) {
            entry:
              %private = alloc heap Priv
              %tmp = alloc stack Tmp
              store %v, %private      // touches only locals
              store %private, %tmp
              %x = load %tmp
              ret
            }
            func @main() {
            entry:
              %h = alloc heap H
              %r = call @worker(%h)
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mr = ModRef::compute(&prog, &aux);
        let worker = prog.function_by_name("worker").unwrap();
        let main = prog.entry_function();
        let priv_o = obj(&prog, "Priv");
        let tmp_o = obj(&prog, "Tmp");
        // The worker itself touches them...
        assert!(mr.mods(worker).contains(priv_o));
        assert!(mr.mods(worker).contains(tmp_o));
        // ...but they are private: not escaped, absent from the summary,
        // and invisible to main.
        assert!(!mr.is_escaped(priv_o));
        assert!(!mr.summary_mods(worker).contains(priv_o));
        assert!(!mr.summary_mods(worker).contains(tmp_o));
        assert!(!mr.mods(main).contains(priv_o));
    }

    #[test]
    fn returned_and_stored_objects_escape() {
        let prog = parse_program(
            r#"
            global @g
            func @make() {
            entry:
              %h = alloc heap Made
              %inner = alloc heap Inner
              store %inner, %h        // Inner reachable from Made
              ret %h
            }
            func @stash() {
            entry:
              %s = alloc heap Stashed
              store %s, @g
              ret
            }
            func @main() {
            entry:
              %r = call @make()
              call @stash()
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mr = ModRef::compute(&prog, &aux);
        for name in ["Made", "Inner", "Stashed"] {
            assert!(mr.is_escaped(obj(&prog, name)), "{name} must escape");
        }
        // Escaped callee effects are caller-visible.
        let make = prog.function_by_name("make").unwrap();
        assert!(mr.summary_mods(make).contains(obj(&prog, "Made")));
        // stash writes g; that effect is visible in main transitively.
        let main = prog.entry_function();
        assert!(mr.mods(main).contains(obj(&prog, "g")));
    }
}
