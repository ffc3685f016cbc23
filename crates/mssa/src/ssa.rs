//! MEMPHI insertion and SSA renaming for address-taken objects.
//!
//! Classic pruned-SSA construction, one function at a time, treating each
//! address-taken object as a variable:
//!
//! * definition sites of `o` are the `FUNENTRY` χ and every store/call χ;
//! * MEMPHIs are placed at the iterated dominance frontier of the
//!   definition blocks;
//! * a dominator-tree walk with per-object version stacks wires every
//!   µ/χ/MEMPHI operand to its unique reaching definition.

use crate::annot::Annotations;
use crate::modref::ModRef;
use crate::{Chi, MemPhi, MemPhiId, MemorySsa, MssaDef, Mu};
use vsfs_adt::{FxHashMap, IndexVec};
use vsfs_ir::{BlockId, Cfg, FuncId, InstId, InstKind, ObjId, Program};

/// Runs MEMPHI insertion and renaming, producing the final [`MemorySsa`].
pub fn rename(prog: &Program, modref: &ModRef, annotations: Annotations) -> MemorySsa {
    let mut mus: IndexVec<InstId, Vec<Mu>> = (0..prog.insts.len()).map(|_| Vec::new()).collect();
    let mut chis: IndexVec<InstId, Vec<Chi>> = (0..prog.insts.len()).map(|_| Vec::new()).collect();
    let mut memphis: IndexVec<MemPhiId, MemPhi> = IndexVec::new();

    for func in prog.functions.indices() {
        rename_function(prog, modref, &annotations, func, &mut mus, &mut chis, &mut memphis);
    }
    MemorySsa { mus, chis, memphis, modref: modref.clone() }
}

#[allow(clippy::too_many_arguments)]
fn rename_function(
    prog: &Program,
    modref: &ModRef,
    ann: &Annotations,
    func: FuncId,
    mus: &mut IndexVec<InstId, Vec<Mu>>,
    chis: &mut IndexVec<InstId, Vec<Chi>>,
    memphis: &mut IndexVec<MemPhiId, MemPhi>,
) {
    let relevant = modref.relevant(func);
    if relevant.is_empty() {
        return;
    }
    let cfg = Cfg::build(prog, func);
    let dt = cfg.dominator_tree();
    let df = dt.dominance_frontiers(cfg.graph());

    // Definition blocks per object (entry always defines everything
    // relevant through the FUNENTRY χ).
    let mut def_blocks: FxHashMap<ObjId, Vec<u32>> = FxHashMap::default();
    for o in relevant.iter() {
        def_blocks.insert(o, vec![0]);
    }
    for &b in &prog.functions[func].blocks {
        for &i in &prog.blocks[b].insts {
            if ann.chi_objs[i].is_empty() {
                continue;
            }
            if matches!(prog.insts[i].kind, InstKind::FunEntry { .. }) {
                continue; // already seeded
            }
            for o in ann.chi_objs[i].iter() {
                def_blocks.entry(o).or_default().push(cfg.local(b));
            }
        }
    }

    // MEMPHI placement at iterated dominance frontiers.
    let mut phis_by_block: FxHashMap<BlockId, Vec<MemPhiId>> = FxHashMap::default();
    let mut objs: Vec<ObjId> = relevant.iter().collect();
    objs.sort_unstable();
    for o in objs {
        let defs = &def_blocks[&o];
        let idf = dt.iterated_dominance_frontier(&df, defs);
        for local in idf {
            let block = cfg.block(local);
            let id = memphis.push(MemPhi { func, block, obj: o, incoming: Vec::new() });
            phis_by_block.entry(block).or_default().push(id);
        }
    }

    // Renaming: iterative dominator-tree walk with per-object stacks.
    let mut stacks: FxHashMap<ObjId, Vec<MssaDef>> = FxHashMap::default();
    // (local block, next dom child index, number of pushes per object done
    // at this block in visit order).
    let mut walk: Vec<(u32, usize, Vec<ObjId>)> = Vec::new();
    walk.push((0, 0, Vec::new()));
    visit_block(
        prog,
        ann,
        &cfg,
        &phis_by_block,
        &mut stacks,
        mus,
        chis,
        memphis,
        0,
        &mut walk.last_mut().expect("just pushed").2,
    );

    while let Some(&mut (local, ref mut next_child, _)) = walk.last_mut() {
        let children = dt.children(local);
        if *next_child < children.len() {
            let child = children[*next_child];
            *next_child += 1;
            let mut pushed = Vec::new();
            visit_block(
                prog,
                ann,
                &cfg,
                &phis_by_block,
                &mut stacks,
                mus,
                chis,
                memphis,
                child,
                &mut pushed,
            );
            walk.push((child, 0, pushed));
        } else {
            let (_, _, pushed) = walk.pop().expect("walk non-empty");
            for o in pushed.into_iter().rev() {
                stacks.get_mut(&o).expect("stack exists for pushed object").pop();
            }
        }
    }
}

/// Processes one block: pushes MEMPHI defs, renames instruction
/// annotations, and feeds successor MEMPHIs. Records every stack push in
/// `pushed` so the caller can undo them.
#[allow(clippy::too_many_arguments)]
fn visit_block(
    prog: &Program,
    ann: &Annotations,
    cfg: &Cfg,
    phis_by_block: &FxHashMap<BlockId, Vec<MemPhiId>>,
    stacks: &mut FxHashMap<ObjId, Vec<MssaDef>>,
    mus: &mut IndexVec<InstId, Vec<Mu>>,
    chis: &mut IndexVec<InstId, Vec<Chi>>,
    memphis: &mut IndexVec<MemPhiId, MemPhi>,
    local: u32,
    pushed: &mut Vec<ObjId>,
) {
    let block = cfg.block(local);
    // MEMPHI defs at block start.
    if let Some(phis) = phis_by_block.get(&block) {
        for &p in phis {
            let o = memphis[p].obj;
            stacks.entry(o).or_default().push(MssaDef::MemPhi(p));
            pushed.push(o);
        }
    }
    // Instructions in order.
    for &i in &prog.blocks[block].insts {
        let mu_objs: Vec<ObjId> = ann.mu_objs[i].iter().collect();
        for o in mu_objs {
            if let Some(def) = stacks.get(&o).and_then(|s| s.last()) {
                mus[i].push(Mu { obj: o, def: *def });
            }
        }
        if ann.chi_objs[i].is_empty() {
            continue;
        }
        let is_entry = matches!(prog.insts[i].kind, InstKind::FunEntry { .. });
        let def_of = |inst: InstId| match prog.insts[inst].kind {
            InstKind::Call { .. } => MssaDef::CallRet(inst),
            _ => MssaDef::Inst(inst),
        };
        let chi_objs: Vec<ObjId> = ann.chi_objs[i].iter().collect();
        for o in chi_objs {
            let prev = if is_entry { None } else { stacks.get(&o).and_then(|s| s.last()).copied() };
            chis[i].push(Chi { obj: o, prev });
            stacks.entry(o).or_default().push(def_of(i));
            pushed.push(o);
        }
    }
    // Feed successor MEMPHIs.
    for succ in cfg.successors(block) {
        if let Some(phis) = phis_by_block.get(&succ) {
            for &p in phis {
                let o = memphis[p].obj;
                if let Some(def) = stacks.get(&o).and_then(|s| s.last()) {
                    if !memphis[p].incoming.contains(def) {
                        let def = *def;
                        memphis[p].incoming.push(def);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::annotate;
    use vsfs_ir::parse_program;

    /// Every µ and MEMPHI operand must reference a definition that is a
    /// χ-bearing instruction or a MEMPHI of the same object — a global
    /// well-formedness check run over a tricky CFG.
    #[test]
    fn defs_are_well_formed() {
        let prog = parse_program(
            r#"
            global @g
            func @main() {
            entry:
              %h1 = alloc heap H1
              %h2 = alloc heap H2
              goto head
            head:
              %x = load @g
              br body, out
            body:
              br b1, b2
            b1:
              store %h1, @g
              goto tail
            b2:
              store %h2, @g
              goto tail
            tail:
              goto head
            out:
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let modref = ModRef::compute(&prog, &aux);
        let ann = annotate(&prog, &aux, &modref);
        let mssa = rename(&prog, &modref, ann);

        let check_def = |def: &MssaDef, obj: ObjId| match def {
            MssaDef::Inst(i) => {
                assert!(
                    mssa.chis(*i).iter().any(|c| c.obj == obj),
                    "def {def:?} lacks chi for {obj:?}"
                );
            }
            MssaDef::CallRet(i) => {
                assert!(mssa.chis(*i).iter().any(|c| c.obj == obj));
            }
            MssaDef::MemPhi(p) => {
                assert_eq!(mssa.memphis()[*p].obj, obj);
            }
        };
        for (i, _) in prog.insts.iter_enumerated() {
            for mu in mssa.mus(i) {
                check_def(&mu.def, mu.obj);
            }
            for chi in mssa.chis(i) {
                if let Some(prev) = &chi.prev {
                    check_def(prev, chi.obj);
                }
            }
        }
        for (_, phi) in mssa.memphis().iter_enumerated() {
            assert!(!phi.incoming.is_empty(), "memphi with no incoming defs");
            for def in &phi.incoming {
                check_def(def, phi.obj);
            }
        }
        // The loop head merges tail and entry: memphi for g at head.
        let g =
            prog.objects.iter_enumerated().find(|(_, o)| o.name == "g").map(|(id, _)| id).unwrap();
        let head_phis: Vec<&MemPhi> = mssa
            .memphis()
            .iter()
            .filter(|m| m.obj == g && prog.blocks[m.block].name == "head")
            .collect();
        assert_eq!(head_phis.len(), 1);
        // And a memphi for g at tail (join of b1/b2).
        assert!(mssa.memphis().iter().any(|m| m.obj == g && prog.blocks[m.block].name == "tail"));
    }
}
