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
//!
//! All per-object and per-block state lives in dense vectors indexed by
//! object id and local block, allocated once and reused across
//! functions; the walk undoes its stack pushes from one shared log.
//! Every instruction's µs and χs come out in ascending object order.

use crate::annot::Annotations;
use crate::modref::ModRef;
use crate::{Chi, MemPhi, MemPhiId, MemorySsa, MssaDef, Mu};
use vsfs_adt::IndexVec;
use vsfs_ir::{Cfg, FuncId, InstId, InstKind, ObjId, Program};

/// Runs MEMPHI insertion and renaming, producing the final [`MemorySsa`].
pub fn rename(prog: &Program, modref: ModRef, annotations: Annotations) -> MemorySsa {
    let mut out = Output {
        mus: (0..prog.insts.len()).map(|_| Vec::new()).collect(),
        chis: (0..prog.insts.len()).map(|_| Vec::new()).collect(),
        memphis: IndexVec::new(),
    };
    let mut scratch = Scratch::new(prog.objects.len());
    for func in prog.functions.indices() {
        rename_function(prog, &modref, &annotations, func, &mut scratch, &mut out);
    }
    let Output { mus, chis, memphis } = out;
    MemorySsa { mus, chis, memphis, modref }
}

/// The annotations being filled in.
struct Output {
    mus: IndexVec<InstId, Vec<Mu>>,
    chis: IndexVec<InstId, Vec<Chi>>,
    memphis: IndexVec<MemPhiId, MemPhi>,
}

/// Working state of one function's renaming, reused across functions.
/// Every vector is empty (or all-clear) between functions.
struct Scratch {
    /// Local definition blocks per object.
    def_blocks: IndexVec<ObjId, Vec<u32>>,
    /// Objects whose `def_blocks` entry is non-empty.
    defined: Vec<ObjId>,
    /// Version stack per object.
    stacks: IndexVec<ObjId, Vec<MssaDef>>,
    /// Every stack push of the walk, in order, so a finished subtree
    /// pops exactly what it pushed.
    pushed: Vec<ObjId>,
    /// MEMPHIs per local block.
    phis: Vec<Vec<MemPhiId>>,
}

impl Scratch {
    fn new(objects: usize) -> Self {
        Scratch {
            def_blocks: (0..objects).map(|_| Vec::new()).collect(),
            defined: Vec::new(),
            stacks: (0..objects).map(|_| Vec::new()).collect(),
            pushed: Vec::new(),
            phis: Vec::new(),
        }
    }

    fn add_def_block(&mut self, o: ObjId, local: u32) {
        let blocks = &mut self.def_blocks[o];
        if blocks.is_empty() {
            self.defined.push(o);
        }
        blocks.push(local);
    }

    /// The current reaching definition of `o`.
    fn top(&self, o: ObjId) -> Option<MssaDef> {
        self.stacks[o].last().copied()
    }

    fn push(&mut self, o: ObjId, def: MssaDef) {
        self.stacks[o].push(def);
        self.pushed.push(o);
    }
}

fn rename_function(
    prog: &Program,
    modref: &ModRef,
    ann: &Annotations,
    func: FuncId,
    scratch: &mut Scratch,
    out: &mut Output,
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
    for o in relevant.iter() {
        scratch.add_def_block(o, 0);
    }
    for local in 0..cfg.block_count() as u32 {
        for &i in &prog.blocks[cfg.block(local)].insts {
            if ann.chi_objs[i].is_empty() || matches!(prog.insts[i].kind, InstKind::FunEntry { .. })
            {
                continue; // nothing defined, or already seeded
            }
            for o in ann.chi_objs[i].iter() {
                scratch.add_def_block(o, local);
            }
        }
    }

    // MEMPHI placement at iterated dominance frontiers, by ascending
    // object.
    scratch.phis.resize_with(scratch.phis.len().max(cfg.block_count()), Vec::new);
    for o in relevant.iter() {
        for local in dt.iterated_dominance_frontier(&df, &scratch.def_blocks[o]) {
            let id = out.memphis.push(MemPhi {
                func,
                block: cfg.block(local),
                obj: o,
                incoming: Vec::new(),
            });
            scratch.phis[local as usize].push(id);
        }
    }
    for o in scratch.defined.drain(..) {
        scratch.def_blocks[o].clear();
    }

    // Renaming: iterative dominator-tree walk. A frame is (local block,
    // next dominator-tree child, length of the push log on entry).
    let mut walk: Vec<(u32, usize, usize)> = vec![(0, 0, 0)];
    visit_block(prog, ann, &cfg, scratch, out, 0);
    while let Some(&mut (local, ref mut next_child, _)) = walk.last_mut() {
        let children = dt.children(local);
        if *next_child < children.len() {
            let child = children[*next_child];
            *next_child += 1;
            walk.push((child, 0, scratch.pushed.len()));
            visit_block(prog, ann, &cfg, scratch, out, child);
        } else {
            let (_, _, mark) = walk.pop().expect("walk non-empty");
            for k in (mark..scratch.pushed.len()).rev() {
                let o = scratch.pushed[k];
                scratch.stacks[o].pop();
            }
            scratch.pushed.truncate(mark);
        }
    }
    for phis in &mut scratch.phis[..cfg.block_count()] {
        phis.clear();
    }
}

/// Processes one block: pushes MEMPHI defs, renames instruction
/// annotations, and feeds successor MEMPHIs.
fn visit_block(
    prog: &Program,
    ann: &Annotations,
    cfg: &Cfg,
    scratch: &mut Scratch,
    out: &mut Output,
    local: u32,
) {
    let block = cfg.block(local);
    // MEMPHI defs at block start.
    for k in 0..scratch.phis[local as usize].len() {
        let p = scratch.phis[local as usize][k];
        scratch.push(out.memphis[p].obj, MssaDef::MemPhi(p));
    }
    // Instructions in order.
    for &i in &prog.blocks[block].insts {
        if !ann.mu_objs[i].is_empty() {
            out.mus[i].reserve_exact(ann.mu_objs[i].len());
        }
        for o in ann.mu_objs[i].iter() {
            if let Some(def) = scratch.top(o) {
                out.mus[i].push(Mu { obj: o, def });
            }
        }
        if ann.chi_objs[i].is_empty() {
            continue;
        }
        out.chis[i].reserve_exact(ann.chi_objs[i].len());
        let (is_entry, def) = match prog.insts[i].kind {
            InstKind::FunEntry { .. } => (true, MssaDef::Inst(i)),
            InstKind::Call { .. } => (false, MssaDef::CallRet(i)),
            _ => (false, MssaDef::Inst(i)),
        };
        for o in ann.chi_objs[i].iter() {
            let prev = if is_entry { None } else { scratch.top(o) };
            out.chis[i].push(Chi { obj: o, prev });
            scratch.push(o, def);
        }
    }
    // Feed successor MEMPHIs.
    for &succ in cfg.graph().successors(local) {
        for &p in &scratch.phis[succ as usize] {
            let phi = &mut out.memphis[p];
            if let Some(def) = scratch.stacks[phi.obj].last() {
                if !phi.incoming.contains(def) {
                    phi.incoming.push(*def);
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
        let mssa = rename(&prog, modref, ann);

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
