//! Memory SSA construction (Section II-B of the paper).
//!
//! Address-taken objects are accessed only indirectly, so their def-use
//! chains require the auxiliary (Andersen's) points-to results. This crate
//! realises the memory SSA form:
//!
//! 1. **Mod/ref analysis** ([`modref`]): which objects each function may
//!    define or use, directly or via callees (fixpoint over the call
//!    graph).
//! 2. **χ/µ annotation** ([`annot`]): stores get `o = χ(o)`, loads get
//!    `µ(o)`, call sites get `µ(o)`/`χ(o)` for the objects their callees
//!    may use/modify, `FUNENTRY` gets `χ(o)` (incoming state) and
//!    `FUNEXIT` gets `µ(o)` (returned state) — mimicking parameter passing
//!    and returning of address-taken objects.
//! 3. **MEMPHI insertion and renaming** ([`ssa`]): per function and per
//!    object, `MEMPHI`s are placed at iterated dominance frontiers of the
//!    definition blocks and every use is wired to its unique reaching
//!    definition by a dominator-tree walk.
//!
//! The result ([`MemorySsa`]) gives, for every annotation, the *defining
//! node* its consumed value comes from — exactly the indirect def-use
//! chains the SVFG needs.
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
//! // The load's µ(A) is defined by the store.
//! let load = prog.insts.iter_enumerated()
//!     .find(|(_, i)| i.kind.mnemonic() == "load").map(|(id, _)| id).unwrap();
//! assert_eq!(mssa.mus(load).len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod annot;
pub mod modref;
pub mod ssa;

use vsfs_adt::{define_index, IndexVec, PointsToSet};
use vsfs_ir::{FuncId, InstId, ObjId, Program};

pub use modref::ModRef;

define_index!(
    /// A `MEMPHI` pseudo-instruction inserted by memory-SSA construction.
    MemPhiId,
    "mphi"
);

/// A definition site of an object version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MssaDef {
    /// The χ at an ordinary instruction: a `STORE`, or a `FUNENTRY`.
    Inst(InstId),
    /// The χ at the *return side* of a call instruction (SVF's
    /// `ActualOUT`): receives callee exit state (plus the bypass value).
    CallRet(InstId),
    /// A `MEMPHI`.
    MemPhi(MemPhiId),
}

/// A µ annotation: this instruction may *use* `obj`, and the version it
/// uses was produced by `def`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mu {
    /// The object read.
    pub obj: ObjId,
    /// The reaching definition.
    pub def: MssaDef,
}

/// A χ annotation: this site may *define* `obj`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chi {
    /// The object written.
    pub obj: ObjId,
    /// The reaching definition consumed by this (weak) definition;
    /// `None` for `FUNENTRY` χs, whose input arrives interprocedurally.
    pub prev: Option<MssaDef>,
}

/// A `MEMPHI`: merges versions of `obj` at a control-flow join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemPhi {
    /// Function containing the join.
    pub func: FuncId,
    /// The join block (the MEMPHI conceptually sits at its start).
    pub block: vsfs_ir::BlockId,
    /// The merged object.
    pub obj: ObjId,
    /// Reaching definitions from the predecessors (deduplicated).
    pub incoming: Vec<MssaDef>,
}

/// The complete memory SSA form of a program.
#[derive(Debug, Clone)]
pub struct MemorySsa {
    /// µs per instruction (loads, call sites, `FUNEXIT`s).
    mus: IndexVec<InstId, Vec<Mu>>,
    /// χs per instruction (stores, call sites, `FUNENTRY`s). For call
    /// instructions these are the *return-side* χs ([`MssaDef::CallRet`]).
    chis: IndexVec<InstId, Vec<Chi>>,
    /// All inserted MEMPHIs.
    memphis: IndexVec<MemPhiId, MemPhi>,
    /// Mod/ref summary used for the annotation.
    pub modref: ModRef,
}

impl MemorySsa {
    /// Builds the memory SSA form of `prog` using the auxiliary analysis
    /// results `aux`.
    pub fn build(prog: &Program, aux: &vsfs_andersen::AndersenResult) -> Self {
        let modref = ModRef::compute(prog, aux);
        let annotations = annot::annotate(prog, aux, &modref);
        ssa::rename(prog, modref, annotations)
    }

    /// The µ annotations of `inst`, in ascending object order.
    pub fn mus(&self, inst: InstId) -> &[Mu] {
        &self.mus[inst]
    }

    /// The χ annotations of `inst`, in ascending object order.
    pub fn chis(&self, inst: InstId) -> &[Chi] {
        &self.chis[inst]
    }

    /// All MEMPHIs.
    pub fn memphis(&self) -> &IndexVec<MemPhiId, MemPhi> {
        &self.memphis
    }

    /// The objects flowing into `func` at its `FUNENTRY` (its χ set).
    pub fn entry_objects(&self, prog: &Program, func: FuncId) -> PointsToSet<ObjId> {
        self.chis[prog.functions[func].entry_inst].iter().map(|c| c.obj).collect()
    }

    /// The objects flowing out of `func` at its `FUNEXIT` (its µ set).
    pub fn exit_objects(&self, prog: &Program, func: FuncId) -> PointsToSet<ObjId> {
        self.mus[prog.functions[func].exit_inst].iter().map(|m| m.obj).collect()
    }

    /// Total number of µ/χ annotations (a size diagnostic).
    pub fn annotation_count(&self) -> usize {
        self.mus.iter().map(Vec::len).sum::<usize>() + self.chis.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn obj(prog: &Program, name: &str) -> ObjId {
        prog.objects.iter_enumerated().find(|(_, o)| o.name == name).map(|(id, _)| id).unwrap()
    }

    fn inst_by_mnemonic(prog: &Program, m: &str, nth: usize) -> InstId {
        prog.insts
            .iter_enumerated()
            .filter(|(_, i)| i.kind.mnemonic() == m)
            .map(|(id, _)| id)
            .nth(nth)
            .unwrap()
    }

    #[test]
    fn load_use_reaches_store_def() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q = alloc heap H
              store %q, %p
              %r = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let store = inst_by_mnemonic(&prog, "store", 0);
        let load = inst_by_mnemonic(&prog, "load", 0);
        let a = obj(&prog, "A");
        assert_eq!(
            mssa.chis(store),
            &[Chi {
                obj: a,
                prev: Some(MssaDef::Inst(prog.functions[prog.entry_function()].entry_inst))
            }]
        );
        assert_eq!(mssa.mus(load), &[Mu { obj: a, def: MssaDef::Inst(store) }]);
    }

    #[test]
    fn memphi_at_join_of_two_stores() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q1 = alloc heap H1
              %q2 = alloc heap H2
              br l, r
            l:
              store %q1, %p
              goto join
            r:
              store %q2, %p
              goto join
            join:
              %x = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let a = obj(&prog, "A");
        // One MEMPHI for A at join.
        let phis: Vec<&MemPhi> = mssa.memphis().iter().filter(|m| m.obj == a).collect();
        assert_eq!(phis.len(), 1);
        assert_eq!(phis[0].incoming.len(), 2);
        let load = inst_by_mnemonic(&prog, "load", 0);
        assert!(matches!(mssa.mus(load)[0].def, MssaDef::MemPhi(_)));
    }

    #[test]
    fn straight_line_has_no_memphi() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q = alloc heap H
              store %q, %p
              store %q, %p
              %x = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        assert_eq!(mssa.memphis().len(), 0);
        // Second store consumes the first.
        let s0 = inst_by_mnemonic(&prog, "store", 0);
        let s1 = inst_by_mnemonic(&prog, "store", 1);
        assert_eq!(mssa.chis(s1)[0].prev, Some(MssaDef::Inst(s0)));
        let load = inst_by_mnemonic(&prog, "load", 0);
        assert_eq!(mssa.mus(load)[0].def, MssaDef::Inst(s1));
    }

    #[test]
    fn loop_gets_memphi_at_header() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %h = alloc heap H
              goto head
            head:
              %x = load %p
              br body, out
            body:
              store %h, %p
              goto head
            out:
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let a = obj(&prog, "A");
        let phis: Vec<(MemPhiId, &MemPhi)> =
            mssa.memphis().iter_enumerated().filter(|(_, m)| m.obj == a).collect();
        assert_eq!(phis.len(), 1, "one MEMPHI at the loop header");
        // Load consumes the header MEMPHI; the MEMPHI merges entry state
        // and the body store.
        let load = inst_by_mnemonic(&prog, "load", 0);
        assert_eq!(mssa.mus(load)[0].def, MssaDef::MemPhi(phis[0].0));
        assert_eq!(phis[0].1.incoming.len(), 2);
    }

    #[test]
    fn interprocedural_annotations() {
        let prog = parse_program(
            r#"
            global @g
            func @writer(%v) {
            entry:
              store %v, @g
              ret
            }
            func @reader() {
            entry:
              %x = load @g
              ret %x
            }
            func @main() {
            entry:
              %h = alloc heap H
              call @writer(%h)
              %r = call @reader()
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let g = obj(&prog, "g");
        let writer = prog.function_by_name("writer").unwrap();
        let reader = prog.function_by_name("reader").unwrap();
        // writer: mods {g}; entry chi + exit mu for g.
        assert!(mssa.entry_objects(&prog, writer).contains(g));
        assert!(mssa.exit_objects(&prog, writer).contains(g));
        // reader: refs {g}; entry chi for g but no exit mu.
        assert!(mssa.entry_objects(&prog, reader).contains(g));
        assert!(!mssa.exit_objects(&prog, reader).contains(g));
        // main: the writer callsite has chi(g) whose def is the CallRet;
        // the reader callsite has mu(g) consuming the writer's CallRet.
        let call_writer = inst_by_mnemonic(&prog, "call", 0);
        let call_reader = inst_by_mnemonic(&prog, "call", 1);
        assert!(mssa.chis(call_writer).iter().any(|c| c.obj == g));
        assert!(mssa
            .mus(call_reader)
            .iter()
            .any(|m| m.obj == g && m.def == MssaDef::CallRet(call_writer)));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use vsfs_ir::parse_program;

    #[test]
    fn recursive_call_sites_get_annotations() {
        let prog = parse_program(
            r#"
            global @acc
            func @rec(%v) {
            entry:
              store %v, @acc
              br again, done
            again:
              %r = call @rec(%v)
              goto done
            done:
              %x = load @acc
              ret %x
            }
            func @main() {
            entry:
              %h = alloc heap H
              %r = call @rec(%h)
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let acc = prog
            .objects
            .iter_enumerated()
            .find(|(_, o)| o.name == "acc")
            .map(|(id, _)| id)
            .unwrap();
        // The recursive call site inside @rec has both mu and chi for acc.
        let rec = prog.function_by_name("rec").unwrap();
        let inner_call = prog
            .func_insts(rec)
            .find(|&i| matches!(prog.insts[i].kind, vsfs_ir::InstKind::Call { .. }))
            .unwrap();
        assert!(mssa.mus(inner_call).iter().any(|m| m.obj == acc));
        assert!(mssa.chis(inner_call).iter().any(|c| c.obj == acc));
        // And rec's entry/exit carry acc through the boundary.
        assert!(mssa.entry_objects(&prog, rec).contains(acc));
        assert!(mssa.exit_objects(&prog, rec).contains(acc));
    }

    #[test]
    fn private_objects_have_no_boundary_annotations() {
        let prog = parse_program(
            r#"
            func @worker() {
            entry:
              %local = alloc stack Local
              %h = alloc heap PrivHeap
              store %h, %local
              %x = load %local
              ret
            }
            func @main() {
            entry:
              call @worker()
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let worker = prog.function_by_name("worker").unwrap();
        let local = prog
            .objects
            .iter_enumerated()
            .find(|(_, o)| o.name == "Local")
            .map(|(id, _)| id)
            .unwrap();
        // Entry chi still exists (renaming needs an initial definition)...
        assert!(mssa.entry_objects(&prog, worker).contains(local));
        // ...but the caller's call site sees nothing of it.
        let call = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, vsfs_ir::InstKind::Call { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert!(mssa.mus(call).iter().all(|m| m.obj != local));
        assert!(mssa.chis(call).iter().all(|c| c.obj != local));
        // And the exit returns nothing private.
        assert!(!mssa.exit_objects(&prog, worker).contains(local));
    }

    #[test]
    fn annotation_count_matches_sum() {
        let prog = parse_program(crate::tests_support::SAMPLE);
        let prog = prog.unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let by_hand: usize =
            prog.insts.indices().map(|i| mssa.mus(i).len() + mssa.chis(i).len()).sum();
        assert_eq!(by_hand, mssa.annotation_count());
        assert!(by_hand > 0);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    pub const SAMPLE: &str = r#"
    global @g
    func @main() {
    entry:
      %p = alloc stack A
      %h = alloc heap H
      store %h, %p
      store %p, @g
      %x = load @g
      %y = load %x
      ret
    }
    "#;
}
