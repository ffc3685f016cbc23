//! Def-use information for top-level values.
//!
//! Because top-level variables are in SSA form, their def-use chains are
//! trivial to compute (Section II-B: "direct edges ... can be determined
//! trivially"); this module materialises them once per program. The
//! staged pipeline keeps the SVFG builder's copy on the SVFG for the
//! solvers; the dense and CFG-free solvers compute their own.

use crate::ids::{InstId, ValueId};
use crate::program::{Program, ValueDef};
use vsfs_adt::Adjacency;

/// Def and use sites of every top-level value.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// Instructions using each value, in program order of discovery.
    uses: Adjacency<ValueId, InstId>,
}

impl DefUse {
    /// Computes def-use information for `prog`.
    pub fn compute(prog: &Program) -> Self {
        let uses = Adjacency::new(prog.values.len(), || {
            prog.insts
                .iter_enumerated()
                .flat_map(|(id, inst)| inst.kind.uses().into_iter().map(move |v| (v, id)))
        });
        DefUse { uses }
    }

    /// The instructions that use `value`.
    pub fn uses(&self, value: ValueId) -> &[InstId] {
        self.uses.of(value)
    }

    /// The instruction defining `value`, if it is instruction-defined.
    ///
    /// Parameters are defined by their function's `FUNENTRY` (returned
    /// here); global pointers have no defining instruction.
    pub fn def_inst(prog: &Program, value: ValueId) -> Option<InstId> {
        match prog.values[value].def {
            ValueDef::Inst(i) => Some(i),
            ValueDef::Param(f, _) => Some(prog.functions[f].entry_inst),
            ValueDef::GlobalPtr(_) | ValueDef::Undefined => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    #[test]
    fn uses_and_defs() {
        let prog = parse_program(
            r#"
            global @g
            func @main(%a) {
            entry:
              %p = alloc stack A
              store %a, %p
              store @g, %p
              %x = load %p
              ret %x
            }
            "#,
        )
        .unwrap();
        let du = DefUse::compute(&prog);
        let main = prog.entry_function();
        let p =
            prog.values.iter_enumerated().find(|(_, v)| v.name == "p").map(|(id, _)| id).unwrap();
        // p used by two stores and one load
        assert_eq!(du.uses(p).len(), 3);
        let a = prog.functions[main].params[0];
        assert_eq!(du.uses(a).len(), 1);
        assert_eq!(DefUse::def_inst(&prog, a), Some(prog.functions[main].entry_inst));
        let g = prog.globals[0].0;
        assert_eq!(DefUse::def_inst(&prog, g), None);
        assert_eq!(du.uses(g).len(), 1);
        let x =
            prog.values.iter_enumerated().find(|(_, v)| v.name == "x").map(|(id, _)| id).unwrap();
        // x used by funexit
        assert_eq!(du.uses(x).len(), 1);
        assert!(DefUse::def_inst(&prog, x).is_some());
    }
}
