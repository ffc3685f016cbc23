//! Partial-SSA well-formedness verification.
//!
//! Checks the structural invariants the analyses rely on:
//!
//! 1. every function has a `FUNENTRY` as the first instruction of its
//!    entry block and exactly one `FUNEXIT`, last in its (return) block;
//! 2. every block's terminator targets blocks of the same function, and
//!    only the exit block returns;
//! 3. every top-level value has exactly one definition (SSA), and the
//!    definition dominates each (non-phi) use;
//! 4. direct calls pass the number of arguments the callee declares;
//! 5. `PHI` instructions appear only at the start of a block (after any
//!    other phis).

use crate::cfg::Cfg;
use crate::ids::{FuncId, InstId};
use crate::inst::{Callee, InstKind, Terminator};
use crate::program::{Program, ValueDef};
use std::fmt;

/// A structural error in a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable description including locations.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR verification failed: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

fn fail<T>(message: impl Into<String>) -> Result<T, VerifyError> {
    Err(VerifyError { message: message.into() })
}

/// Verifies `prog`, returning the first violated invariant.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the violated invariant and its
/// location.
pub fn verify(prog: &Program) -> Result<(), VerifyError> {
    for (func, f) in prog.functions.iter_enumerated() {
        verify_function(prog, func)?;
        let _ = f;
    }
    verify_values(prog)?;
    Ok(())
}

fn verify_function(prog: &Program, func: FuncId) -> Result<(), VerifyError> {
    let f = &prog.functions[func];
    if f.blocks.is_empty() {
        return fail(format!("@{}: function has no blocks", f.name));
    }
    // FUNENTRY first in entry block.
    let entry = f.entry_block();
    match prog.blocks[entry].insts.first() {
        Some(&i) if i == f.entry_inst => {}
        _ => return fail(format!("@{}: entry block does not start with FUNENTRY", f.name)),
    }
    if !matches!(prog.insts[f.entry_inst].kind, InstKind::FunEntry { func: ef } if ef == func) {
        return fail(format!("@{}: entry_inst is not this function's FUNENTRY", f.name));
    }
    // Exactly one FUNEXIT, last in its block, which must be the Return block.
    let mut exits = 0;
    for b in &f.blocks {
        for (pos, &i) in prog.blocks[*b].insts.iter().enumerate() {
            match prog.insts[i].kind {
                InstKind::FunExit { func: ef, .. } => {
                    exits += 1;
                    if ef != func {
                        return fail(format!("@{}: FUNEXIT of another function", f.name));
                    }
                    if i != f.exit_inst {
                        return fail(format!("@{}: multiple FUNEXIT instructions", f.name));
                    }
                    if pos + 1 != prog.blocks[*b].insts.len() {
                        return fail(format!("@{}: FUNEXIT not last in its block", f.name));
                    }
                    if !matches!(prog.blocks[*b].term, Terminator::Return) {
                        return fail(format!("@{}: FUNEXIT block does not return", f.name));
                    }
                }
                InstKind::FunEntry { .. } if i != f.entry_inst => {
                    return fail(format!("@{}: stray FUNENTRY", f.name));
                }
                _ => {}
            }
        }
        // Return terminator only in the exit block.
        if matches!(prog.blocks[*b].term, Terminator::Return) && *b != f.exit_block {
            return fail(format!(
                "@{}:{}: block returns but is not the FUNEXIT block",
                f.name, prog.blocks[*b].name
            ));
        }
        // Targets within the same function.
        for &t in prog.blocks[*b].term.successors() {
            if prog.blocks[t].func != func {
                return fail(format!(
                    "@{}:{}: branch target in another function",
                    f.name, prog.blocks[*b].name
                ));
            }
        }
        // Phis only in a leading run (after FUNENTRY if present).
        let mut seen_non_phi = false;
        for &i in &prog.blocks[*b].insts {
            match prog.insts[i].kind {
                InstKind::Phi { .. } => {
                    if seen_non_phi {
                        return fail(format!(
                            "@{}:{}: PHI after non-PHI instruction",
                            f.name, prog.blocks[*b].name
                        ));
                    }
                }
                InstKind::FunEntry { .. } => {}
                _ => seen_non_phi = true,
            }
        }
    }
    if exits != 1 {
        return fail(format!("@{}: expected exactly 1 FUNEXIT, found {exits}", f.name));
    }
    // Direct-call arity.
    for i in prog.func_insts(func) {
        if let InstKind::Call { callee: Callee::Direct(target), ref args, .. } = prog.insts[i].kind
        {
            let want = prog.functions[target].params.len();
            if args.len() != want {
                return fail(format!(
                    "{}: call to @{} passes {} args, callee declares {}",
                    prog.inst_location(i),
                    prog.functions[target].name,
                    args.len(),
                    want
                ));
            }
        }
    }
    verify_dominance(prog, func)
}

/// Checks each non-phi use is dominated by its definition.
fn verify_dominance(prog: &Program, func: FuncId) -> Result<(), VerifyError> {
    let cfg = Cfg::build(prog, func);
    let dt = cfg.dominator_tree();
    let f = &prog.functions[func];

    // Position of each instruction within its block for same-block checks.
    let pos_in_block = |inst: InstId| -> usize {
        let b = prog.insts[inst].block;
        prog.blocks[b]
            .insts
            .iter()
            .position(|&i| i == inst)
            .expect("instruction listed in its block")
    };

    for b in &f.blocks {
        for &i in &prog.blocks[*b].insts {
            if matches!(prog.insts[i].kind, InstKind::Phi { .. }) {
                // Phi operands only need *a* definition; path-sensitivity
                // of incoming edges is not modelled (branches carry no
                // condition), so dominance is not required.
                for v in prog.insts[i].kind.uses() {
                    if matches!(prog.values[v].def, ValueDef::Undefined) {
                        return fail(format!(
                            "{}: phi uses undefined value %{}",
                            prog.inst_location(i),
                            prog.values[v].name
                        ));
                    }
                }
                continue;
            }
            for v in prog.insts[i].kind.uses() {
                match prog.values[v].def {
                    ValueDef::GlobalPtr(_) => {}
                    ValueDef::Param(pf, _) => {
                        if pf != func {
                            return fail(format!(
                                "{}: uses parameter of another function (%{})",
                                prog.inst_location(i),
                                prog.values[v].name
                            ));
                        }
                    }
                    ValueDef::Undefined => {
                        return fail(format!(
                            "{}: uses undefined value %{}",
                            prog.inst_location(i),
                            prog.values[v].name
                        ));
                    }
                    ValueDef::Inst(def) => {
                        if prog.insts[def].func != func {
                            return fail(format!(
                                "{}: uses value %{} defined in another function",
                                prog.inst_location(i),
                                prog.values[v].name
                            ));
                        }
                        let db = prog.insts[def].block;
                        if db == *b {
                            if pos_in_block(def) >= pos_in_block(i) {
                                return fail(format!(
                                    "{}: use of %{} before its definition",
                                    prog.inst_location(i),
                                    prog.values[v].name
                                ));
                            }
                        } else if !dt.dominates(cfg.local(db), cfg.local(*b)) {
                            return fail(format!(
                                "{}: definition of %{} does not dominate this use",
                                prog.inst_location(i),
                                prog.values[v].name
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn verify_values(prog: &Program) -> Result<(), VerifyError> {
    // Single assignment is structural (ValueDef holds one definition); we
    // additionally check that no instruction claims to define a value whose
    // recorded def is a different instruction.
    for (id, inst) in prog.insts.iter_enumerated() {
        if let Some(d) = inst.kind.def() {
            match prog.values[d].def {
                ValueDef::Inst(rec) if rec == id => {}
                _ => {
                    return fail(format!(
                        "{}: defines %{} but the value records a different definition",
                        prog.inst_location(id),
                        prog.values[d].name
                    ));
                }
            }
        }
    }
    // Every instruction-defined value's recorded def actually defines it.
    for (v, val) in prog.values.iter_enumerated() {
        if let ValueDef::Inst(i) = val.def {
            if prog.insts[i].kind.def() != Some(v) {
                return fail(format!(
                    "%{}: recorded definition {} does not define it",
                    val.name,
                    prog.inst_location(i)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn ok(src: &str) {
        let prog = parse_program(src).unwrap();
        verify(&prog).unwrap();
    }

    #[test]
    fn accepts_well_formed_programs() {
        ok(r#"
        global @g
        func @helper(%x, %y) {
        entry:
          %s = alloc stack S fields 2
          store %x, %s
          ret %s
        }
        func @main() {
        entry:
          %a = alloc heap A
          %r = call @helper(%a, @g)
          br l, r
        l:
          %u = load %r
          goto done
        r:
          goto done
        done:
          ret
        }
        "#);
    }

    #[test]
    fn accepts_loops_with_phis() {
        ok(r#"
        func @main() {
        entry:
          %init = alloc stack I
          goto head
        head:
          %cur = phi %init, %next
          br body, out
        body:
          %next = copy %cur
          goto head
        out:
          ret
        }
        "#);
    }

    #[test]
    fn rejects_use_not_dominated() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              br a, b
            a:
              %x = alloc stack X
              goto join
            b:
              goto join
            join:
              %y = copy %x
              ret
            }
            "#,
        )
        .unwrap();
        let e = verify(&prog).unwrap_err();
        assert!(e.message.contains("does not dominate"), "{e}");
    }

    #[test]
    fn rejects_arity_mismatch() {
        let prog = parse_program(
            r#"
            func @f(%a) {
            entry:
              ret
            }
            func @main() {
            entry:
              call @f()
              ret
            }
            "#,
        )
        .unwrap();
        let e = verify(&prog).unwrap_err();
        assert!(e.message.contains("args"), "{e}");
    }

    #[test]
    fn rejects_phi_after_non_phi() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %a = alloc stack A
              goto next
            next:
              %b = copy %a
              %c = phi %a, %b
              ret
            }
            "#,
        )
        .unwrap();
        let e = verify(&prog).unwrap_err();
        assert!(e.message.contains("PHI after non-PHI"), "{e}");
    }
}
