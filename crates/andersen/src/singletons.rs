//! Singleton objects (`SN ⊆ A`, Table I): abstract objects representing
//! exactly one runtime object, and therefore eligible for strong updates
//! during flow-sensitive solving (`[SU/WU]` rule).
//!
//! An object is a singleton when it denotes one concrete location:
//!
//! * globals (one instance per program run);
//! * stack objects of functions that cannot have two live activations —
//!   i.e. functions not involved in call-graph recursion;
//! * fields of such objects.
//!
//! Heap objects (one abstract object summarising many allocations),
//! arrays (one abstract object summarising many elements), and function
//! objects are never singletons.

use vsfs_adt::{FxHashSet, PointsToSet};
use vsfs_ir::{ObjId, ObjKind, Program};

use crate::callgraph::CallGraph;

/// Computes the singleton set `SN` given the (over-approximate) call graph.
///
/// Recursion detection must use a sound call graph: any call graph
/// over-approximating the real one (e.g. Andersen's) is safe, because extra
/// edges can only classify more functions as recursive, shrinking `SN`.
pub fn compute_singletons(prog: &Program, callgraph: &CallGraph) -> PointsToSet<ObjId> {
    let recursive = callgraph.recursive_functions(prog);
    let mut out = PointsToSet::new();
    for (id, _) in prog.objects.iter_enumerated() {
        if is_singleton(prog, &recursive, id) {
            out.insert(id);
        }
    }
    out
}

fn is_singleton(prog: &Program, recursive: &FxHashSet<vsfs_ir::FuncId>, o: ObjId) -> bool {
    let obj = &prog.objects[o];
    if obj.is_array {
        return false;
    }
    match obj.kind {
        // The null pseudo-object denotes one (non-)location per run.
        ObjKind::Global | ObjKind::Null => true,
        ObjKind::Stack(f) => !recursive.contains(&f),
        ObjKind::Heap(_) | ObjKind::Function(_) => false,
        ObjKind::Field { base, .. } => is_singleton(prog, recursive, base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::analyze;
    use vsfs_ir::parse_program;

    fn obj(prog: &Program, name: &str) -> ObjId {
        prog.objects.iter_enumerated().find(|(_, o)| o.name == name).map(|(id, _)| id).unwrap()
    }

    #[test]
    fn classification() {
        let prog = parse_program(
            r#"
            global @g fields 2
            global @arr array
            func @rec() {
            entry:
              %s = alloc stack RS
              call @rec()
              ret
            }
            func @main() {
            entry:
              %a = alloc stack MS
              %h = alloc heap MH
              %fp = funaddr @rec
              call @rec()
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        let sn = compute_singletons(&prog, &res.callgraph);
        assert!(sn.contains(obj(&prog, "g")));
        assert!(sn.contains(obj(&prog, "g.f1")), "fields of singletons are singletons");
        assert!(!sn.contains(obj(&prog, "arr")), "arrays are not singletons");
        assert!(!sn.contains(obj(&prog, "RS")), "stack in recursive fn");
        assert!(sn.contains(obj(&prog, "MS")), "stack in non-recursive fn");
        assert!(!sn.contains(obj(&prog, "MH")), "heap never singleton");
        assert!(!sn.contains(obj(&prog, "&rec")), "functions never singleton");
    }

    #[test]
    fn indirect_recursion_detected() {
        let prog = parse_program(
            r#"
            func @a() {
            entry:
              %s = alloc stack AS
              call @b()
              ret
            }
            func @b() {
            entry:
              call @a()
              ret
            }
            func @main() {
            entry:
              call @a()
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        let sn = compute_singletons(&prog, &res.callgraph);
        assert!(!sn.contains(obj(&prog, "AS")));
    }
}
