//! Andersen's inclusion-based, flow-insensitive pointer analysis — the
//! *auxiliary analysis* of the paper (Section II-B).
//!
//! Staged flow-sensitive analysis needs a sound, cheap points-to
//! pre-analysis to (a) annotate loads/stores with the objects they may
//! access (`χ`/`µ` functions), (b) over-approximate the call graph, and
//! (c) bound the indirect value-flow edges of the SVFG. This crate
//! provides that pre-analysis:
//!
//! * [`pag`] — the *program assignment graph*: pointer nodes (top-level
//!   values ∪ address-taken objects) and the constraints between them
//!   (Addr/Copy/Load/Store/Gep), plus call-site records for on-the-fly
//!   call-graph construction.
//! * [`solver`] — a difference-propagation worklist solver with periodic
//!   strongly-connected-component collapsing (online cycle elimination),
//!   each pass linear in the copy graph.
//! * [`callgraph`] — the call graph discovered while solving.
//! * [`singletons`] — the `SN` set of Table I: objects representing
//!   exactly one runtime object, eligible for strong updates.
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
//! let result = vsfs_andersen::analyze(&prog);
//! let r = prog.values.iter_enumerated()
//!     .find(|(_, v)| v.name == "r").map(|(id, _)| id).unwrap();
//! // r = *p, *p = q, q -> {H}: so r points to H.
//! assert_eq!(result.value_pts(r).len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod callgraph;
pub mod pag;
pub mod singletons;
pub mod solver;
pub mod unify;

pub use callgraph::CallGraph;
pub use pag::{Pag, PagNodeId};
pub use singletons::compute_singletons;
pub use solver::{analyze, analyze_with, AndersenResult, AndersenStats};
pub use unify::{analyze_unify, analyze_unify_with, UnifyConfig, UnifyResult, UnifyStats};
