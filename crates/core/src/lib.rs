//! Flow-sensitive pointer analyses on the sparse value-flow graph: the
//! **SFS** baseline (staged flow-sensitive analysis, Hardekopf & Lin) and
//! the paper's contribution, **VSFS** (versioned staged flow-sensitive
//! analysis).
//!
//! # The two solvers
//!
//! * [`run_sfs`] implements the baseline of Section IV-A, equations (6)
//!   and (7): every SVFG node maintains an `IN` set (and `STORE` nodes an
//!   `OUT` set) mapping objects to points-to sets; indirect edges
//!   propagate whole points-to sets between nodes.
//! * [`run_vsfs`] implements Sections IV-C and IV-D: a cheap pre-analysis
//!   (*prelabelling* + *meld labelling*, the [`versioning`] module)
//!   assigns every `(node, object)` pair a *consumed* and a *yielded*
//!   version; points-to sets are stored once per `(object, version)`
//!   globally, and propagation happens between versions rather than
//!   between nodes — skipping every edge whose endpoints share a version.
//!
//! Both solvers perform on-the-fly call-graph resolution (more precise
//! than the auxiliary analysis's call graph), apply strong updates at
//! stores whose target is a unique singleton, and produce **identical
//! points-to results** — the central correctness property, checked by the
//! `tests/` suite and by property tests over randomly generated programs.
//!
//! Every solver of the family (these two, the dense baseline, the
//! CFG-free solver and the unification tier; see [`solver`]) runs
//! through [`solve`] with a [`SolveRequest`]; [`run_sfs`] and
//! [`run_vsfs`] are its default requests.
//!
//! # Examples
//!
//! ```
//! let prog = vsfs_ir::parse_program(r#"
//! func @main() {
//! entry:
//!   %p = alloc stack A
//!   %q1 = alloc heap H1
//!   %q2 = alloc heap H2
//!   store %q1, %p
//!   %x = load %p       // sees only H1 (flow-sensitive!)
//!   store %q2, %p      // strong update: kills H1
//!   %y = load %p       // sees only H2
//!   ret
//! }
//! "#)?;
//! let aux = vsfs_andersen::analyze(&prog);
//! let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
//! let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
//! let sfs = vsfs_core::run_sfs(&prog, &aux, &mssa, &svfg);
//! let vsfs = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
//! assert!(vsfs_core::same_precision(&prog, &sfs, &vsfs));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cfgfree;
pub mod dense;
pub mod incremental;
pub mod precision;
pub mod queries;
pub mod result;
pub mod schedule;
pub mod sfs;
pub mod solver;
pub mod toplevel;
pub mod versioning;
pub mod vsfs;
pub mod warm;

pub use incremental::{
    resolve_edit, result_fingerprint, solve_program, IncrementalOptions, ProgramState, SolveError,
    SolveReport,
};
pub use precision::{compare_precision, PrecisionReport};
pub use result::{
    precision_diff, same_precision, FlowSensitiveResult, GovernedAnalysis, SolveStats,
};
pub use sfs::run_sfs;
pub use solver::{solve, SolveRequest, SolverKind};
pub use versioning::{VersionTables, VersioningStats};
pub use vsfs::{run_vsfs, run_vsfs_with_tables};
pub use warm::{export_warm, restore_program, WarmExport};
