//! The solver family: every flow-sensitive engine behind one dispatch.
//!
//! Four interchangeable solvers produce a [`FlowSensitiveResult`]
//! (DESIGN.md §13):
//!
//! * **dense** — textbook IN/OUT iteration over the ICFG; the slow
//!   oracle the sparse engines are differentially tested against.
//! * **sfs** — staged flow-sensitive analysis over the SVFG
//!   (Hardekopf & Lin), with priority scheduling and difference
//!   propagation.
//! * **vsfs** — the paper's object-versioned SFS; batch solves share
//!   points-to sets per `(object, version)`.
//! * **cfgfree** — flow sensitivity recovered by *constraint ordering*
//!   over the Andersen constraint graph ("Flow Sensitivity without
//!   Control Flow Graph"): no memory SSA and no SVFG are ever built.
//!
//! [`SolverKind`] names the member; [`SolverKind::is_staged`] says
//! whether it runs on the memory-SSA/SVFG stages (and so serves edits
//! and snapshots warm); [`solve`] runs it. A [`SolveRequest`] carries
//! every setting a solve takes — versioning jobs, pre-built version
//! tables, and an optional [`Governor`] — so the CLI, the incremental
//! server, the bench bins and the tests all reach the engines through
//! this one function. A new solver is one variant, one
//! `solve` arm and one honest `is_staged()` answer.
//!
//! [`FlowSensitiveResult`]: crate::FlowSensitiveResult

use crate::result::{FlowSensitiveResult, GovernedAnalysis, SolveStats};
use crate::sfs::SfsHarvest;
use crate::versioning::VersionTables;
use crate::{cfgfree, dense, sfs, vsfs};
use vsfs_adt::govern::{Completion, Governor};
use vsfs_andersen::{analyze_unify_with, AndersenResult, UnifyConfig};
use vsfs_ir::Program;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

/// Which flow-sensitive solver to run after the Andersen stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Dense IN/OUT iteration over the ICFG (differential oracle).
    Dense,
    /// Staged flow-sensitive analysis over the SVFG.
    Sfs,
    /// Object-versioned staged flow-sensitive analysis (the paper).
    #[default]
    Vsfs,
    /// Constraint-ordering flow sensitivity; builds no MSSA/SVFG.
    CfgFree,
    /// Steensgaard-style unification pre-analysis (with no-oversharing
    /// refinements): the cheapest, coarsest tier. Flow-*insensitive*
    /// and cold-only — never builds MSSA or an SVFG.
    Unify,
}

impl SolverKind {
    /// Parses a solver name as it appears on `--solver` and in the
    /// server protocol. Returns `None` for unknown names so each layer
    /// can raise its own typed error.
    pub fn parse(name: &str) -> Option<SolverKind> {
        match name {
            "dense" => Some(SolverKind::Dense),
            "sfs" => Some(SolverKind::Sfs),
            "vsfs" => Some(SolverKind::Vsfs),
            "cfgfree" => Some(SolverKind::CfgFree),
            "unify" => Some(SolverKind::Unify),
            _ => None,
        }
    }

    /// The canonical lowercase name (inverse of [`SolverKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Dense => "dense",
            SolverKind::Sfs => "sfs",
            SolverKind::Vsfs => "vsfs",
            SolverKind::CfgFree => "cfgfree",
            SolverKind::Unify => "unify",
        }
    }

    /// Whether the solver runs on the staged `MemorySsa` + `Svfg`
    /// stages, which drive pipeline and server dispatch.
    ///
    /// `Sfs` and `Vsfs` are staged. Both serve edits warm: a cold solve
    /// runs the named engine and harvests SFS's per-node `IN`/`OUT`
    /// tables (VSFS reads them off its version slots, by the paper's
    /// central lemma), and a warm seed or a local edit wave re-solves
    /// through `run_sfs_seeded`, which is bit-identical to both (the
    /// central equivalence property). So both support SVFG-wave
    /// incremental re-solving and warm-state harvest/seed (and
    /// therefore snapshots). `Dense`, `CfgFree` and `Unify` never build an SVFG,
    /// so wave invalidation and warm-state export are meaningless for
    /// them — the server falls back to exact cold re-solves instead.
    pub fn is_staged(self) -> bool {
        matches!(self, SolverKind::Sfs | SolverKind::Vsfs)
    }
}

impl SolverKind {
    /// Every member, in declaration order (for tests and help text).
    pub const ALL: [SolverKind; 5] = [
        SolverKind::Dense,
        SolverKind::Sfs,
        SolverKind::Vsfs,
        SolverKind::CfgFree,
        SolverKind::Unify,
    ];
}

/// One solve: which solver to run and every setting it takes.
/// [`SolveRequest::new`] fills in the defaults; override fields with
/// struct-update syntax, e.g.
/// `SolveRequest { jobs: 4, ..SolveRequest::new(SolverKind::Vsfs) }`.
#[derive(Debug)]
pub struct SolveRequest<'a> {
    /// The solver to run.
    pub kind: SolverKind,
    /// Versioning meld threads (VSFS only; `0` = all cores).
    pub jobs: usize,
    /// Pre-built version tables: VSFS skips its versioning stage.
    pub tables: Option<VersionTables>,
    /// Budgets, cancellation and fault injection; `None` runs with no
    /// checkpoints at all.
    pub governor: Option<&'a Governor>,
}

impl SolveRequest<'_> {
    /// The default request for `kind`: one versioning job, no pre-built
    /// tables, ungoverned.
    pub fn new(kind: SolverKind) -> Self {
        SolveRequest { kind, jobs: 1, tables: None, governor: None }
    }
}

/// Runs the solver `req` names over `prog`, with `aux` as the auxiliary
/// (Andersen) result. `staged` must carry the memory SSA and SVFG when
/// the solver [`SolverKind::is_staged`]; the other solvers ignore it.
///
/// Without a governor the result is always complete. With one, a trip
/// in any stage delivers the *sound* Andersen fallback instead of a
/// partial fixpoint, tagged with the stage (`"versioning"` or
/// `"solve"`) and the reason.
///
/// # Panics
///
/// If the solver needs the staged graphs and `staged` is `None`.
pub fn solve(
    prog: &Program,
    aux: &AndersenResult,
    staged: Option<(&MemorySsa, &Svfg)>,
    req: SolveRequest,
) -> GovernedAnalysis {
    solve_harvested(prog, aux, staged, req, false).0
}

/// [`solve`], plus — with `want_harvest`, on a completed staged run —
/// SFS's per-node `IN`/`OUT` tables for the next edit to seed from:
/// the SFS fixpoint's own, or read off VSFS's version slots. Only the
/// incremental engine's cold solves ask for them; the other solvers
/// never have any.
pub(crate) fn solve_harvested(
    prog: &Program,
    aux: &AndersenResult,
    staged: Option<(&MemorySsa, &Svfg)>,
    req: SolveRequest,
    want_harvest: bool,
) -> (GovernedAnalysis, Option<SfsHarvest>) {
    let SolveRequest { kind, jobs, tables, governor } = req;
    let staged =
        || staged.unwrap_or_else(|| panic!("{} needs the memory SSA and SVFG stages", kind.name()));
    let (result, completion, harvest) = match kind {
        SolverKind::Dense => with_no_harvest(dense::solve(prog, aux, governor)),
        SolverKind::Sfs => {
            let (mssa, svfg) = staged();
            sfs::solve(prog, aux, mssa, svfg, governor, want_harvest)
        }
        SolverKind::Vsfs => {
            let (mssa, svfg) = staged();
            let tables = match tables {
                Some(tables) => tables,
                None => {
                    let built = VersionTables::build_with(prog, mssa, svfg, jobs, governor);
                    if let Completion::Degraded(reason) = built.completion {
                        let mut stats = SolveStats::default();
                        stats.record_versioning(&built.result.stats);
                        let ga = GovernedAnalysis::fallback(prog, aux, "versioning", reason, stats);
                        return (ga, None);
                    }
                    built.result
                }
            };
            vsfs::solve(prog, aux, mssa, svfg, tables, governor, want_harvest)
        }
        SolverKind::CfgFree => with_no_harvest(cfgfree::solve(prog, aux, governor)),
        SolverKind::Unify => {
            // A partial unification fixpoint is unsound, so a governed
            // unify run that trips is not served as-is: the complete
            // Andersen aux over-approximates every finer answer and
            // stands in below — one rung *up* in precision from what was
            // asked for, and still sound.
            let out = analyze_unify_with(prog, UnifyConfig::default(), governor);
            (FlowSensitiveResult::from_unify(prog, &out.result), out.completion, None)
        }
    };
    (GovernedAnalysis::from_run(prog, aux, result, completion, "solve"), harvest)
}

fn with_no_harvest(
    (result, completion): (FlowSensitiveResult, Completion),
) -> (FlowSensitiveResult, Completion, Option<SfsHarvest>) {
    (result, completion, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_member() {
        for kind in SolverKind::ALL {
            assert_eq!(SolverKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SolverKind::parse("ander"), None);
        assert_eq!(SolverKind::parse("bogus"), None);
        assert_eq!(SolverKind::parse(""), None);
    }

    #[test]
    fn only_the_svfg_solvers_are_staged() {
        let staged: Vec<_> = SolverKind::ALL.into_iter().filter(|k| k.is_staged()).collect();
        assert_eq!(staged, [SolverKind::Sfs, SolverKind::Vsfs]);
        assert_eq!(SolverKind::default(), SolverKind::Vsfs);
    }

    /// Property: `parse` is the exact inverse of `name` — every member
    /// round-trips, every *perturbation* of a canonical name (case
    /// flip, truncation, extension, random garbage) parses to `None`
    /// unless it happens to equal another canonical name verbatim.
    #[test]
    fn parse_name_round_trip_property() {
        vsfs_testkit::check("solverkind_parse_name_round_trip", |rng| {
            let kind = SolverKind::ALL[rng.gen_range(0..SolverKind::ALL.len())];
            let name = kind.name();
            assert_eq!(SolverKind::parse(name), Some(kind));

            let mutated = match rng.gen_range(0..4u32) {
                0 => {
                    // Flip the case of one letter.
                    let i = rng.gen_range(0..name.len());
                    name.chars()
                        .enumerate()
                        .map(|(k, c)| if k == i { c.to_ascii_uppercase() } else { c })
                        .collect::<String>()
                }
                1 => name[..rng.gen_range(0..name.len())].to_string(),
                2 => format!("{name}{}", rng.gen_range(0..10u32)),
                _ => {
                    let len = rng.gen_range(1..12usize);
                    (0..len)
                        .map(|_| (b'a' + (rng.gen_range(0..26u32) as u8)) as char)
                        .collect::<String>()
                }
            };
            match SolverKind::parse(&mutated) {
                // A mutation may legitimately land on a canonical name.
                Some(k) => assert_eq!(k.name(), mutated),
                None => assert!(SolverKind::ALL.iter().all(|k| k.name() != mutated)),
            }
        });
    }
}
