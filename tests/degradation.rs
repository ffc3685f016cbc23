//! Graceful-degradation guarantees of governed solving.
//!
//! Three properties, each checked across the whole hand-written corpus:
//!
//! 1. **Soundness of the fallback**: whenever the flow-sensitive stage
//!    degrades, the reported result is the auxiliary Andersen analysis,
//!    which over-approximates the complete flow-sensitive result — every
//!    points-to set and every call edge of the complete VSFS run is
//!    contained in the fallback.
//! 2. **No deadlock, no poisoning**: tripping the budget (or cancelling
//!    the token) at *every* possible checkpoint returns normally with a
//!    `Degraded` completion, and the very same inputs still solve cleanly
//!    afterwards — no global state is corrupted by an interrupted run.
//! 3. **Schedule independence**: with a seeded fault plan, jobs 1, 2 and
//!    8 produce bit-identical results, completions and degraded stages.
//!
//! Every solver kind is governed through the same `vsfs_core::solve`
//! request: an unlimited governor changes nothing, and a tripped step
//! budget degrades every kind to the sound Andersen fallback.

use vsfs::prelude::*;
use vsfs_adt::govern::{Budget, CancelToken, Completion, DegradeReason, FaultKind, Governor};
use vsfs_core::{result_fingerprint, GovernedAnalysis, SolveRequest, SolverKind};
use vsfs_svfg::StableKeys;
use vsfs_testkit::FaultPlan;

struct Pipeline {
    prog: Program,
    aux: andersen::AndersenResult,
    mssa: MemorySsa,
    svfg: Svfg,
}

fn pipeline(source: &str) -> Pipeline {
    let prog = parse_program(source).expect("corpus parses");
    let aux = andersen::analyze(&prog);
    let mssa = MemorySsa::build(&prog, &aux);
    let svfg = Svfg::build(&prog, &aux, &mssa);
    Pipeline { prog, aux, mssa, svfg }
}

impl Pipeline {
    /// Solves `kind` with `jobs` versioning workers, optionally governed.
    fn solve(
        &self,
        kind: SolverKind,
        jobs: usize,
        governor: Option<&Governor>,
    ) -> GovernedAnalysis {
        let req = SolveRequest { jobs, governor, ..SolveRequest::new(kind) };
        vsfs_core::solve(&self.prog, &self.aux, Some((&self.mssa, &self.svfg)), req)
    }
}

/// The governed VSFS pipeline (versioning, then the fixpoint).
fn run_governed(p: &Pipeline, jobs: usize, gov: &Governor) -> GovernedAnalysis {
    p.solve(SolverKind::Vsfs, jobs, Some(gov))
}

/// The delivered `fallback` must be the Andersen result and contain the
/// `complete` flow-sensitive result: per-value points-to supersets and a
/// call-edge superset.
fn assert_fallback_is_superset(
    p: &Pipeline,
    fallback: &FlowSensitiveResult,
    complete: &FlowSensitiveResult,
    label: &str,
) {
    let andersen = FlowSensitiveResult::from_andersen(&p.prog, &p.aux);
    for v in p.prog.values.indices() {
        assert_eq!(
            fallback.value_pts(v),
            andersen.value_pts(v),
            "{label}: not the Andersen result"
        );
    }
    assert_eq!(fallback.callgraph_edges, andersen.callgraph_edges, "{label}");
    for v in p.prog.values.indices() {
        assert!(
            fallback.value_pts(v).is_superset(complete.value_pts(v)),
            "{label}: fallback pt(%{}) misses flow-sensitive objects",
            p.prog.values[v].name
        );
    }
    for edge in &complete.callgraph_edges {
        assert!(
            fallback.callgraph_edges.contains(edge),
            "{label}: fallback call graph misses {edge:?}"
        );
    }
}

#[test]
fn andersen_fallback_over_approximates_complete_vsfs() {
    for c in vsfs_workloads::corpus::corpus() {
        let p = pipeline(c.source);
        let complete = vsfs_core::run_vsfs(&p.prog, &p.aux, &p.mssa, &p.svfg);
        let fallback = FlowSensitiveResult::from_andersen(&p.prog, &p.aux);
        assert_fallback_is_superset(&p, &fallback, &complete, c.name);
    }
}

#[test]
fn step_budget_trips_at_every_checkpoint_without_deadlock_or_poison() {
    for c in vsfs_workloads::corpus::corpus() {
        for jobs in [1, 2] {
            let p = pipeline(c.source);
            let complete = vsfs_core::run_vsfs(&p.prog, &p.aux, &p.mssa, &p.svfg);
            // How many checkpoints does a full run pass? Bound the sweep
            // by the step count of an unlimited governed run.
            let probe = Governor::unlimited();
            let ga = run_governed(&p, jobs, &probe);
            assert!(ga.is_complete(), "{}: unlimited budget must complete", c.name);
            let total = probe.steps();
            for k in 0..total {
                let gov = Governor::new(Budget::unlimited().with_steps(k));
                let ga = run_governed(&p, jobs, &gov);
                match &ga.completion {
                    Completion::Degraded(DegradeReason::StepBudget) => {
                        assert_fallback_is_superset(&p, &ga.result, &complete, c.name);
                        assert_eq!(ga.mode, "flow-insensitive-fallback", "{}", c.name);
                        assert!(ga.degraded_stage.is_some(), "{}", c.name);
                    }
                    other => panic!("{} k={k}: expected step-budget trip, got {other:?}", c.name),
                }
            }
            // A budget of exactly `total` steps completes again: nothing
            // was poisoned by the interrupted runs above.
            let gov = Governor::new(Budget::unlimited().with_steps(total));
            assert!(run_governed(&p, jobs, &gov).is_complete(), "{}", c.name);
        }
    }
}

/// The governed matrix: every solver kind through one `solve` request.
/// An unlimited governor leaves the result fingerprint-identical to the
/// ungoverned solve; a step budget that trips mid-run degrades every
/// kind to the sound Andersen fallback, tagged with the stage that
/// tripped.
#[test]
fn every_solver_kind_degrades_soundly_under_a_step_budget() {
    for c in vsfs_workloads::corpus::corpus() {
        let p = pipeline(c.source);
        let keys = StableKeys::build(&p.prog, &p.mssa, &p.svfg);
        let fingerprint = |r: &FlowSensitiveResult| result_fingerprint(&p.prog, &keys, r);
        let flow = p.solve(SolverKind::Vsfs, 1, None).result;
        for kind in SolverKind::ALL {
            let label = format!("{} {}", c.name, kind.name());
            let plain = p.solve(kind, 1, None);
            assert!(plain.is_complete(), "{label}: ungoverned solves always complete");
            let probe = Governor::unlimited();
            let governed = p.solve(kind, 1, Some(&probe));
            assert!(governed.is_complete(), "{label}: unlimited budget must complete");
            assert_eq!(governed.mode, "flow-sensitive", "{label}");
            assert_eq!(fingerprint(&governed.result), fingerprint(&plain.result), "{label}");

            let total = probe.steps();
            assert!(total > 0, "{label}: a governed solve passes checkpoints");
            let gov = Governor::new(Budget::unlimited().with_steps(total / 2));
            let ga = p.solve(kind, 1, Some(&gov));
            assert_eq!(ga.completion, Completion::Degraded(DegradeReason::StepBudget), "{label}");
            assert_eq!(ga.mode, "flow-insensitive-fallback", "{label}");
            let stages: &[&str] =
                if kind == SolverKind::Vsfs { &["versioning", "solve"] } else { &["solve"] };
            let stage = ga.degraded_stage.expect("a degraded run names its stage");
            assert!(stages.contains(&stage), "{label}: degraded at {stage}");
            // Unification is coarser than the Andersen stand-in, so its
            // fallback is checked against the flow-sensitive answer.
            let complete = if kind == SolverKind::Unify { &flow } else { &plain.result };
            assert_fallback_is_superset(&p, &ga.result, complete, &label);
        }
    }
}

#[test]
fn pre_cancelled_token_degrades_immediately_and_cleanly() {
    for c in vsfs_workloads::corpus::corpus() {
        let p = pipeline(c.source);
        let cancel = CancelToken::new();
        cancel.cancel();
        let gov = Governor::with_cancel(Budget::unlimited(), cancel);
        let ga = run_governed(&p, 2, &gov);
        assert_eq!(ga.completion, Completion::Degraded(DegradeReason::Cancelled), "{}", c.name);
        // The same pipeline still solves normally afterwards.
        let again = run_governed(&p, 2, &Governor::unlimited());
        assert!(again.is_complete(), "{}", c.name);
    }
}

#[test]
fn seeded_faults_are_bit_identical_across_job_counts() {
    let kinds =
        [FaultKind::PanicAtTask, FaultKind::DeadlineAtCheckpoint, FaultKind::MemCapAtCheckpoint];
    for c in vsfs_workloads::corpus::corpus() {
        for kind in kinds {
            for seed in 1..=3u64 {
                let plan = FaultPlan::from_seed(kind, seed);
                let runs: Vec<(usize, Pipeline, GovernedAnalysis)> = [1usize, 2, 8]
                    .into_iter()
                    .map(|jobs| {
                        let p = pipeline(c.source);
                        let gov = Governor::unlimited().with_fault(plan.spec());
                        let ga = run_governed(&p, jobs, &gov);
                        (jobs, p, ga)
                    })
                    .collect();
                let (_, p0, first) = &runs[0];
                for (jobs, _, ga) in &runs[1..] {
                    let label = format!("{} {:?} seed {seed} jobs {jobs}", c.name, kind);
                    assert_eq!(ga.completion, first.completion, "{label}");
                    assert_eq!(ga.mode, first.mode, "{label}");
                    assert_eq!(ga.degraded_stage, first.degraded_stage, "{label}");
                    for v in p0.prog.values.indices() {
                        assert_eq!(ga.result.value_pts(v), first.result.value_pts(v), "{label}");
                    }
                    assert_eq!(ga.result.callgraph_edges, first.result.callgraph_edges, "{label}");
                }
            }
        }
    }
}

/// The second rung of the ladder: an auxiliary-stage trip during a
/// from-scratch solve no longer errors — the (ungoverned) unification
/// tier stands in, tagged `"unification-fallback"` / stage `"andersen"`,
/// and its points-to sets over-approximate both the complete
/// flow-sensitive result and the Andersen tier above them.
#[test]
fn aux_stage_trip_takes_the_unification_rung() {
    for c in vsfs_workloads::corpus::corpus() {
        let p = pipeline(c.source);
        let complete = vsfs_core::run_vsfs(&p.prog, &p.aux, &p.mssa, &p.svfg);

        let cancel = CancelToken::new();
        cancel.cancel();
        let aux_gov = Governor::with_cancel(Budget::unlimited(), cancel);
        let (state, report) = vsfs_core::solve_program(
            c.source,
            vsfs_core::IncrementalOptions::default(),
            Some(&aux_gov),
            None,
        )
        .unwrap_or_else(|e| panic!("{}: the rung must absorb the trip, got {e:?}", c.name));

        assert_eq!(state.analysis.mode, "unification-fallback", "{}", c.name);
        assert_eq!(state.analysis.degraded_stage, Some("andersen"), "{}", c.name);
        assert_eq!(
            state.analysis.completion,
            Completion::Degraded(DegradeReason::Cancelled),
            "{}",
            c.name
        );
        assert!(!report.incremental, "{}", c.name);

        // Sound: the delivered tier contains every flow-sensitive fact.
        // (Value ids align because both states parse the same text.)
        for v in p.prog.values.indices() {
            assert!(
                state.analysis.result.value_pts(v).is_superset(complete.value_pts(v)),
                "{}: unify rung pt(%{}) misses flow-sensitive objects",
                c.name,
                p.prog.values[v].name
            );
        }
        for edge in &complete.callgraph_edges {
            assert!(
                state.analysis.result.callgraph_edges.contains(edge),
                "{}: unify rung call graph misses {edge:?}",
                c.name
            );
        }
    }
}
