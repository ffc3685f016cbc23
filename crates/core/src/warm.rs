//! ID-independent export and restore of a completed solve's warm state
//! (DESIGN.md §12).
//!
//! The incremental engine's warm state (`IN`/`OUT` tables, top-level
//! sets, call activations) is keyed by arena ids that are only valid for
//! one parse of one process. To let the expensive fixpoint survive a
//! process restart, [`export_warm`] re-keys everything by the *stable*
//! cross-parse keys of [`vsfs_svfg::StableKeys`] — name/position hashes
//! that any parse of the same text reproduces — and hash-conses the
//! points-to sets into one deduplicated table, mirroring the in-memory
//! [`vsfs_adt::PtsStore`]. The result ([`WarmExport`]) is plain data the
//! server serializes to its snapshot files.
//!
//! [`restore_program`] is the inverse: rebuild the cheap front of the
//! pipeline (parse, auxiliary Andersen, memory SSA, SVFG, keys) from the
//! source text, remap every exported key into the fresh arena ids, and
//! hand the result to the seeded SFS solver with *every* node clean —
//! exactly the no-op-edit path of `crate::incremental`, which does zero
//! fixpoint work when the seed is already converged. The restored result
//! is validated, once, against the export's recorded
//! [`result_fingerprint`](crate::result_fingerprint), and the same value
//! becomes the restored state's fingerprint; any remap failure or
//! fingerprint mismatch falls back to a cold solve, so restoration — like
//! incrementality — is a pure optimisation that can never change results
//! and never turns a bad snapshot into a crash.

use crate::incremental::{
    build_front, deliver, solve_front, timed_fingerprint, value_def_nodes, Front, Outcome,
    ProgramState, SolveError, SolveReport, StageSeconds,
};
use crate::result::{FlowSensitiveResult, GovernedAnalysis};
use crate::sfs::{run_sfs_seeded, Rows, SfsSeed};
use crate::solver::SolverKind;
use crate::IncrementalOptions;
use std::time::Instant;
use vsfs_adt::govern::Governor;
use vsfs_adt::{FxHashMap, PointsToSet, PtsId, PtsStore};
use vsfs_ir::{FuncId, InstId, InstKind, ObjId, ValueId};
use vsfs_svfg::stable::KeyMap;

/// A completed solve's warm state, re-keyed by stable keys so it is
/// meaningful across parses and process restarts. All `u32` indices
/// point into `sets`.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmExport {
    /// Canonical name of the solver that produced this fixpoint
    /// ([`SolverKind::name`]). Restores under any other solver refuse
    /// the seed and re-solve cold — warm tables are staged-engine state
    /// and never cross a solver boundary.
    pub solver: String,
    /// [`result_fingerprint`](crate::result_fingerprint) of the exported
    /// result; restores validate against it.
    pub fingerprint: u64,
    /// Deduplicated points-to sets, each a sorted list of object keys.
    pub sets: Vec<Vec<u64>>,
    /// `(value key, set index)` — the final top-level set of every value.
    pub pt: Vec<(u64, u32)>,
    /// `(node key, [(object key, set index)])` — non-empty `IN` tables.
    pub ins: Vec<(u64, Vec<(u64, u32)>)>,
    /// `(node key, [(object key, set index)])` — non-empty `OUT` tables.
    pub outs: Vec<(u64, Vec<(u64, u32)>)>,
    /// `(call-site instruction key, callee name)` — the resolved call
    /// graph.
    pub activations: Vec<(u64, String)>,
}

/// Exports `state`'s warm fixpoint in stable-key form, or `None` when
/// there is nothing safe to export: the analysis is degraded (a fallback
/// must never be cached as a fixpoint), the warm tables were not
/// harvested, or the key tables are ambiguous (lookups would be
/// unreliable on restore).
pub fn export_warm(state: &ProgramState) -> Option<WarmExport> {
    if !state.analysis.is_complete() || !state.keys.is_unambiguous() {
        return None;
    }
    let warm = state.warm.as_ref()?;
    let result = &state.analysis.result;
    let keys = &state.keys;

    let mut set_index: FxHashMap<PtsId, u32> = FxHashMap::default();
    let mut sets: Vec<Vec<u64>> = Vec::new();
    let mut index_of = |id: PtsId, result: &FlowSensitiveResult| -> u32 {
        *set_index.entry(id).or_insert_with(|| {
            let mut objs: Vec<u64> = result.store.iter_set(id).map(|o| keys.obj_key[o]).collect();
            objs.sort_unstable();
            sets.push(objs);
            (sets.len() - 1) as u32
        })
    };

    let mut pt: Vec<(u64, u32)> = Vec::with_capacity(state.prog.values.len());
    for (v, _) in state.prog.values.iter_enumerated() {
        pt.push((keys.value_key[v], index_of(result.pt[v], result)));
    }
    let mut export_table = |table: &Rows| -> Vec<(u64, Vec<(u64, u32)>)> {
        let mut out = Vec::new();
        for (node, entries) in table.iter() {
            if entries.is_empty() {
                continue;
            }
            let row: Vec<(u64, u32)> =
                entries.iter().map(|&(o, id)| (keys.obj_key[o], index_of(id, result))).collect();
            out.push((keys.node_key[node], row));
        }
        out
    };
    let ins = export_table(&warm.ins);
    let outs = export_table(&warm.outs);
    let activations: Vec<(u64, String)> = result
        .callgraph_edges
        .iter()
        .map(|&(call, f)| (keys.inst_key[call], state.prog.functions[f].name.clone()))
        .collect();

    Some(WarmExport {
        solver: state.solver.name().to_string(),
        fingerprint: state.fingerprint,
        sets,
        pt,
        ins,
        outs,
        activations,
    })
}

/// Rebuilds a resident [`ProgramState`] for `source` from an exported
/// warm fixpoint, skipping the flow-sensitive solve entirely when the
/// export maps cleanly and reproduces the recorded fingerprint.
///
/// The export must have been taken from a solve of the *same text* —
/// the caller (the server's snapshot layer) checks that before calling.
/// Even so, every remap is checked and the final result is validated by
/// fingerprint; any inconsistency silently degrades to a cold solve
/// (`report.restored` says which path ran). Errors are only the ones a
/// cold solve can hit: parse/verify failures and an auxiliary budget
/// trip.
pub fn restore_program(
    source: &str,
    export: &WarmExport,
    opts: IncrementalOptions,
    aux_governor: Option<&Governor>,
    fs_governor: Option<&Governor>,
) -> Result<(ProgramState, SolveReport), SolveError> {
    let front = build_front(source, opts, aux_governor)?;
    // Capability dispatch: only the staged solvers have warm state, and
    // a snapshot never seeds a different solver than the one that took
    // it (even between the bit-identical staged pair, the recorded kind
    // is authoritative). Anything else re-solves cold.
    if !opts.solver.is_staged() || SolverKind::parse(&export.solver) != Some(opts.solver) {
        return Ok(solve_front(source, front, fs_governor));
    }
    let t = Instant::now();
    let Some((seed, carried_sets)) = assemble_restore_seed(&front, export) else {
        return Ok(solve_front(source, front, fs_governor));
    };
    let seed_seconds = t.elapsed().as_secs_f64();
    let staged = front.staged.as_ref().expect("a staged solver has a staged front");
    let t = Instant::now();
    let (result, completion, harvest, harvest_seconds) =
        run_sfs_seeded(&front.prog, &front.aux, &staged.mssa, &staged.svfg, fs_governor, seed);
    let mut stages = StageSeconds {
        seed: seed_seconds,
        wave: t.elapsed().as_secs_f64() - harvest_seconds,
        harvest: harvest_seconds,
        ..StageSeconds::default()
    };
    // A budget trip delivers the fallback, whose fingerprint `deliver`
    // computes; a complete result is validated here, once.
    let mut fingerprint = None;
    if completion.is_complete() {
        let (fp, timed) = timed_fingerprint(&front.prog, &front.keys, &result, stages);
        if fp != export.fingerprint {
            // The seeded state converged to something other than what
            // the snapshot recorded — stale or corrupt beyond what the
            // checksum caught. The snapshot is worthless; solve from
            // scratch.
            return Ok(solve_front(source, front, fs_governor));
        }
        fingerprint = Some(fp);
        stages = timed;
    }
    let outcome = Outcome { restored: true, carried_sets, fingerprint, stages, ..Outcome::cold(0) };
    let analysis = GovernedAnalysis::from_run(&front.prog, &front.aux, result, completion, "solve");
    Ok(deliver(source, front, analysis, harvest, outcome))
}

/// Maps an export into a fully-clean [`SfsSeed`] over `front`'s id
/// spaces. `None` — forcing a cold solve — when any key fails to map,
/// which happens exactly when the export does not correspond to this
/// text (stale snapshot, hash collision, hand-edited file).
fn assemble_restore_seed(front: &Front, export: &WarmExport) -> Option<(SfsSeed, usize)> {
    let svfg = &front.staged.as_ref()?.svfg;
    if !front.keys.is_unambiguous() {
        return None;
    }
    let keys = &front.keys;

    // Intern every exported set into a fresh store.
    let mut store: PtsStore<ObjId> = PtsStore::new();
    let mut ids: Vec<PtsId> = Vec::with_capacity(export.sets.len());
    for obj_keys in &export.sets {
        let mut set: PointsToSet<ObjId> = PointsToSet::new();
        for &k in obj_keys {
            set.insert(keys.obj_of_key(k)?);
        }
        if set.len() != obj_keys.len() {
            return None; // two keys mapped to one object: not this text
        }
        ids.push(store.intern(&set));
    }
    let set_id = |idx: u32| -> Option<PtsId> { ids.get(idx as usize).copied() };

    // Top-level sets for every value with a defining node (globals and
    // never-defined values are re-seeded by the solver, as on any seeded
    // solve).
    let pt_by_key: KeyMap<u32> = export.pt.iter().copied().collect();
    if pt_by_key.len() != export.pt.len() {
        return None;
    }
    let def_node = value_def_nodes(&front.prog, svfg);
    let mut pt: Vec<(ValueId, PtsId)> = Vec::new();
    for (v, _) in front.prog.values.iter_enumerated() {
        if def_node[v].is_none() {
            continue;
        }
        let idx = *pt_by_key.get(&keys.value_key[v])?;
        pt.push((v, set_id(idx)?));
    }

    // IN/OUT tables: every exported row must land on a distinct node of
    // this parse with every object resolved.
    let map_table = |rows: &[(u64, Vec<(u64, u32)>)]| -> Option<Rows> {
        let mut table = Rows::with_capacity(svfg.node_count(), 0);
        table.reserve_patched(rows.iter().map(|(_, row)| row.len()).sum());
        let mut entries: Vec<(ObjId, PtsId)> = Vec::new();
        for (node_key, row) in rows {
            let node = keys.node_of_key(*node_key)?;
            if !table.row(node).is_empty() {
                return None; // two rows for one node: not this text
            }
            for &(obj_key, idx) in row {
                entries.push((keys.obj_of_key(obj_key)?, set_id(idx)?));
            }
            entries.sort_unstable_by_key(|&(o, _)| o);
            table.set_row(node, entries.drain(..));
        }
        Some(table)
    };
    let ins = map_table(&export.ins)?;
    let outs = map_table(&export.outs)?;

    // Call activations: call-site instruction keys back to call insts,
    // callees by name.
    let mut inst_of_key: KeyMap<InstId> = KeyMap::new();
    for (inst, i) in front.prog.insts.iter_enumerated() {
        if matches!(i.kind, InstKind::Call { .. })
            && inst_of_key.insert(keys.inst_key[inst], inst).is_some()
        {
            return None; // duplicate call-site key: correspondence unreliable
        }
    }
    let mut activations: Vec<(InstId, FuncId)> = Vec::with_capacity(export.activations.len());
    for (inst_key, callee_name) in &export.activations {
        let call = *inst_of_key.get(inst_key)?;
        let callee = front.prog.function_by_name(callee_name)?;
        activations.push((call, callee));
    }

    let carried_sets = ids.len();
    let n = svfg.node_count();
    let seed = SfsSeed {
        store,
        pt,
        ins,
        outs,
        activations,
        clean: vsfs_adt::IndexVec::from_elem_n(true, n),
        direct_preds: Vec::new(),
        // Every node is clean, so the wave schedules nothing: one rank
        // serves.
        ranks: vec![0; n],
    };
    Some((seed, carried_sets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_program;

    const BASE: &str = r#"
global @g

func @make() {
entry:
  %h = alloc heap H
  ret %h
}

func @main() {
entry:
  %a = call @make()
  store %a, @g
  %b = load @g
  ret
}
"#;

    #[test]
    fn export_restore_round_trip_is_fingerprint_identical() {
        let opts = IncrementalOptions::default();
        let (state, r0) = solve_program(BASE, opts, None, None).unwrap();
        let export = export_warm(&state).expect("complete solve exports");
        assert_eq!(export.fingerprint, r0.fingerprint);

        let (restored, r1) = restore_program(BASE, &export, opts, None, None).unwrap();
        assert!(r1.restored, "clean export of identical text must restore");
        assert_eq!(r1.dirty_nodes, 0);
        assert_eq!(r1.fingerprint, r0.fingerprint);
        assert_eq!(restored.fingerprint, state.fingerprint);
        assert!(restored.has_warm_state(), "a restore re-arms incrementality");
    }

    #[test]
    fn cross_solver_restore_refuses_the_seed_and_resolves_cold() {
        let opts = IncrementalOptions::default();
        let (state, r0) = solve_program(BASE, opts, None, None).unwrap();
        let export = export_warm(&state).unwrap();
        assert_eq!(export.solver, "sfs");
        let cf = IncrementalOptions { solver: SolverKind::CfgFree };
        let (restored, r1) = restore_program(BASE, &export, cf, None, None).unwrap();
        assert!(!r1.restored, "a snapshot must not seed a different solver");
        assert_eq!(restored.solver, SolverKind::CfgFree);
        assert!(restored.svfg().is_none(), "cold-only solvers build no SVFG");
        // Same text, same answer: the solvers are query-identical, and
        // program-level stable keys make the fingerprints comparable.
        assert_eq!(r1.fingerprint, r0.fingerprint);
    }

    #[test]
    fn stale_export_falls_back_to_cold_solve() {
        let opts = IncrementalOptions::default();
        let (state, _) = solve_program(BASE, opts, None, None).unwrap();
        let export = export_warm(&state).unwrap();
        // A different text: keys no longer correspond (or the validated
        // fingerprint differs). Either way the restore must silently
        // cold-solve and still deliver the right answer.
        let edited = BASE.replace("alloc heap H", "alloc heap H2");
        let (cold, rc) = solve_program(&edited, opts, None, None).unwrap();
        let (fallback, rf) = restore_program(&edited, &export, opts, None, None).unwrap();
        assert!(!rf.restored, "stale export must not claim a restore");
        assert_eq!(rf.fingerprint, rc.fingerprint);
        assert_eq!(fallback.fingerprint, cold.fingerprint);
    }

    #[test]
    fn tampered_sets_are_rejected_by_fingerprint() {
        let opts = IncrementalOptions::default();
        let (state, r0) = solve_program(BASE, opts, None, None).unwrap();
        let mut export = export_warm(&state).unwrap();
        // Corrupt one points-to set into another *valid* one (swap in a
        // different object key that exists in this program): the remap
        // succeeds, so only the fingerprint check can catch it.
        let all_keys: Vec<u64> =
            state.prog.objects.iter_enumerated().map(|(o, _)| state.keys.obj_key[o]).collect();
        let mut tampered = false;
        'outer: for set in export.sets.iter_mut() {
            for slot in set.iter_mut() {
                if let Some(&other) = all_keys.iter().find(|&&k| k != *slot) {
                    *slot = other;
                    tampered = true;
                    break 'outer;
                }
            }
        }
        assert!(tampered, "test needs at least one non-empty set");
        for set in export.sets.iter_mut() {
            set.sort_unstable();
            set.dedup();
        }
        let (fixed, rf) = restore_program(BASE, &export, opts, None, None).unwrap();
        assert_eq!(rf.fingerprint, r0.fingerprint, "tampering must not leak into results");
        assert_eq!(fixed.fingerprint, state.fingerprint);
    }
}
