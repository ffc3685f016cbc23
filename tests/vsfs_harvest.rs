//! The paper's central lemma, checked table for table: every SVFG node
//! that shares a version has the same SFS set, so the warm `IN`/`OUT`
//! tables a VSFS solve reads off its version slots equal the tables the
//! SFS fixpoint computes itself — entry for entry, with equal sets.
//! Fingerprint equality alone would only compare top-level sets.
//!
//! The tables are compared through [`export_warm`], which re-keys the
//! resident harvest by stable keys without dropping or merging entries
//! (only nodes with no entries at all are left out, on both sides), and
//! then as encoded snapshot bytes, which must be identical apart from
//! the solver tag.

mod common;

use vsfs_core::{export_warm, solve_program, IncrementalOptions, SolverKind, WarmExport};
use vsfs_server::snapshot::{encode, Snapshot};
use vsfs_workloads::gen::{generate, WorkloadConfig};

/// Solves `source` cold as a workspace of `solver` and exports its warm
/// tables.
fn export(source: &str, solver: SolverKind) -> WarmExport {
    let (state, _) = solve_program(source, IncrementalOptions { solver }, None, None)
        .unwrap_or_else(|e| panic!("{} solve failed: {e}", solver.name()));
    assert_eq!(state.engine, solver.name(), "a cold load runs the engine it names");
    export_warm(&state).expect("a complete solve exports its warm tables")
}

/// The lemma on one program: equal tables, equal exports, and equal
/// snapshot bytes apart from the solver tag.
fn check(label: &str, source: &str) {
    let sfs = export(source, SolverKind::Sfs);
    let vsfs = export(source, SolverKind::Vsfs);
    common::assert_same_tables(label, &sfs, &vsfs);
    assert_eq!(sfs.fingerprint, vsfs.fingerprint, "{label}: fingerprints differ");
    assert_eq!((sfs.solver.as_str(), vsfs.solver.as_str()), ("sfs", "vsfs"));
    let retagged = WarmExport { solver: sfs.solver.clone(), ..vsfs };
    assert_eq!(retagged, sfs, "{label}: exports differ beyond the solver tag");
    let bytes = |export: WarmExport| {
        encode(&Snapshot { id: label.to_string(), source: source.to_string(), export })
    };
    assert!(bytes(retagged) == bytes(sfs), "{label}: snapshot bytes differ beyond the solver tag");
}

#[test]
fn hand_written_corpus_harvests_equal_tables() {
    for program in vsfs_workloads::corpus::corpus() {
        check(program.name, program.source);
    }
}

#[test]
fn checker_corpus_harvests_equal_tables() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/checkers");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("checker corpus directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "vir"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .vir programs under {dir}");
    for path in files {
        let source = std::fs::read_to_string(&path).expect("readable corpus program");
        check(&path.display().to_string(), &source);
    }
}

#[test]
fn suite_programs_harvest_equal_tables() {
    for name in ["du", "ninja"] {
        let spec = vsfs_workloads::suite::benchmark(name).expect("suite benchmark");
        check(name, &vsfs_workloads::generate(&spec.config).to_string());
    }
}

#[test]
fn generated_programs_harvest_equal_tables() {
    vsfs_testkit::check_cases("vsfs_harvest::generated_programs", 24, |rng| {
        let cfg = WorkloadConfig {
            seed: rng.next_u64(),
            functions: rng.gen_range(1usize..8),
            segments: rng.gen_range(1usize..5),
            loads_per_block: rng.gen_range(0usize..4),
            stores_per_block: rng.gen_range(0usize..3),
            load_chain: rng.gen_range(0usize..4),
            heap_fraction: rng.gen_range(0.0f64..1.0),
            array_fraction: rng.gen_range(0.0f64..1.0),
            indirect_call_fraction: rng.gen_range(0.0f64..0.6),
            backward_call_fraction: rng.gen_range(0.0f64..0.4),
            deref_chain: rng.gen_range(0.0f64..0.6),
            ..WorkloadConfig::small()
        };
        check(&format!("seed {:#x}", cfg.seed), &generate(&cfg).to_string());
    });
}
