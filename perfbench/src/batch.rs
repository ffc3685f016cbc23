//! `batch-vsfs` and `batch-sfs`: repeated cold whole-program analyses of
//! one generated program, each followed by the queries and the checker
//! run a command-line user would make on its result.

use crate::layers::{self, Analysis, Solver};
use crate::server_ops::ServerClient;
use crate::stats::Rng;
use crate::{value_names, Run, PROBE_OP};
use std::time::Instant;

/// Queries of each kind per analysis; a run holds thousands of each.
const QUERIES_PER_STEP: usize = 200;
/// Checker runs on a batch result take a few ms; they are timed in
/// blocks of at least this long.
const CHECK_BLOCK_S: f64 = 0.03;

/// The program of each batch workload: a suite shape at the suite's own
/// generator seed, with a private epilogue added to a few seed-chosen
/// functions. The seed changes the text but not the program's size
/// class; across generator seeds the analysis cost varies up to 6×.
fn program(solver: Solver, rng: &mut Rng) -> String {
    let config = match solver {
        // The suite's Heavy `bake` shape, scaled to 12 functions.
        Solver::Vsfs => layers::WorkloadConfig { functions: 12, ..layers::shape_config("bake") },
        // The suite's Medium `ninja` shape, scaled to 20 functions.
        Solver::Sfs => layers::WorkloadConfig { functions: 20, ..layers::shape_config("ninja") },
    };
    let config = layers::WorkloadConfig { edit_fraction: 0.5, ..config };
    let salts = epilogue_salts(config.functions, rng);
    layers::program_text(&config, &salts)
}

/// Functions given an epilogue by [`epilogue_salts`].
const EPILOGUES: usize = 4;

/// Per-function salts giving [`EPILOGUES`] seed-chosen functions a
/// private epilogue (even non-zero salts; see the generator's salt
/// parity).
pub fn epilogue_salts(functions: usize, rng: &mut Rng) -> Vec<u64> {
    let mut salts = vec![0u64; functions];
    for _ in 0..EPILOGUES.min(functions) {
        let mut i = rng.below(functions);
        while salts[i] != 0 {
            i = (i + 1) % functions;
        }
        salts[i] = (rng.next_u64() | 1) << 1;
    }
    salts
}

/// One cold analysis; returns it, its seconds and the peak heap bytes it
/// added above what was live before it. The program text and the
/// benchmark's own sample buffers, which grow with the run, stay out.
fn analysis(run: &mut Run, text: &str, solver: Solver) -> (Analysis, f64, usize) {
    let heap = layers::MemScope::start();
    let t = Instant::now();
    run.tr.enter("analysis");
    let a = layers::analyze(text, solver, &mut run.tr);
    run.tr.exit();
    let secs = t.elapsed().as_secs_f64();
    (a, secs, heap.peak_bytes())
}

/// The first cold analysis in this process: the batch set-up time.
pub fn setup(run: &mut Run, solver: Solver) -> f64 {
    let mut rng = Rng::new(run.seed);
    let text = program(solver, &mut rng);
    let t = Instant::now();
    let a = layers::analyze(&text, solver, &mut run.tr);
    let dt = t.elapsed().as_secs_f64();
    drop(a);
    dt
}

pub fn run(run: &mut Run, solver: Solver) {
    let mut rng = Rng::new(run.seed);
    let text = program(solver, &mut rng);
    let names = value_names(&text);

    let t = Instant::now();
    let (first, ..) = {
        let was = run.tr.is_on();
        run.tr.set_on(false);
        let out = analysis(run, &text, solver);
        run.tr.set_on(was);
        out
    };
    run.e2e.push("setup_s", "s", t.elapsed().as_secs_f64());
    let check_reps = {
        let t = Instant::now();
        layers::check_analysis(&first, &mut run.tr);
        (CHECK_BLOCK_S / t.elapsed().as_secs_f64().max(1e-6)).ceil().max(1.0) as usize
    };
    drop(first);

    let mut fingerprints = Vec::new();
    let start = Instant::now();
    let mut step = 0u64;
    // A traced run needs a traced and an untraced analysis.
    while start.elapsed().as_secs_f64() < run.seconds || step < 2 {
        run.tr.set_op(step);
        // A traced run alternates traced and untraced analyses, so the
        // tracing overhead is measured inside one process.
        let traced = run.traced && step.is_multiple_of(2);
        run.tr.set_on(traced);
        let (a, secs, peak) = analysis(run, &text, solver);
        run.e2e.push(if traced { "traced_analyze_s" } else { "analyze_s" }, "s", secs);
        run.e2e.push("edit_ms", "ms", secs * 1e3);
        run.e2e.push("rewrite_ms", "ms", secs * 1e3);
        if traced {
            record_counts(run, &a.counts, false);
        }
        fingerprints.push(layers::fingerprint(&a));

        for _ in 0..QUERIES_PER_STEP {
            let (func, defs) = &names[rng.below(names.len())];
            let v = &defs[rng.below(defs.len())];
            let t = Instant::now();
            let ok = layers::pts_query(&a, func, v).is_some();
            run.e2e.push("pts_us", "us", t.elapsed().as_secs_f64() * 1e6);
            run.count(ok, || format!("pts {func}/{v} found no value"));
            let (p, q) = (&defs[rng.below(defs.len())], &defs[rng.below(defs.len())]);
            let t = Instant::now();
            let ok = layers::alias_query(&a, func, p, q).is_some();
            run.e2e.push("alias_us", "us", t.elapsed().as_secs_f64() * 1e6);
            run.count(ok, || format!("alias {func}/{p},{q} found no value"));
        }
        run.tr.set_on(false);
        let t = Instant::now();
        for _ in 0..check_reps {
            layers::check_analysis(&a, &mut run.tr);
        }
        run.e2e.push("check_ms", "ms", t.elapsed().as_secs_f64() * 1e3 / check_reps as f64);
        run.attempted += 1;
        run.tr.set_on(traced);
        if traced {
            let findings = layers::check_analysis(&a, &mut run.tr);
            run.layer.push("checkers.findings", "count", findings as f64);
        }
        run.e2e.push("peak_heap_mib", "MiB", peak as f64 / 1048576.0);
        drop(a);
        step += 1;
    }
    run.tr.set_on(run.traced);

    // The reference: the other staged solver on the same program,
    // outside every timed region. For VSFS it is a server `load`, whose
    // engine is staged SFS; a traced run also drives the server and the
    // incremental engine through it.
    run.tr.set_op(PROBE_OP);
    let reference = match solver {
        Solver::Vsfs => {
            let (mut client, _) = ServerClient::load(run, &text, "reference");
            if run.traced {
                client.probe(run, &text, &names, &mut rng);
            }
            client.fingerprint
        }
        Solver::Sfs => {
            let (a, ..) = analysis(run, &text, Solver::Vsfs);
            record_counts(run, &a.counts, true);
            let fp = layers::fingerprint(&a);
            drop(a);
            if run.traced {
                let (mut client, _) = ServerClient::load(run, &text, "probe");
                client.probe(run, &text, &names, &mut rng);
            }
            fp
        }
    };
    for fp in fingerprints {
        run.count(fp == reference, || {
            format!("fingerprint {fp:016x} differs from the reference {reference:016x}")
        });
    }
}

/// Work counts of one analysis, as per-layer samples (`probe` marks an
/// analysis off the workload's own path).
pub fn record_counts(run: &mut Run, c: &layers::AnalysisCounts, probe: bool) {
    let out = if probe { &mut run.probe } else { &mut run.layer };
    out.push("ir.insts", "count", c.insts as f64);
    out.push("andersen.pops", "count", c.andersen_pops as f64);
    out.push("andersen.propagations", "count", c.andersen_propagations as f64);
    out.push("andersen.union_hit_ratio", "ratio", c.andersen_union_hit_ratio);
    out.push("mssa.annotations", "count", c.mssa_annotations as f64);
    out.push("svfg.nodes", "count", c.svfg_nodes as f64);
    out.push("svfg.indirect_edges", "count", c.svfg_indirect_edges as f64);
    let solver = match &c.versioning {
        Some(v) => {
            out.push("versioning.versions", "count", v.versions as f64);
            out.push("versioning.reliance_edges", "count", v.reliance_edges as f64);
            "vsfs"
        }
        None => "sfs",
    };
    out.push(&format!("{solver}.node_pops"), "count", c.solve_node_pops as f64);
    out.push(&format!("{solver}.propagations"), "count", c.solve_propagations as f64);
    out.push(&format!("{solver}.memo_skip_ratio"), "ratio", c.solve_memo_skip_ratio);
    out.push("ptstore.unique_sets", "count", c.store_unique_sets as f64);
    out.push("ptstore.unique_set_mib", "MiB", c.store_unique_set_mib);
    out.push("ptstore.union_hit_ratio", "ratio", c.store_union_hit_ratio);
    out.push("ptstore.chunk_union_hit_ratio", "ratio", c.store_chunk_union_hit_ratio);
}
