//! Incremental re-solve benchmark: warm-query latency and
//! re-solve-after-edit against full from-scratch re-solves.
//!
//! ```text
//! incremental [WORKLOADS] [--edits N] [--gate X] [--gate-vsfs-load Y] [--out FILE]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `ninja,bake` — the solver-dominated profiles; `du` is
//! pipeline-dominated and would measure parser overhead, not the
//! incremental engine). For each workload the bench
//!
//! 1. generates a deterministic *local* edit script
//!    ([`vsfs_workloads::edit_script_local`]: each edit appends a
//!    private non-escaping epilogue to one function — the realistic
//!    save-and-reanalyze workload),
//! 2. cold-solves the base text through [`vsfs_core::solve_program`] in
//!    an `sfs` workspace (the [`IncrementalOptions`] default, which the
//!    gate is calibrated on), and [`VSFS_LOADS`] times in a `vsfs`
//!    workspace to record the VSFS cold load every edit is also compared
//!    with (the median, so one noisy load cannot move the ratio),
//! 3. on `ninja` only, re-solves one *full-body rewrite* of the base
//!    ([`vsfs_workloads::edit_script`]'s first step) from the base
//!    state. A rewrite renames every object in the function and cannot
//!    be absorbed locally; its region covers most of the graph, so the
//!    engine solves it cold with the workspace's own solver. It is
//!    recorded as counts (waves, dirty ratio) plus its time relative to
//!    a cold solve of the same text,
//! 4. for every local edit, times a full from-scratch re-solve of the
//!    edited text against [`vsfs_core::resolve_edit`] from the resident
//!    warm state, asserting the two fingerprints are identical, and
//!    records the re-solve's stage seconds ([`vsfs_core::StageSeconds`])
//!    as `{workload}.edit{i}.stage.*` phases,
//! 5. samples warm-query latency (may-alias over the resident result).
//!
//! With `--gate X` (default 5) the run doubles as the CI incremental
//! gate: it fails (exit 1) unless every workload's **median**
//! edit-speedup (full SFS seconds / incremental seconds) is at least `X`,
//! and unless every rewrite was solved cold before any seeded wave, with
//! its invalidated region past half the graph. Those counts are
//! deterministic, so no host noise can flip that half. With
//! `--gate-vsfs-load Y` it also fails unless every workload's median
//! local edit is at least `Y` times faster than the VSFS cold load of the
//! base text (recorded as `median_speedup_vs_vsfs_load_x100` either
//! way).
//! Results always go to `results/BENCH_incremental.json`
//! (`PhaseTimer::to_json` format).

use std::time::Instant;
use vsfs_adt::stats::PhaseTimer;
use vsfs_core::queries::AliasQueries;
use vsfs_core::{resolve_edit, solve_program, IncrementalOptions, SolverKind};
use vsfs_ir::ValueId;
use vsfs_workloads::{edit_script, edit_script_local};

/// Edit-stream seed: fixed so the benchmark is reproducible run to run.
const EDIT_SEED: u64 = 0xED17_5EED;
/// VSFS cold loads timed per workload; their median is the load every
/// edit is compared with.
const VSFS_LOADS: usize = 3;
/// May-alias queries sampled per resident state.
const QUERY_SAMPLES: u64 = 10_000;
/// Workloads that also time one full-body rewrite. `bake`'s would cost
/// two more cold-sized solves for no extra coverage.
const REWRITE_WORKLOADS: &[&str] = &["ninja"];

fn main() {
    let mut names: Vec<String> = vec!["ninja".into(), "bake".into()];
    let mut edits = 3usize;
    let mut gate = 5.0f64;
    let mut vsfs_load_gate: Option<f64> = None;
    let mut out = "results/BENCH_incremental.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--edits" => edits = parse_arg(args.next(), "--edits"),
            "--gate" => gate = parse_arg(args.next(), "--gate"),
            "--gate-vsfs-load" => {
                vsfs_load_gate = Some(parse_arg(args.next(), "--gate-vsfs-load"));
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }

    let mut timer = PhaseTimer::new();
    let mut failed = false;
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let mut cfg = spec.config.clone();
        if cfg.edit_fraction == 0.0 {
            cfg.edit_fraction = 0.5;
        }
        let script = edit_script_local(&cfg, EDIT_SEED, edits.max(1));
        let base_text = script.base.to_string();
        let opts = IncrementalOptions::default();

        let t = Instant::now();
        let (mut state, _) = solve_program(&base_text, opts, None, None)
            .unwrap_or_else(|e| fail(name, "base solve", &e.to_string()));
        let cold_secs = t.elapsed().as_secs_f64();
        timer.record(&format!("{name}.cold_solve"), t.elapsed());
        let vsfs_opts = IncrementalOptions { solver: SolverKind::Vsfs };
        let mut vsfs_loads = Vec::with_capacity(VSFS_LOADS);
        for _ in 0..VSFS_LOADS {
            let t = Instant::now();
            let (vsfs_state, vsfs_report) = solve_program(&base_text, vsfs_opts, None, None)
                .unwrap_or_else(|e| fail(name, "vsfs base solve", &e.to_string()));
            vsfs_loads.push(t.elapsed().as_secs_f64());
            drop(vsfs_state);
            if vsfs_report.fingerprint != state.fingerprint {
                fail(name, "vsfs base solve", "fingerprint diverged from the sfs solve");
            }
        }
        vsfs_loads.sort_by(f64::total_cmp);
        let vsfs_secs = vsfs_loads[VSFS_LOADS / 2];
        timer.record(
            &format!("{name}.vsfs_cold_solve"),
            std::time::Duration::from_secs_f64(vsfs_secs),
        );

        if REWRITE_WORKLOADS.contains(&name.as_str()) {
            let rewrite = edit_script(&cfg, EDIT_SEED, 1);
            assert_eq!(rewrite.base.to_string(), base_text, "both scripts share one base");
            failed |= !time_rewrite(name, &state, &rewrite.steps[0], opts, &mut timer);
        }

        let mut speedups = Vec::with_capacity(script.steps.len());
        let mut vsfs_speedups = Vec::with_capacity(script.steps.len());
        for (i, step) in script.steps.iter().enumerate() {
            let text = step.program.to_string();

            let t = Instant::now();
            let (full_state, full_report) = solve_program(&text, opts, None, None)
                .unwrap_or_else(|e| fail(name, "full re-solve", &e.to_string()));
            let full_secs = t.elapsed().as_secs_f64();
            // Only the fingerprint is compared below; dropping the full
            // state now keeps a harness artifact (a second resident copy
            // of the whole analysis) out of the incremental timing.
            drop(full_state);

            let t = Instant::now();
            let (next, report) = resolve_edit(&state, &text, opts, None, None)
                .unwrap_or_else(|e| fail(name, "incremental re-solve", &e.to_string()));
            let inc_secs = t.elapsed().as_secs_f64();

            if !report.incremental {
                eprintln!("FAIL: {name} edit {i}: engine fell back to a cold solve");
                std::process::exit(1);
            }
            if report.fingerprint != full_report.fingerprint {
                eprintln!(
                    "FAIL: {name} edit {i} (@{}): incremental fingerprint {:016x} != \
                     from-scratch {:016x}",
                    step.name, report.fingerprint, full_report.fingerprint
                );
                std::process::exit(1);
            }
            let speedup = if inc_secs > 0.0 { full_secs / inc_secs } else { f64::INFINITY };
            speedups.push(speedup);
            let vsfs_speedup = vsfs_secs / inc_secs.max(f64::MIN_POSITIVE);
            vsfs_speedups.push(vsfs_speedup);
            let key = |m: &str| format!("{name}.edit{i}.{m}");
            timer.record(&key("full"), std::time::Duration::from_secs_f64(full_secs));
            timer.record(&key("incremental"), std::time::Duration::from_secs_f64(inc_secs));
            timer.count(&key("dirty_nodes"), report.dirty_nodes as u64);
            timer.count(&key("total_nodes"), report.total_nodes as u64);
            timer.count(&key("carried_sets"), report.carried_sets as u64);
            timer.count(&key("speedup_x100"), (speedup * 100.0).min(u64::MAX as f64) as u64);
            timer.count(&key("speedup_vs_vsfs_load_x100"), (vsfs_speedup * 100.0) as u64);
            let s = report.stages;
            for (stage, secs) in [
                ("parse", s.parse),
                ("andersen", s.andersen),
                ("mssa", s.mssa),
                ("svfg", s.svfg),
                ("keys", s.keys),
                ("signatures", s.signatures),
                ("invalidate", s.invalidate),
                ("seed", s.seed),
                ("wave", s.wave),
                ("harvest", s.harvest),
                ("fingerprint", s.fingerprint),
            ] {
                let secs = std::time::Duration::from_secs_f64(secs.max(0.0));
                timer.record(&key(&format!("stage.{stage}")), secs);
            }
            println!(
                "{name} edit {i} (@{}): full {full_secs:.3}s vs incremental {inc_secs:.3}s \
                 ({speedup:.1}x, {}/{} dirty)",
                step.name, report.dirty_nodes, report.total_nodes
            );
            state = next;
        }

        // Warm-query latency on the final resident state.
        let queries = AliasQueries::new(&state.prog, &state.analysis.result);
        let n = state.prog.values.len() as u64;
        let mut x = EDIT_SEED | 1;
        let mut rand = move || {
            // xorshift64*: deterministic, no external RNG dependency.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let t = Instant::now();
        let mut hits = 0u64;
        for _ in 0..QUERY_SAMPLES {
            let p = ValueId::new((rand() % n) as u32);
            let q = ValueId::new((rand() % n) as u32);
            hits += queries.may_alias(p, q) as u64;
        }
        let per_query_ns = t.elapsed().as_nanos() as f64 / QUERY_SAMPLES as f64;
        timer.count(&format!("{name}.warm_query_ns"), per_query_ns as u64);
        timer.count(&format!("{name}.warm_query_hits"), hits);

        let median = |mut xs: Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        let vsfs_median = median(vsfs_speedups);
        let median = median(speedups);
        timer.count(&format!("{name}.median_speedup_x100"), (median * 100.0) as u64);
        timer.count(
            &format!("{name}.median_speedup_vs_vsfs_load_x100"),
            (vsfs_median * 100.0) as u64,
        );
        println!(
            "{name}: cold {cold_secs:.3}s (vsfs {vsfs_secs:.3}s), median edit speedup \
             {median:.1}x ({vsfs_median:.1}x over the vsfs load), warm query {per_query_ns:.0}ns"
        );
        if median < gate {
            eprintln!("FAIL: {name} median edit speedup {median:.1}x below the {gate:.0}x gate");
            failed = true;
        }
        if let Some(min) = vsfs_load_gate.filter(|&min| vsfs_median < min) {
            eprintln!(
                "FAIL: {name} median edit is {vsfs_median:.2}x the vsfs cold load, below the \
                 {min}x gate"
            );
            failed = true;
        }
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());
    if failed {
        std::process::exit(1);
    }
    println!(
        "incremental gate OK: every median speedup >= {gate:.0}x, \
         every rewrite solved cold with no seeded wave"
    );
    if let Some(min) = vsfs_load_gate {
        println!("vsfs load gate OK: every median edit >= {min}x faster than the vsfs cold load");
    }
}

/// Times one full-body rewrite of `state`'s program against a cold
/// solve of the same text and records its counts. Returns `false` unless
/// the rewrite passed the half-graph rule and was solved cold by the
/// workspace's engine with no seeded wave (a wave plus a cold solve
/// fails); exits on a fingerprint mismatch, like the local edits.
fn time_rewrite(
    name: &str,
    state: &vsfs_core::ProgramState,
    step: &vsfs_workloads::EditStep,
    opts: IncrementalOptions,
    timer: &mut PhaseTimer,
) -> bool {
    let text = step.program.to_string();
    let t = Instant::now();
    let (full_state, full_report) = solve_program(&text, opts, None, None)
        .unwrap_or_else(|e| fail(name, "rewrite cold solve", &e.to_string()));
    let full_secs = t.elapsed().as_secs_f64();
    drop(full_state);

    let t = Instant::now();
    let (next, report) = resolve_edit(state, &text, opts, None, None)
        .unwrap_or_else(|e| fail(name, "rewrite re-solve", &e.to_string()));
    let inc_secs = t.elapsed().as_secs_f64();
    let engine = next.engine;
    drop(next);

    if report.fingerprint != full_report.fingerprint {
        eprintln!(
            "FAIL: {name} rewrite (@{}): incremental fingerprint {:016x} != from-scratch {:016x}",
            step.name, report.fingerprint, full_report.fingerprint
        );
        std::process::exit(1);
    }
    let dirty_ratio = report.dirty_nodes as f64 / report.total_nodes.max(1) as f64;
    let cold_ratio = inc_secs / full_secs.max(f64::MIN_POSITIVE);
    let key = |m: &str| format!("{name}.rewrite.{m}");
    timer.record(&key("full"), std::time::Duration::from_secs_f64(full_secs));
    timer.record(&key("incremental"), std::time::Duration::from_secs_f64(inc_secs));
    timer.count(&key("waves"), report.waves as u64);
    timer.count(&key("dirty_nodes"), report.dirty_nodes as u64);
    timer.count(&key("total_nodes"), report.total_nodes as u64);
    timer.count(&key("dirty_ratio_x1000"), (dirty_ratio * 1000.0).round() as u64);
    timer.count(&key("cold_ratio_x100"), (cold_ratio * 100.0).round() as u64);
    println!(
        "{name} rewrite (@{}): full {full_secs:.3}s vs incremental {inc_secs:.3}s \
         ({cold_ratio:.2}x cold, {}/{} dirty, {} wave(s))",
        step.name, report.dirty_nodes, report.total_nodes, report.waves
    );
    let past_half = report.dirty_nodes * 2 > report.total_nodes;
    if report.incremental || report.waves != 0 || engine != opts.solver.name() || !past_half {
        eprintln!(
            "FAIL: {name} rewrite ran {} seeded wave(s) on engine `{engine}` with {}/{} dirty; \
             a rewrite past the half-graph rule is solved cold by `{}` with none",
            report.waves,
            report.dirty_nodes,
            report.total_nodes,
            opts.solver.name()
        );
        return false;
    }
    true
}

fn parse_arg<T: std::str::FromStr>(arg: Option<String>, flag: &str) -> T {
    let v = arg.unwrap_or_else(|| usage());
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid {flag} value `{v}`");
        std::process::exit(2);
    })
}

fn fail(name: &str, stage: &str, err: &str) -> ! {
    eprintln!("FAIL: {name}: {stage}: {err}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: incremental [WORKLOAD,WORKLOAD,...] [--edits N] [--gate X] \
         [--gate-vsfs-load Y] [--out FILE]"
    );
    std::process::exit(2);
}
