//! Unification pre-analysis benchmark: tier cost and alias-region
//! sharding (DESIGN.md §14).
//!
//! ```text
//! unify_bench [WORKLOADS] [--runs N] [--jobs J] [--out FILE]
//!             [--gate-ratio X] [--gate-sharding]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `ninja,bake`). For each workload the bench measures, over
//! `--runs` repetitions (default 5, median reported):
//!
//! * the full Andersen solve vs the unification solve — the cost gap
//!   that justifies unification as the ladder's rung of last resort
//!   and as a pre-analysis (`ratio = andersen / unify`);
//! * alias-region sharding at `--jobs J` (default 4): the VSFS meld
//!   phase and the Andersen wave schedule, each cost-only (the PR 1
//!   LPT partitioner) vs region-seeded
//!   (`speedup = cost_only / region_seeded`, paired per run, median
//!   ratio reported).
//!
//! Without a gate flag the run writes `results/BENCH_unify.json`
//! (`PhaseTimer::to_json` format). With `--gate-ratio X` it fails
//! (exit 1) unless every workload's median Andersen/unify ratio is at
//! least `X`; with `--gate-sharding` it fails unless region-seeded
//! sharding is at least as fast as cost-only on every workload, up to
//! a 10% measurement-noise allowance (the two shardings are timed as
//! back-to-back pairs and the speedup is the median per-run ratio).
//! Gate runs skip the JSON write so the recorded baseline is
//! untouched.

use std::time::{Duration, Instant};
use vsfs_adt::stats::PhaseTimer;
use vsfs_andersen::{AndersenConfig, UnifyConfig};
use vsfs_core::VersionTables;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

fn main() {
    let mut names: Vec<String> = vec!["ninja".into(), "bake".into()];
    let mut out = "results/BENCH_unify.json".to_string();
    let mut runs = 5usize;
    let mut jobs = 4usize;
    let mut gate_ratio: Option<f64> = None;
    let mut gate_sharding = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--runs" => runs = parse_arg(args.next(), "--runs"),
            "--jobs" => jobs = parse_arg(args.next(), "--jobs"),
            "--gate-ratio" => gate_ratio = Some(parse_arg(args.next(), "--gate-ratio")),
            "--gate-sharding" => gate_sharding = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }
    let runs = runs.max(1);
    let gating = gate_ratio.is_some() || gate_sharding;

    let mut timer = PhaseTimer::new();
    let mut failed = false;
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let prog = vsfs_workloads::generate(&spec.config);
        let key = |metric: &str| format!("{name}.{metric}");

        // Tier cost: the whole Andersen solve vs the whole unify solve.
        let andersen_secs = median(runs, || {
            let t = Instant::now();
            let r = vsfs_andersen::analyze(&prog);
            let s = t.elapsed().as_secs_f64();
            std::hint::black_box(&r);
            s
        });
        let unify_secs = median(runs, || {
            let t = Instant::now();
            let r = vsfs_andersen::analyze_unify(&prog);
            let s = t.elapsed().as_secs_f64();
            std::hint::black_box(&r);
            s
        });
        let ratio = andersen_secs / unify_secs.max(1e-9);

        let unify = vsfs_andersen::analyze_unify(&prog);
        let regions = unify.alias_regions(prog.objects.len());
        timer.record(&key("andersen_solve"), Duration::from_secs_f64(andersen_secs));
        timer.record(&key("unify_solve"), Duration::from_secs_f64(unify_secs));
        timer.count(&key("ratio_x100"), (ratio * 100.0) as u64);
        timer.count(&key("unify_classes"), unify.class_count() as u64);
        timer.count(&key("alias_regions"), regions.region_count as u64);
        println!(
            "{name}: andersen {andersen_secs:.4}s, unify {unify_secs:.4}s \
             ({ratio:.0}x, {} classes, {} regions)",
            unify.class_count(),
            regions.region_count,
        );
        if let Some(g) = gate_ratio {
            if ratio < g {
                eprintln!("FAIL: {name} unify ratio {ratio:.1}x below the {g:.0}x gate");
                failed = true;
            }
        }

        // Alias-region sharding vs the cost-only LPT partitioner, both
        // at `--jobs J`. Scheduling-hint deltas are small, so each run
        // times the two shardings back to back (paired — machine drift
        // hits both sides equally) and the speedup is the median of
        // the per-run ratios; the reported seconds are per-side
        // medians.
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let (meld_cost, meld_region, meld_speedup) = paired(runs, || {
            (
                timed(|| VersionTables::build_with(&prog, &mssa, &svfg, jobs, None, None).result),
                timed(|| {
                    VersionTables::build_with(
                        &prog,
                        &mssa,
                        &svfg,
                        jobs,
                        Some(&regions.region_of_object),
                        None,
                    )
                    .result
                }),
            )
        });
        let (waves_cost, waves_region, waves_speedup) = paired(runs, || {
            (
                timed(|| {
                    vsfs_andersen::analyze_with(&prog, AndersenConfig::with_jobs(jobs), None, None)
                        .result
                }),
                timed(|| {
                    vsfs_andersen::analyze_with(
                        &prog,
                        AndersenConfig::with_jobs(jobs),
                        Some(&regions),
                        None,
                    )
                    .result
                }),
            )
        });
        timer.record(&key("meld_cost_only"), Duration::from_secs_f64(meld_cost));
        timer.record(&key("meld_region_seeded"), Duration::from_secs_f64(meld_region));
        timer.record(&key("waves_cost_only"), Duration::from_secs_f64(waves_cost));
        timer.record(&key("waves_region_seeded"), Duration::from_secs_f64(waves_region));
        timer.count(&key("meld_speedup_x100"), (meld_speedup * 100.0) as u64);
        timer.count(&key("waves_speedup_x100"), (waves_speedup * 100.0) as u64);
        println!(
            "{name}: jobs {jobs} meld {meld_cost:.4}s -> {meld_region:.4}s ({meld_speedup:.2}x), \
             waves {waves_cost:.4}s -> {waves_region:.4}s ({waves_speedup:.2}x)"
        );
        if gate_sharding {
            for (phase, speedup) in [("meld", meld_speedup), ("waves", waves_speedup)] {
                if speedup < 0.90 {
                    eprintln!(
                        "FAIL: {name} region-seeded {phase} sharding {speedup:.2}x slower \
                         than cost-only (gate: >= 0.90x)"
                    );
                    failed = true;
                }
            }
        }

        // The hint must be pure scheduling: both shardings (and the
        // sequential reference) agree bit-for-bit.
        let seeded = vsfs_andersen::analyze_with(
            &prog,
            AndersenConfig::with_jobs(jobs),
            Some(&regions),
            None,
        )
        .result;
        for v in prog.values.indices() {
            assert_eq!(
                aux.value_pts(v),
                seeded.value_pts(v),
                "{name}: region seeding changed %{}",
                prog.values[v].name
            );
        }

        // Tier sanity while we are here: steensgaard ⊇ unify ⊇ andersen.
        let steens =
            vsfs_andersen::analyze_unify_with(&prog, UnifyConfig::steensgaard(), None).result;
        for v in prog.values.indices() {
            assert!(
                steens.value_pts(v).is_superset(unify.value_pts(v))
                    && unify.value_pts(v).is_superset(aux.value_pts(v)),
                "{name}: tier chain broken at %{}",
                prog.values[v].name
            );
        }
    }

    if failed {
        std::process::exit(1);
    }
    if gating {
        let mut gates = Vec::new();
        if let Some(g) = gate_ratio {
            gates.push(format!("unify >= {g:.0}x faster than andersen"));
        }
        if gate_sharding {
            gates.push("region-seeded sharding >= cost-only".to_string());
        }
        println!("unify gate OK: {} on {}", gates.join(", "), names.join(", "));
        return;
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());
}

fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let r = f();
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(&r);
    s
}

fn median(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..runs).map(|_| f()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs `f` — which times a (baseline, candidate) pair back to back —
/// `runs` times and returns the median baseline seconds, median
/// candidate seconds, and the median of the per-run baseline/candidate
/// ratios (pairing cancels machine drift the two separate medians
/// would each absorb differently).
fn paired(runs: usize, mut f: impl FnMut() -> (f64, f64)) -> (f64, f64, f64) {
    let samples: Vec<(f64, f64)> = (0..runs).map(|_| f()).collect();
    let pick = |vals: Vec<f64>| -> f64 {
        let mut vals = vals;
        vals.sort_by(f64::total_cmp);
        vals[vals.len() / 2]
    };
    let base = pick(samples.iter().map(|&(b, _)| b).collect());
    let cand = pick(samples.iter().map(|&(_, c)| c).collect());
    let ratio = pick(samples.iter().map(|&(b, c)| b / c.max(1e-9)).collect());
    (base, cand, ratio)
}

fn parse_arg<T: std::str::FromStr>(arg: Option<String>, flag: &str) -> T {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        usage()
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: unify_bench [WORKLOAD,WORKLOAD,...] [--runs N] [--jobs J] [--out FILE] \
         [--gate-ratio X] [--gate-sharding]"
    );
    std::process::exit(2);
}
