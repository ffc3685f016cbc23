//! Unification benchmark: the cost of the coarse tier against the full
//! Andersen solve (DESIGN.md §14).
//!
//! ```text
//! unify_bench [WORKLOADS] [--runs N] [--out FILE] [--gate-ratio X]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `ninja,bake`). For each workload the bench measures, over
//! `--runs` repetitions (default 5, median reported), the full Andersen
//! solve vs the unification solve — the cost gap that justifies
//! unification as the degradation ladder's rung of last resort
//! (`ratio = andersen / unify`) — and checks the tier chain
//! `steensgaard ⊇ unify ⊇ andersen` on every value.
//!
//! Without a gate flag the run writes `results/BENCH_unify.json`
//! (`PhaseTimer::to_json` format). With `--gate-ratio X` it fails
//! (exit 1) unless every workload's median Andersen/unify ratio is at
//! least `X`. Gate runs skip the JSON write so the recorded baseline is
//! untouched.

use std::time::{Duration, Instant};
use vsfs_adt::stats::PhaseTimer;
use vsfs_andersen::UnifyConfig;

fn main() {
    let mut names: Vec<String> = vec!["ninja".into(), "bake".into()];
    let mut out = "results/BENCH_unify.json".to_string();
    let mut runs = 5usize;
    let mut gate_ratio: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--runs" => runs = parse_arg(args.next(), "--runs"),
            "--gate-ratio" => gate_ratio = Some(parse_arg(args.next(), "--gate-ratio")),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }
    let runs = runs.max(1);

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
        let andersen_secs = median(runs, || timed(|| vsfs_andersen::analyze(&prog)));
        let unify_secs = median(runs, || timed(|| vsfs_andersen::analyze_unify(&prog)));
        let ratio = andersen_secs / unify_secs.max(1e-9);

        let unify = vsfs_andersen::analyze_unify(&prog);
        timer.record(&key("andersen_solve"), Duration::from_secs_f64(andersen_secs));
        timer.record(&key("unify_solve"), Duration::from_secs_f64(unify_secs));
        timer.count(&key("ratio_x100"), (ratio * 100.0) as u64);
        timer.count(&key("unify_classes"), unify.class_count() as u64);
        println!(
            "{name}: andersen {andersen_secs:.4}s, unify {unify_secs:.4}s \
             ({ratio:.0}x, {} classes)",
            unify.class_count(),
        );
        if let Some(g) = gate_ratio {
            if ratio < g {
                eprintln!("FAIL: {name} unify ratio {ratio:.1}x below the {g:.0}x gate");
                failed = true;
            }
        }

        // Tier sanity while we are here: steensgaard ⊇ unify ⊇ andersen.
        let aux = vsfs_andersen::analyze(&prog);
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
    if let Some(g) = gate_ratio {
        println!("unify gate OK: unify >= {g:.0}x faster than andersen on {}", names.join(", "));
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

fn parse_arg<T: std::str::FromStr>(arg: Option<String>, flag: &str) -> T {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        usage()
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: unify_bench [WORKLOAD,WORKLOAD,...] [--runs N] [--out FILE] [--gate-ratio X]"
    );
    std::process::exit(2);
}
