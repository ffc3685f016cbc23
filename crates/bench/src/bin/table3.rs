//! Regenerates Tables II and III over the 15-benchmark suite. Table II
//! gives the benchmark characteristics (SVFG nodes, direct and indirect
//! edges, variable counts) of the pipeline each benchmark builds anyway;
//! Table III gives the time and memory of Andersen's, SFS, and VSFS,
//! with per-benchmark time/memory ratios and geometric means. Table II
//! prints first, then a blank line, then Table III; `--csv` prints both
//! as CSV.
//!
//! ```text
//! cargo run -p vsfs-bench --release --bin table3 -- \
//!     [--runs N] [--mem-limit-mib M] [--csv] [benchmark ...]
//! ```
//!
//! `--mem-limit-mib` emulates the paper's 120 GB cap, scaled to these
//! workloads: a solver whose peak heap exceeds the budget is reported as
//! OOM. The default of 1024 MiB reproduces the paper's table shape —
//! SFS exhausts the budget on `lynx` while VSFS completes comfortably.
//! Pass `--mem-limit-mib 0` for unlimited.

use vsfs_adt::mem::CountingAlloc;
use vsfs_bench::format::{csv_table2, csv_table3, render_table2, render_table3};
use vsfs_bench::{table2_row, table3_row, Pipeline};
use vsfs_workloads::suite;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let mut runs = 1usize;
    let mut mem_limit_mib = 1024usize;
    let mut csv = false;
    let mut filter: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => {
                runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--runs needs a number"));
            }
            "--mem-limit-mib" => {
                mem_limit_mib = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--mem-limit-mib needs a number"));
                if mem_limit_mib == 0 {
                    mem_limit_mib = usize::MAX / (1024 * 1024);
                }
            }
            "--csv" => csv = true,
            "--help" | "-h" => {
                eprintln!("usage: table3 [--runs N] [--mem-limit-mib M] [--csv] [benchmark ...]");
                return;
            }
            other => filter.push(other.to_string()),
        }
    }
    let budget = mem_limit_mib.saturating_mul(1024 * 1024);

    let (mut rows2, mut rows3) = (Vec::new(), Vec::new());
    for spec in suite() {
        if !filter.is_empty() && !filter.iter().any(|f| f == spec.name) {
            continue;
        }
        eprintln!("analysing {} (runs={runs}) ...", spec.name);
        let p = Pipeline::build(&spec);
        rows2.push(table2_row(&spec, &p));
        rows3.push(table3_row(&spec, &p, runs, budget));
    }
    if csv {
        print!("{}\n{}", csv_table2(&rows2), csv_table3(&rows3));
    } else {
        print!("{}\n{}", render_table2(&rows2), render_table3(&rows3));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
