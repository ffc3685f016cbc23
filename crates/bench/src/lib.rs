//! Shared harness for reproducing the paper's evaluation tables.
//!
//! * [`Pipeline`] builds every stage (program → Andersen → memory SSA →
//!   SVFG) for a benchmark config and exposes timings.
//! * [`table2_row`] and [`table3_row`] compute one row of the paper's
//!   Table II (benchmark characteristics) and Table III (time and memory
//!   of Andersen/SFS/VSFS) respectively.
//! * [`mod@format`] renders aligned text tables like the artifact's
//!   `table.awk` output.
//! * [`mod@timing`] is the std-only micro-benchmark harness driving the
//!   `benches/` targets (the workspace builds offline, without
//!   criterion).

pub mod format;
pub mod timing;

use std::time::Instant;
use vsfs_adt::mem::MemScope;
use vsfs_andersen::AndersenResult;
use vsfs_core::{SolveRequest, SolverKind};
use vsfs_ir::Program;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;
use vsfs_workloads::{generate, BenchmarkSpec};

/// All pre-solver artifacts for one benchmark.
pub struct Pipeline {
    /// The generated program.
    pub prog: Program,
    /// Auxiliary (Andersen) results.
    pub aux: AndersenResult,
    /// Memory SSA.
    pub mssa: MemorySsa,
    /// The SVFG.
    pub svfg: Svfg,
    /// Andersen wall-clock seconds.
    pub andersen_seconds: f64,
    /// Peak heap bytes during the Andersen run (0 without the counting
    /// allocator installed).
    pub andersen_peak_bytes: usize,
}

impl Pipeline {
    /// Generates the program and runs the staged pre-analyses.
    pub fn build(spec: &BenchmarkSpec) -> Pipeline {
        let prog = generate(&spec.config);
        let scope = MemScope::start();
        let t = Instant::now();
        let aux = vsfs_andersen::analyze(&prog);
        let andersen_seconds = t.elapsed().as_secs_f64();
        let andersen_peak_bytes = scope.peak_bytes();
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        Pipeline { prog, aux, mssa, svfg, andersen_seconds, andersen_peak_bytes }
    }
}

/// One row of Table II: benchmark characteristics.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// The paper's LOC for the real program (context only).
    pub paper_loc: u32,
    /// Generated-program instruction count (our size analogue).
    pub instructions: usize,
    /// SVFG nodes.
    pub nodes: usize,
    /// Direct edges.
    pub direct_edges: usize,
    /// Indirect edges.
    pub indirect_edges: usize,
    /// Top-level variables.
    pub top_level: usize,
    /// Address-taken variables.
    pub address_taken: usize,
    /// Description from Table II.
    pub description: String,
}

/// Computes one Table II row.
pub fn table2_row(spec: &BenchmarkSpec, p: &Pipeline) -> Table2Row {
    Table2Row {
        name: spec.name.to_string(),
        paper_loc: spec.paper_loc,
        instructions: p.prog.inst_count(),
        nodes: p.svfg.node_count(),
        direct_edges: p.svfg.direct_edge_count(),
        indirect_edges: p.svfg.indirect_edge_count(),
        top_level: p.prog.values.len(),
        address_taken: p.prog.objects.len(),
        description: spec.description.to_string(),
    }
}

/// The outcome of one solver run for Table III.
#[derive(Debug, Clone, Copy)]
pub struct SolverCell {
    /// Main-phase seconds (average over runs).
    pub seconds: f64,
    /// Peak heap bytes above the pre-run baseline.
    pub peak_bytes: usize,
    /// Stored object points-to sets at the end.
    pub stored_sets: usize,
    /// Object-set union operations.
    pub propagations: usize,
    /// Distinct canonical sets in the hash-consed store (the physical
    /// footprint behind `stored_sets` logical slots).
    pub unique_sets: usize,
    /// Fraction of non-shortcut store unions served by the memo.
    pub union_hit_rate: f64,
    /// Whether the run exceeded the configured memory budget (reported
    /// like the paper's OOM row for lynx).
    pub oom: bool,
}

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Andersen time (s) and peak bytes.
    pub andersen_seconds: f64,
    /// Andersen peak heap bytes.
    pub andersen_peak_bytes: usize,
    /// SFS main phase.
    pub sfs: SolverCell,
    /// VSFS versioning seconds.
    pub versioning_seconds: f64,
    /// VSFS main phase.
    pub vsfs: SolverCell,
    /// CFG-free (constraint-ordering) main phase. Runs straight off the
    /// Andersen constraint graph, so unlike the staged cells its cost
    /// includes no memory-SSA/SVFG prerequisite at all.
    pub cfgfree: SolverCell,
}

impl Table3Row {
    /// SFS time / VSFS time (versioning included), when both completed.
    pub fn time_diff(&self) -> Option<f64> {
        if self.sfs.oom {
            return None;
        }
        let vsfs_total = self.vsfs.seconds + self.versioning_seconds;
        if vsfs_total <= 0.0 {
            return None;
        }
        Some(self.sfs.seconds / vsfs_total)
    }

    /// SFS peak memory / VSFS peak memory.
    pub fn mem_diff(&self) -> Option<f64> {
        if self.vsfs.peak_bytes == 0 {
            return None;
        }
        Some(self.sfs.peak_bytes as f64 / self.vsfs.peak_bytes as f64)
    }
}

/// Computes one Table III row: `runs` repetitions of each solver, with a
/// memory budget emulating the paper's 120 GB cap (post-hoc: the run
/// completes, then is marked OOM if its peak exceeded the budget).
pub fn table3_row(
    spec: &BenchmarkSpec,
    p: &Pipeline,
    runs: usize,
    mem_budget_bytes: usize,
) -> Table3Row {
    // Each solver runs `runs` times; the cell keeps the last run's
    // counters and the average main-phase (and versioning) seconds.
    let measure = |kind: SolverKind| {
        let (mut secs, mut versioning_secs, mut cell) = (0.0, 0.0, None);
        for _ in 0..runs.max(1) {
            let scope = MemScope::start();
            let staged = Some((&p.mssa, &p.svfg));
            let r = vsfs_core::solve(&p.prog, &p.aux, staged, SolveRequest::new(kind)).result;
            let peak = scope.peak_bytes();
            secs += r.stats.solve_seconds;
            versioning_secs += r.stats.versioning_seconds;
            cell = Some(SolverCell {
                seconds: 0.0,
                peak_bytes: peak,
                stored_sets: r.stats.stored_object_sets,
                propagations: r.stats.object_propagations,
                unique_sets: r.stats.store.unique_sets,
                union_hit_rate: r.stats.store.union_hit_rate(),
                oom: peak > mem_budget_bytes,
            });
        }
        let mut cell = cell.expect("at least one run");
        cell.seconds = secs / runs.max(1) as f64;
        (cell, versioning_secs / runs.max(1) as f64)
    };
    let (sfs, _) = measure(SolverKind::Sfs);
    let (vsfs, versioning_seconds) = measure(SolverKind::Vsfs);
    let (cfgfree, _) = measure(SolverKind::CfgFree);

    Table3Row {
        name: spec.name.to_string(),
        andersen_seconds: p.andersen_seconds,
        andersen_peak_bytes: p.andersen_peak_bytes,
        sfs,
        versioning_seconds,
        vsfs,
        cfgfree,
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for r in ratios {
        if r > 0.0 {
            log_sum += r.ln();
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!(geomean([]).is_none());
        let g = geomean([2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean([0.0, -1.0]), None);
    }

    #[test]
    fn smallest_suite_entry_produces_rows() {
        let spec = vsfs_workloads::suite::benchmark("du").unwrap();
        let p = Pipeline::build(&spec);
        let t2 = table2_row(&spec, &p);
        assert!(t2.nodes > 0 && t2.indirect_edges > 0);
        let t3 = table3_row(&spec, &p, 1, usize::MAX);
        assert!(!t3.sfs.oom && !t3.vsfs.oom && !t3.cfgfree.oom);
        assert!(t3.sfs.stored_sets >= t3.vsfs.stored_sets);
        assert!(t3.cfgfree.stored_sets > 0);
    }
}
