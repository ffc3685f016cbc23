//! The benchmark's measuring program. `run.py` builds it and runs it:
//!
//! ```text
//! perfbench run   --workload W --seed N --seconds T --trace 0|1
//! perfbench setup --workload W --seed N
//! ```
//!
//! `run` prints the metrics, one per line with its unit, then a JSON
//! result line. `setup` prints the set-up time of one fresh process.
//! Workloads: `batch-vsfs`, `batch-sfs`, `serve-edit` (see README.md).

mod batch;
mod layers;
mod serve;
mod server_ops;
mod stats;
mod trace;

use stats::{median, quantile, HostNoise, Samples};
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static ALLOC: vsfs_adt::mem::CountingAlloc = vsfs_adt::mem::CountingAlloc::new();

/// Operation ids from here on are probes: layer calls made once, after
/// the timed loop, for layers the workload's own path does not call.
pub const PROBE_OP: u64 = 1 << 40;

/// State of one benchmark run, shared by the workloads.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tr: Tracer,
    /// Raw samples of the end-to-end metrics.
    pub e2e: Samples,
    /// Per-layer samples from the workload's own path.
    pub layer: Samples,
    /// Per-layer samples from probes.
    pub probe: Samples,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    /// Counts one checked operation; a failed one is reported at once.
    pub fn count(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", msg());
        }
    }

    /// Counts a server response, which must be `ok`; returns whether it
    /// was. (Responses are compact JSON with `ok` first.)
    pub fn response(&mut self, line: &str) -> bool {
        let ok = line.starts_with("{\"ok\":true");
        self.count(ok, || format!("response not ok: {}", line.trim_end()));
        ok
    }
}

/// Value names defined in each function of a printed program, for
/// functions with at least two: `(function, names without '%')`.
pub fn value_names(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("func @") {
            let name = rest.split(['(', ' ']).next().unwrap_or("");
            out.push((name.to_string(), Vec::new()));
        } else if let Some((lhs, _)) = line.trim_start().split_once(" = ") {
            if let (Some(v), Some(f)) = (lhs.strip_prefix('%'), out.last_mut()) {
                f.1.push(v.to_string());
            }
        }
    }
    out.retain(|(_, defs)| defs.len() >= 2);
    out
}

const WORKLOADS: [&str; 3] = ["batch-vsfs", "batch-sfs", "serve-edit"];

/// Per-layer times read from spans: `(span, metric, whole span or self)`.
const SPAN_METRICS: [(&str, &str, bool); 12] = [
    ("ir.parse", "ir.parse_ms", false),
    ("ir.verify", "ir.verify_ms", false),
    ("andersen", "andersen.ms", false),
    ("mssa", "mssa.ms", false),
    ("svfg", "svfg.ms", false),
    ("versioning", "versioning.ms", false),
    ("vsfs", "vsfs.ms", false),
    ("sfs", "sfs.ms", false),
    ("checkers", "checkers.ms", false),
    ("incremental", "incremental.edit_ms", true),
    ("incremental.front", "incremental.front_ms", true),
    ("incremental.fixpoint", "incremental.fixpoint_ms", false),
];

/// Every per-layer metric a traced run reports.
const PER_LAYER: [&str; 48] = [
    "ir.parse_ms",
    "ir.verify_ms",
    "ir.insts",
    "andersen.ms",
    "andersen.pops",
    "andersen.propagations",
    "andersen.union_hit_ratio",
    "mssa.ms",
    "mssa.annotations",
    "svfg.ms",
    "svfg.nodes",
    "svfg.indirect_edges",
    "versioning.ms",
    "versioning.versions",
    "versioning.reliance_edges",
    "vsfs.ms",
    "vsfs.node_pops",
    "vsfs.propagations",
    "vsfs.memo_skip_ratio",
    "sfs.ms",
    "sfs.node_pops",
    "sfs.propagations",
    "sfs.memo_skip_ratio",
    "ptstore.unique_sets",
    "ptstore.unique_set_mib",
    "ptstore.union_hit_ratio",
    "ptstore.chunk_union_hit_ratio",
    "incremental.edit_ms",
    "incremental.front_ms",
    "incremental.fixpoint_ms",
    "incremental.dirty_ratio",
    "incremental.waves",
    "incremental.cold_fallback_ratio",
    "queries.may_alias_ns",
    "queries.value_pts_ns",
    "checkers.ms",
    "checkers.findings",
    "server.overhead_us.edit",
    "server.overhead_us.pts",
    "server.overhead_us.alias",
    "server.overhead_us.check",
    "server.json_parse_us",
    "trace.overhead_pct",
    "trace.remainder_pct",
    "trace.spans",
    "host.steal_ticks",
    "host.off_cpu_pct",
    "host.calib_ms",
];

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command (run|setup)")?;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            // Any integer; negative seeds wrap.
            "--seed" => {
                let n: i128 = val.parse().map_err(|e| format!("--seed: {e}"))?;
                seed = Some(n as u64);
            }
            "--seconds" => seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?})"));
    }
    let seed = seed.ok_or("missing --seed")?;
    Ok(Args { cmd, workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tr: Tracer::new(args.trace),
        e2e: Samples::default(),
        layer: Samples::default(),
        probe: Samples::default(),
        attempted: 0,
        failed: 0,
    };
    if args.cmd == "setup" {
        let secs = match args.workload.as_str() {
            "batch-vsfs" => batch::setup(&mut run, layers::Solver::Vsfs),
            "batch-sfs" => batch::setup(&mut run, layers::Solver::Sfs),
            _ => serve::setup(&mut run),
        };
        println!("{secs}");
        return ExitCode::SUCCESS;
    }

    let noise = HostNoise::start();
    match args.workload.as_str() {
        "batch-vsfs" => batch::run(&mut run, layers::Solver::Vsfs),
        "batch-sfs" => batch::run(&mut run, layers::Solver::Sfs),
        _ => serve::run(&mut run),
    }
    let host = noise.finish();
    println!(
        "perfbench: workload={} seed={} trace={} attempted={} failed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.attempted,
        run.failed
    );
    let steal = host.steal_ticks.map_or("n/a".to_string(), |s| s.to_string());
    println!(
        "host: steal_ticks={steal} off_cpu_share={:.4} calib_ms={:.3}",
        host.off_cpu_share, host.calib_ms
    );

    let metrics = if args.trace {
        let mut m = layer_metrics(&mut run, &args.workload);
        m.push(("host.steal_ticks".into(), host.steal_ticks.unwrap_or(0) as f64, "count"));
        m.push(("host.off_cpu_pct".into(), host.off_cpu_share * 100.0, "%"));
        m.push(("host.calib_ms".into(), host.calib_ms, "ms"));
        write_spans(&run.tr, &args.workload, args.seed);
        m
    } else {
        e2e_metrics(&run)
    };
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} has no value");
            run.failed += 1;
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        body.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    let correct = run.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} of {} checked operations FAILED", run.failed, run.attempted);
        ExitCode::FAILURE
    }
}

fn e2e_metrics(run: &Run) -> Vec<(String, f64, &'static str)> {
    let e = &run.e2e;
    let peak = e.get("peak_heap_mib").iter().copied().fold(f64::NAN, f64::max);
    vec![
        ("setup_s".into(), median(e.get("setup_s")), "s"),
        ("analyze_s".into(), median(e.get("analyze_s")), "s"),
        ("peak_heap_mib".into(), peak, "MiB"),
        ("edit_p50_ms".into(), median(e.get("edit_ms")), "ms"),
        ("edit_p90_ms".into(), quantile(e.get("edit_ms"), 0.9), "ms"),
        ("rewrite_p50_ms".into(), median(e.get("rewrite_ms")), "ms"),
        ("pts_p50_us".into(), median(e.get("pts_us")), "us"),
        ("pts_p90_us".into(), quantile(e.get("pts_us"), 0.9), "us"),
        ("alias_p50_us".into(), median(e.get("alias_us")), "us"),
        ("alias_p90_us".into(), quantile(e.get("alias_us"), 0.9), "us"),
        ("check_p90_ms".into(), quantile(e.get("check_ms"), 0.9), "ms"),
    ]
}

/// Median over operations of a per-operation total, taken over the
/// workload's own operations when it has any, else over probes.
fn by_op_median(per_op: &std::collections::BTreeMap<u64, u64>) -> f64 {
    let path: Vec<f64> =
        per_op.iter().filter(|(op, _)| **op < PROBE_OP).map(|(_, ns)| *ns as f64).collect();
    let probe: Vec<f64> =
        per_op.iter().filter(|(op, _)| **op >= PROBE_OP).map(|(_, ns)| *ns as f64).collect();
    median(if path.is_empty() { &probe } else { &path })
}

fn layer_metrics(run: &mut Run, workload: &str) -> Vec<(String, f64, &'static str)> {
    let tr = &run.tr;
    let self_ns = tr.self_ns();
    let mut out: std::collections::BTreeMap<String, (f64, &'static str)> = Default::default();
    for (name, value, unit) in run.probe.medians() {
        out.insert(name, (value, unit));
    }
    for (name, value, unit) in run.layer.medians() {
        out.insert(name, (value, unit));
    }
    for (span, metric, whole) in SPAN_METRICS {
        let mut per_op = std::collections::BTreeMap::new();
        for (s, t) in tr.spans().iter().zip(&self_ns) {
            if s.name == span {
                *per_op.entry(s.op).or_insert(0) += if whole { s.dur_ns() } else { *t };
            }
        }
        out.insert(metric.to_string(), (by_op_median(&per_op) / 1e6, "ms"));
    }

    // Accounting: how much of the traced operation's wall time the
    // layer spans explain, and what tracing itself costs.
    let (overhead, remainder) = if workload == "serve-edit" {
        // An edit request is server overhead plus the incremental
        // re-solve; the re-solve is its front stages (timed alone), its
        // fixpoint (timed by the engine) and a remainder: keys,
        // signatures, invalidation and harvest.
        let fixpoint = tr.dur_ns_by_op("incremental.fixpoint");
        let front = tr.dur_ns_by_op("incremental.front");
        let edit = tr.dur_ns_by_op("server.edit");
        let rem: Vec<f64> = tr
            .dur_ns_by_op("incremental")
            .iter()
            .filter_map(|(op, d)| {
                let whole = *edit.get(op)? as f64;
                let parts = (fixpoint.get(op)? + front.get(op)?) as f64;
                Some((*d as f64 - parts) / whole * 100.0)
            })
            .collect();
        let traced = median(run.e2e.get("traced_edit_ms"));
        let plain = median(run.e2e.get("edit_ms"));
        ((traced - plain) / plain * 100.0, median(&rem))
    } else {
        let mut total = 0.0;
        let mut own = 0.0;
        for (s, t) in tr.spans().iter().zip(&self_ns).filter(|(s, _)| s.name == "analysis") {
            total += s.dur_ns() as f64;
            own += *t as f64;
        }
        let traced = median(run.e2e.get("traced_analyze_s"));
        let plain = median(run.e2e.get("analyze_s"));
        ((traced - plain) / plain * 100.0, own / total * 100.0)
    };
    // A share of edits, not a typical edit.
    let fallbacks = match run.layer.get("incremental.cold_fallback_ratio") {
        [] => run.probe.get("incremental.cold_fallback_ratio"),
        v => v,
    };
    let share = fallbacks.iter().sum::<f64>() / fallbacks.len() as f64;
    out.insert("incremental.cold_fallback_ratio".into(), (share, "ratio"));
    out.insert("trace.overhead_pct".into(), (overhead, "%"));
    out.insert("trace.remainder_pct".into(), (remainder, "%"));
    out.insert("trace.spans".into(), (tr.spans().len() as f64, "count"));
    print_accounting(tr, workload);

    PER_LAYER
        .iter()
        .filter(|n| !n.starts_with("host."))
        .map(|n| {
            let (v, u) = out.get(*n).copied().unwrap_or((f64::NAN, "count"));
            (n.to_string(), v, u)
        })
        .collect()
}

/// Prints how the mean traced operation's wall time (an analysis, or a
/// step's edit requests) splits into layer self times, with the
/// remainder.
fn print_accounting(tr: &Tracer, workload: &str) {
    let mean = |name: &str| {
        let by_op = tr.dur_ns_by_op(name);
        let ops = by_op.keys().filter(|op| **op < PROBE_OP).count().max(1);
        by_op.iter().filter(|(op, _)| **op < PROBE_OP).map(|(_, ns)| *ns as f64).sum::<f64>()
            / ops as f64
            / 1e6
    };
    if workload == "serve-edit" {
        let (edit, inc) = (mean("server.edit"), mean("incremental"));
        let (front, fix) = (mean("incremental.front"), mean("incremental.fixpoint"));
        let rest = inc - front - fix;
        println!(
            "accounting: edit {edit:.2} ms = server overhead {:.2} + front stages (timed alone) \
             {front:.2} + fixpoint {fix:.2} + remainder {rest:.2} ({:.1}%: keys, signatures, \
             invalidation, harvest)",
            edit - inc,
            rest / edit * 100.0
        );
    } else {
        let total = mean("analysis");
        let stages =
            ["ir.parse", "ir.verify", "andersen", "mssa", "svfg", "versioning", "vsfs", "sfs"];
        let parts: Vec<(&str, f64)> =
            stages.iter().map(|s| (*s, mean(s))).filter(|(_, ms)| *ms > 0.0).collect();
        let rest = total - parts.iter().map(|(_, ms)| ms).sum::<f64>();
        let terms: Vec<String> = parts.iter().map(|(s, ms)| format!("{s} {ms:.2}")).collect();
        println!(
            "accounting: analysis {total:.2} ms = {} + remainder {rest:.2} ({:.2}%)",
            terms.join(" + "),
            rest / total * 100.0
        );
    }
}

fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_jsonl())) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}
