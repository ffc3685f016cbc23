//! `vsfs` — whole-program pointer-analysis driver, the analogue of SVF's
//! `wpa` tool.
//!
//! ```text
//! vsfs [OPTIONS] <program.vir | --corpus NAME | --workload NAME>
//! vsfs serve [--socket PATH] [--corpus DIR] [--solver NAME]
//!            [--snapshot-dir DIR] [--workers N] [--queue N]
//!            [--deadline SECS] [--max-request-bytes N]
//!
//! `serve` starts the long-running incremental analysis server (see
//! `vsfs-server`): programs stay resident, `edit` requests re-solve
//! only the invalidated SVFG region, and every response carries a
//! deterministic result fingerprint. Panicking requests quarantine only
//! their workspace, `--snapshot-dir` persists and restores solved warm
//! state across restarts, and socket serving is concurrent behind a
//! bounded admission queue that sheds overload with typed errors.
//!
//! Analyses:
//!   --solver NAME      which analysis to run: `ander` (Andersen's
//!                      flow-insensitive baseline only), `dense`
//!                      (textbook IN/OUT iteration over the ICFG),
//!                      `sfs` (staged flow-sensitive analysis),
//!                      `vsfs` (versioned SFS, the default),
//!                      `cfgfree` (constraint-ordering flow
//!                      sensitivity; builds no memory SSA or SVFG), or
//!                      `unify` (equality-based unification — the
//!                      coarsest, fastest tier; builds no memory SSA
//!                      or SVFG)
//!   --fspta            alias for `--solver sfs`
//!   --vfspta           alias for `--solver vsfs`
//!
//! Input:
//!   <file.vir>         a textual IR file
//!   --corpus NAME      a built-in corpus program (see --list)
//!   --workload NAME    a generated suite benchmark (du, ninja, ...)
//!
//! Execution:
//!   --jobs N           worker threads for VSFS's per-object versioning
//!                      (default 1 = sequential; 0 = all cores; results
//!                      are identical for every N). Every other stage
//!                      runs on one thread.
//!
//! Budgets (any of these switches the run into governed mode):
//!   --time-budget SECS wall-clock deadline shared by every stage
//!   --step-budget N    max solver steps for the flow-sensitive stage
//!   --mem-budget MIB   peak live-heap cap, polled at checkpoints
//!   --inject-fault K:S inject a seeded fault (K = panic|deadline|mem-cap,
//!                      S = decimal seed) into the flow-sensitive stage
//!
//! Output:
//!   --print-pts        print the points-to set of every named value
//!   --print-callgraph  print resolved (call site -> callee) edges
//!   --precision-report aggregate precision gained over Andersen's
//!   --dot-svfg FILE    write the SVFG in Graphviz format (with object
//!                      versions and checker source/sink highlights when
//!                      combined with --check under VSFS)
//!   --stats            print phase timings and solver statistics
//!   --list             list corpus programs and suite benchmarks
//!
//! Checking:
//!   --check            run the source-sink checkers (use-after-free,
//!                      double-free, leak, null-deref) under all four
//!                      precision tiers — classic Steensgaard, refined
//!                      unification, Andersen, flow-sensitive; print
//!                      the flow-sensitive diagnostics (sorted, stable)
//!                      followed by `check-summary:` lines with the
//!                      per-tier counts and the false positives
//!                      flow-sensitivity removed
//!   --check-json FILE  also write the machine-readable comparison
//!                      report (implies --check)
//! ```
//!
//! # Exit codes and degradation
//!
//! The governed run walks a four-rung soundness ladder; every rung is a
//! sound over-approximation of the one below it.
//!
//! * `0` — analysis ran to completion (rung 1, flow-sensitive).
//! * `2` — a budget tripped (or an injected fault fired) but a *sound*
//!   coarser answer exists. A trip during the flow-sensitive stage falls
//!   back to the auxiliary Andersen result (rung 2); a trip during the
//!   auxiliary (Andersen) stage itself — whose partial result would be
//!   unsound — falls back to the unification tier (rung 3), which is
//!   re-run ungoverned at a small fraction of the Andersen cost. Either
//!   way a one-line JSON record on stdout names the degraded stage and
//!   reason.
//! * `1` — hard error (rung 4): bad arguments or unparsable input.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use vsfs_adt::govern::{Budget, CancelToken, Completion, DegradeReason, Governor};
use vsfs_adt::mem::CountingAlloc;
use vsfs_core::{FlowSensitiveResult, SolveRequest, SolverKind};
use vsfs_ir::Program;
use vsfs_testkit::FaultPlan;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// What `--solver` selects. `ander` stops after the auxiliary stage and
/// is therefore not a [`SolverKind`] (those all produce a flow-sensitive
/// result); every other name maps straight onto the core solver family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Analysis {
    Andersen,
    Flow(SolverKind),
}

#[derive(Debug)]
struct Options {
    analysis: Analysis,
    input: Input,
    print_pts: bool,
    print_callgraph: bool,
    precision_report: bool,
    dot_svfg: Option<String>,
    stats: bool,
    check: bool,
    check_json: Option<String>,
    jobs: usize,
    time_budget: Option<f64>,
    step_budget: Option<u64>,
    mem_budget_mib: Option<usize>,
    inject_fault: Option<FaultPlan>,
}

impl Options {
    fn governed(&self) -> bool {
        self.time_budget.is_some()
            || self.step_budget.is_some()
            || self.mem_budget_mib.is_some()
            || self.inject_fault.is_some()
    }
}

#[derive(Debug)]
enum Input {
    File(String),
    Corpus(String),
    Workload(String),
}

fn usage() -> ! {
    eprintln!(
        "usage: vsfs [--solver ander|dense|sfs|vsfs|cfgfree|unify] \
         [--jobs N] \
         [--time-budget SECS] [--step-budget N] [--mem-budget MIB] [--inject-fault KIND:SEED] \
         [--print-pts] [--print-callgraph] [--precision-report] [--dot-svfg FILE] \
         [--check] [--check-json FILE] [--stats] \
         (<file.vir> | --corpus NAME | --workload NAME | --list)"
    );
    std::process::exit(1);
}

/// Parses the value of `--flag`, exiting with a typed error (code 1) on a
/// missing or malformed value.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid value `{v}` for {flag}");
            std::process::exit(1);
        }),
        None => {
            eprintln!("error: {flag} needs a value");
            std::process::exit(1);
        }
    }
}

/// Parses a named-choice flag (`--solver`, in both the driver and
/// `serve`): one place constructs the typed unknown-name
/// error, so every such flag reports a missing value, the offending
/// name, and the accepted names the same way, exiting with code 1.
fn name_value<T>(
    flag: &str,
    value: Option<String>,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    let name: String = flag_value(flag, value);
    parse(&name).unwrap_or_else(|| {
        eprintln!("error: invalid value `{name}` for {flag} (expected {expected})");
        std::process::exit(1);
    })
}

fn parse_args() -> Options {
    let mut analysis = Analysis::Flow(SolverKind::default());
    let mut input = None;
    let mut print_pts = false;
    let mut print_callgraph = false;
    let mut precision_report = false;
    let mut dot_svfg = None;
    let mut stats = false;
    let mut check = false;
    let mut check_json = None;
    let mut jobs = 1usize;
    let mut time_budget = None;
    let mut step_budget = None;
    let mut mem_budget_mib = None;
    let mut inject_fault = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => jobs = flag_value("--jobs", args.next()),
            "--time-budget" => {
                let secs: f64 = flag_value("--time-budget", args.next());
                if !secs.is_finite() || secs < 0.0 {
                    eprintln!("error: invalid value `{secs}` for --time-budget");
                    std::process::exit(1);
                }
                time_budget = Some(secs);
            }
            "--step-budget" => step_budget = Some(flag_value("--step-budget", args.next())),
            "--mem-budget" => mem_budget_mib = Some(flag_value("--mem-budget", args.next())),
            "--inject-fault" => {
                let desc: String = flag_value("--inject-fault", args.next());
                match FaultPlan::parse(&desc) {
                    Ok(plan) => inject_fault = Some(plan),
                    Err(e) => {
                        eprintln!("error: invalid --inject-fault: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--solver" => {
                analysis = name_value(
                    "--solver",
                    args.next(),
                    "`ander`, `dense`, `sfs`, `vsfs`, `cfgfree`, or `unify`",
                    |name| match name {
                        "ander" => Some(Analysis::Andersen),
                        _ => SolverKind::parse(name).map(Analysis::Flow),
                    },
                );
            }
            "--fspta" => analysis = Analysis::Flow(SolverKind::Sfs),
            "--vfspta" => analysis = Analysis::Flow(SolverKind::Vsfs),
            "--print-pts" => print_pts = true,
            "--print-callgraph" => print_callgraph = true,
            "--precision-report" => precision_report = true,
            "--stats" => stats = true,
            "--check" => check = true,
            "--check-json" => {
                check = true;
                check_json = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--dot-svfg" => dot_svfg = Some(args.next().unwrap_or_else(|| usage())),
            "--corpus" => input = Some(Input::Corpus(args.next().unwrap_or_else(|| usage()))),
            "--workload" => input = Some(Input::Workload(args.next().unwrap_or_else(|| usage()))),
            "--list" => {
                println!("corpus programs:");
                for p in vsfs_workloads::corpus::corpus() {
                    println!("  {:<16} {}", p.name, p.about);
                }
                println!("suite benchmarks:");
                for b in vsfs_workloads::suite() {
                    println!("  {:<16} {}", b.name, b.description);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => input = Some(Input::File(other.to_string())),
            _ => usage(),
        }
    }
    Options {
        analysis,
        input: input.unwrap_or_else(|| usage()),
        print_pts,
        print_callgraph,
        precision_report,
        dot_svfg,
        stats,
        check,
        check_json,
        jobs,
        time_budget,
        step_budget,
        mem_budget_mib,
        inject_fault,
    }
}

fn load_program(input: &Input) -> Result<Program, Vec<String>> {
    let parse_all = |src: &str| {
        vsfs_ir::parse_program_all(src)
            .map_err(|diags| diags.into_iter().map(|d| d.to_string()).collect::<Vec<_>>())
    };
    let prog = match input {
        Input::File(path) => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| vec![format!("cannot read {path}: {e}")])?;
            parse_all(&src)?
        }
        Input::Corpus(name) => {
            let p = vsfs_workloads::corpus::corpus()
                .into_iter()
                .find(|p| p.name == *name)
                .ok_or_else(|| vec![format!("unknown corpus program `{name}` (try --list)")])?;
            parse_all(p.source)?
        }
        Input::Workload(name) => {
            let b = vsfs_workloads::suite::benchmark(name)
                .ok_or_else(|| vec![format!("unknown workload `{name}` (try --list)")])?;
            vsfs_workloads::generate(&b.config)
        }
    };
    vsfs_ir::verify::verify(&prog).map_err(|e| vec![e.to_string()])?;
    Ok(prog)
}

fn print_value_pts(prog: &Program, pts_of: impl Fn(vsfs_ir::ValueId) -> Vec<String>) {
    for (v, val) in prog.values.iter_enumerated() {
        let names = pts_of(v);
        if names.is_empty() {
            continue;
        }
        let scope = match val.func {
            Some(f) => format!("@{}", prog.functions[f].name),
            None => "<global>".to_string(),
        };
        println!("pt({}::%{}) = {{{}}}", scope, val.name, names.join(", "));
    }
}

fn obj_names(prog: &Program, s: &vsfs_adt::PointsToSet<vsfs_ir::ObjId>) -> Vec<String> {
    s.iter().map(|o| prog.objects[o].name.clone()).collect()
}

fn main() -> ExitCode {
    // `vsfs serve` is a subcommand with its own flags; intercept it
    // before the analysis-driver flag parsing.
    if std::env::args().nth(1).as_deref() == Some("serve") {
        return run_serve(std::env::args().skip(2).collect());
    }
    let opts = parse_args();
    let prog = match load_program(&opts.input) {
        Ok(p) => p,
        Err(diags) => {
            for d in diags {
                eprintln!("error: {d}");
            }
            return ExitCode::from(1);
        }
    };
    if opts.check && matches!(opts.analysis, Analysis::Andersen | Analysis::Flow(SolverKind::Unify))
    {
        eprintln!(
            "error: --check needs a flow-sensitive analysis (--solver dense|sfs|vsfs|cfgfree) \
             to compare against; the coarser tiers run as baselines automatically"
        );
        return ExitCode::from(1);
    }
    run(&opts, &prog)
}

/// `vsfs serve [--socket PATH] [--corpus DIR] [--solver NAME]
/// [--snapshot-dir DIR] [--workers N] [--queue N] [--deadline SECS]
/// [--max-request-bytes N]` — the
/// long-running incremental analysis server (line-delimited JSON on
/// stdin/stdout, or on a Unix socket with `--socket`). `--corpus DIR`
/// preloads every `*.vir` file in `DIR` as a resident program keyed by
/// its file stem. `--solver NAME` sets the default resident solver
/// (dense|sfs|vsfs|cfgfree|unify, default vsfs; per-request `solver`
/// fields override it).
/// `--snapshot-dir DIR` persists every completed solve to a checksummed
/// warm-state snapshot and restores all of them at startup instead of
/// cold-solving. See `vsfs-server` for the protocol and robustness
/// model.
fn run_serve(args: Vec<String>) -> ExitCode {
    let mut socket: Option<std::path::PathBuf> = None;
    let mut corpus: Option<std::path::PathBuf> = None;
    let mut config = vsfs_server::ServerConfig::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(flag_value("--socket", it.next())),
            "--corpus" => corpus = Some(flag_value("--corpus", it.next())),
            "--snapshot-dir" => config.snapshot_dir = Some(flag_value("--snapshot-dir", it.next())),
            "--workers" => config.workers = flag_value("--workers", it.next()),
            "--queue" => config.queue_depth = flag_value("--queue", it.next()),
            "--deadline" => config.default_time_budget = Some(flag_value("--deadline", it.next())),
            "--max-request-bytes" => {
                config.max_request_bytes = flag_value("--max-request-bytes", it.next())
            }
            "--solver" => {
                config.opts.solver = name_value(
                    "--solver",
                    it.next(),
                    "`dense`, `sfs`, `vsfs`, `cfgfree`, or `unify`",
                    SolverKind::parse,
                );
            }
            other => {
                eprintln!("error: unknown serve flag '{other}'");
                return ExitCode::from(1);
            }
        }
    }
    let mut server = vsfs_server::Server::with_config(config);
    for line in server.restore_snapshots() {
        eprintln!("snapshot {line}");
    }
    if let Some(dir) = corpus {
        let mut entries: Vec<std::path::PathBuf> = match std::fs::read_dir(&dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "vir"))
                .collect(),
            Err(e) => {
                eprintln!("error: cannot read corpus dir {}: {e}", dir.display());
                return ExitCode::from(1);
            }
        };
        entries.sort();
        for path in entries {
            let id = path.file_stem().unwrap_or_default().to_string_lossy().to_string();
            let source = match std::fs::read_to_string(&path) {
                Ok(src) => src,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", path.display());
                    return ExitCode::from(1);
                }
            };
            match server.load_source(&id, &source) {
                Ok(report) => eprintln!(
                    "loaded {id}: {} nodes, fingerprint {:016x}{}",
                    report.total_nodes,
                    report.fingerprint,
                    if report.restored { " (snapshot restore)" } else { "" }
                ),
                Err(e) => {
                    eprintln!("error: corpus program {id}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    let served = match socket {
        Some(path) => {
            eprintln!("serving on {}", path.display());
            server.run_unix(&path)
        }
        None => server.run_stdio(),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve I/O failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// A short name for the analysed program, used in the JSON check report.
fn program_name(input: &Input) -> String {
    match input {
        Input::File(p) => {
            std::path::Path::new(p).file_stem().and_then(|s| s.to_str()).unwrap_or(p).to_string()
        }
        Input::Corpus(n) | Input::Workload(n) => n.clone(),
    }
}

/// Runs every checker under all four precision tiers — the two
/// unification tiers are cheap enough to always compute — prints the
/// flow-sensitive diagnostics and the `check-summary:` comparison, and
/// writes the JSON report when requested. In a governed run that
/// degraded, `result` is the Andersen fallback, so the "flow-sensitive"
/// findings soundly coincide with the Andersen ones.
fn run_check(
    opts: &Options,
    prog: &Program,
    aux: &vsfs_andersen::AndersenResult,
    svfg: &vsfs_svfg::Svfg,
    result: &FlowSensitiveResult,
) -> Result<Vec<vsfs_checkers::Finding>, ExitCode> {
    use vsfs_checkers::{run_checkers, AndersenView, CheckReport, FlowView, UnifyView};
    let steens_result =
        vsfs_andersen::analyze_unify_with(prog, vsfs_andersen::UnifyConfig::steensgaard(), None)
            .result;
    let unify_result = vsfs_andersen::analyze_unify(prog);
    let steensgaard = run_checkers(prog, svfg, &UnifyView(&steens_result));
    let unify = run_checkers(prog, svfg, &UnifyView(&unify_result));
    let andersen = run_checkers(prog, svfg, &AndersenView(aux));
    let flow = run_checkers(prog, svfg, &FlowView(result));
    let report = CheckReport::with_tiers(prog, steensgaard, unify, andersen, flow);
    for line in &report.flow_lines {
        println!("{line}");
    }
    for line in report.summary_lines() {
        println!("check-summary: {line}");
    }
    if let Some(path) = &opts.check_json {
        let json = report.to_json(&program_name(&opts.input));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return Err(ExitCode::from(1));
        }
    }
    Ok(report.flow_findings)
}

/// Dot annotations for a `--check --dot-svfg` run: under VSFS every
/// node's consumed/yielded object versions become extra label lines, and
/// the flow-sensitive findings' free sites (sources) and flagged
/// accesses (sinks) are highlighted. When a node is both — a loop
/// self-double-free — the sink colour wins.
fn check_annotations(
    opts: &Options,
    prog: &Program,
    mssa: &vsfs_mssa::MemorySsa,
    svfg: &vsfs_svfg::Svfg,
    findings: &[vsfs_checkers::Finding],
) -> vsfs_svfg::DotAnnotations {
    let mut ann = vsfs_svfg::DotAnnotations::default();
    if opts.analysis == Analysis::Flow(SolverKind::Vsfs) {
        let tables = vsfs_core::VersionTables::build(prog, mssa, svfg);
        for n in svfg.node_ids() {
            let fmt = |entries: &[(vsfs_ir::ObjId, u32)], verb: &str| {
                if entries.is_empty() {
                    return None;
                }
                let list: Vec<String> = entries
                    .iter()
                    .map(|&(o, v)| format!("{}@v{}", prog.objects[o].name, v))
                    .collect();
                Some(format!("{verb} {}", list.join(", ")))
            };
            let mut lines = Vec::new();
            lines.extend(fmt(tables.consume_entries(n), "consume"));
            lines.extend(fmt(tables.yield_entries(n), "yield"));
            if !lines.is_empty() {
                ann.extra_lines.insert(n, lines);
            }
        }
    }
    for f in findings {
        if let Some(src) = f.src {
            ann.roles.insert(svfg.inst_node(src), vsfs_svfg::DotRole::Source);
        }
    }
    for f in findings {
        ann.roles.insert(svfg.inst_node(f.inst), vsfs_svfg::DotRole::Sink);
    }
    ann
}

/// Builds the memory-SSA and SVFG stages when the solver (or an output
/// flag) needs them. For cold-only solvers the graphs carry no solver
/// state — they exist purely so the checkers can walk witness paths and
/// the dot export has a graph to draw, mirroring the server's on-demand
/// staging for `check` requests.
fn build_staged(
    opts: &Options,
    prog: &Program,
    aux: &vsfs_andersen::AndersenResult,
    kind: SolverKind,
) -> Option<(vsfs_mssa::MemorySsa, vsfs_svfg::Svfg)> {
    let needed = kind.is_staged() || opts.check || opts.dot_svfg.is_some();
    needed.then(|| {
        let mssa = vsfs_mssa::MemorySsa::build(prog, aux);
        let svfg = vsfs_svfg::Svfg::build(prog, aux, &mssa);
        (mssa, svfg)
    })
}

/// Rung 3 of the degradation ladder: the auxiliary (Andersen) stage
/// tripped its budget, so neither a flow-sensitive nor a sound Andersen
/// result exists. Re-solves with the ungoverned unification tier and
/// reports its (coarser, sound) answer with exit code 2. The checkers
/// and the dot export need an SVFG, which only a *complete* Andersen
/// result can build soundly, so those outputs are skipped with a
/// warning rather than computed from the partial auxiliary state.
fn run_unify_rung(opts: &Options, prog: &Program, reason: &DegradeReason) -> ExitCode {
    let unify = vsfs_andersen::analyze_unify(prog);
    if opts.print_pts {
        print_value_pts(prog, |v| obj_names(prog, unify.value_pts(v)));
    }
    if opts.print_callgraph {
        let mut edges: Vec<_> = unify.callgraph.edges().collect();
        edges.sort_unstable();
        print_callgraph_edges(prog, &edges);
    }
    if opts.check {
        eprintln!(
            "warning: --check skipped: the auxiliary stage degraded, so no sound SVFG exists"
        );
    }
    if opts.dot_svfg.is_some() {
        eprintln!(
            "warning: --dot-svfg skipped: the auxiliary stage degraded, so no sound SVFG exists"
        );
    }
    if opts.stats {
        println!("unify fallback:    {:.3}s, {} classes", unify.stats.seconds, unify.stats.classes);
    }
    println!(
        "{{\"completion\":\"degraded\",\"mode\":\"unification-fallback\",\"stage\":\"andersen\",\"reason\":\"{}\"}}",
        reason.code()
    );
    ExitCode::from(2)
}

/// Runs the analysis. Budgets, cooperative cancellation and fault
/// injection apply only when a budget or fault flag is set; such a
/// governed run also prints a one-line JSON completion record. The
/// outcome maps onto the exit-code protocol (0 complete / 2
/// degraded-with-fallback / 1 error).
fn run(opts: &Options, prog: &Program) -> ExitCode {
    let governed = opts.governed();
    let cancel = match opts.time_budget {
        Some(secs) => CancelToken::with_deadline(Instant::now() + Duration::from_secs_f64(secs)),
        None => CancelToken::new(),
    };
    let mem_bytes = opts.mem_budget_mib.map(|mib| mib << 20);

    // Auxiliary stage: only the deadline and the memory cap apply — step
    // budgets count flow-sensitive steps, and a partially solved Andersen
    // is an under-approximation (unsound) that cannot be served as-is.
    let aux_gov = governed.then(|| {
        let mut budget = Budget::unlimited();
        if let Some(bytes) = mem_bytes {
            budget = budget.with_mem_bytes(bytes);
        }
        Governor::with_cancel(budget, cancel.clone())
    });
    let t0 = Instant::now();
    let aux_out = vsfs_andersen::analyze_with(prog, aux_gov.as_ref());
    let aux_time = t0.elapsed();
    if let Completion::Degraded(reason) = &aux_out.completion {
        // Rung 3 of the soundness ladder. A partial Andersen fixpoint is
        // an under-approximation — unsound to report — but the
        // unification tier's least solution over-approximates every
        // finer tier, so the run degrades to it instead of erroring.
        // The fallback runs ungoverned: the budget already tripped, a
        // partial unification result would be just as unsound, and the
        // unification solve costs a small fraction of the Andersen stage
        // that exhausted it.
        return run_unify_rung(opts, prog, reason);
    }
    let aux = aux_out.result;

    if opts.analysis == Analysis::Andersen {
        if opts.print_pts {
            print_value_pts(prog, |v| obj_names(prog, aux.value_pts(v)));
        }
        if opts.print_callgraph {
            print_callgraph_edges(prog, &aux.callgraph.edges().collect::<Vec<_>>());
        }
        if opts.stats {
            println!("andersen: {:.3}s, {:?}", aux_time.as_secs_f64(), aux.stats);
            println!("peak heap: {:.2} MiB", vsfs_adt::mem::peak_bytes() as f64 / (1 << 20) as f64);
        }
        if governed {
            println!("{{\"completion\":\"complete\",\"mode\":\"flow-insensitive\"}}");
        }
        return ExitCode::SUCCESS;
    }

    let Analysis::Flow(kind) = opts.analysis else { unreachable!("handled above") };

    // The staged solvers need the memory-SSA/SVFG pipeline; the
    // cold-only ones (dense, cfgfree) build it on demand only when the
    // checkers or the dot export ask for the graph.
    let t1 = Instant::now();
    let staged = build_staged(opts, prog, &aux, kind);
    let build_time = t1.elapsed();

    // With --check the dot export waits for the solve so it can carry
    // version labels and finding highlights; without it, write it now so
    // the graph is available even if the solve is the slow part.
    if !opts.check {
        if let Some((_, svfg)) = &staged {
            if let Some(code) = write_dot(opts, prog, svfg, &vsfs_svfg::DotAnnotations::default()) {
                return code;
            }
        }
    }

    // Flow-sensitive stage: full budget plus any injected fault. If it
    // degrades, the Andersen result (a sound over-approximation of any
    // flow-sensitive result) is reported instead.
    let fs_gov = governed.then(|| {
        let mut budget = Budget::unlimited();
        if let Some(steps) = opts.step_budget {
            budget = budget.with_steps(steps);
        }
        if let Some(bytes) = mem_bytes {
            budget = budget.with_mem_bytes(bytes);
        }
        Governor::with_cancel(budget, cancel.clone())
            .with_fault(opts.inject_fault.as_ref().and_then(FaultPlan::spec))
    });
    let req =
        SolveRequest { jobs: opts.jobs, governor: fs_gov.as_ref(), ..SolveRequest::new(kind) };
    let ga = vsfs_core::solve(prog, &aux, staged.as_ref().map(|(m, s)| (m, s)), req);
    let result = &ga.result;

    report_result(opts, prog, &aux, result);
    if opts.check {
        let (mssa, svfg) = staged.as_ref().expect("--check builds the staged graphs");
        let findings = match run_check(opts, prog, &aux, svfg, result) {
            Ok(findings) => findings,
            Err(code) => return code,
        };
        let ann = check_annotations(opts, prog, mssa, svfg, &findings);
        if let Some(code) = write_dot(opts, prog, svfg, &ann) {
            return code;
        }
    }
    if opts.stats {
        let s = &result.stats;
        println!("solver:            {}", kind.name());
        println!("jobs:              {}", opts.jobs);
        println!("andersen:          {:.3}s", aux_time.as_secs_f64());
        if staged.is_some() {
            println!("mssa + svfg:       {:.3}s", build_time.as_secs_f64());
        }
        if kind == SolverKind::Vsfs {
            println!(
                "versioning:        {:.3}s ({} prelabels, {} versions, {} reliance edges)",
                s.versioning_seconds, s.prelabels, s.versions, s.reliance_edges
            );
        }
        println!("main phase:        {:.3}s", s.solve_seconds);
        println!("node pops:         {}", s.node_pops);
        if kind == SolverKind::Vsfs {
            println!("slot pops:         {}", s.slot_pops);
        }
        println!("pushes suppressed: {}", s.pushes_suppressed);
        println!("unions attempted:  {}", s.object_propagations);
        println!("unions avoided:    {}", s.unions_avoided);
        println!(
            "delta bytes:       {} shipped vs {} full ({:.1}% saved)",
            s.delta_bytes,
            s.full_bytes,
            if s.full_bytes > 0 {
                100.0 * (1.0 - s.delta_bytes as f64 / s.full_bytes as f64)
            } else {
                0.0
            }
        );
        println!("stored object sets:{}", s.stored_object_sets);
        let st = &s.store;
        println!(
            "pts store:         {} unique sets, {:.2} MiB ({:.2} MiB flat-equivalent)",
            st.unique_sets,
            st.unique_set_bytes as f64 / (1 << 20) as f64,
            st.flat_equiv_bytes as f64 / (1 << 20) as f64
        );
        println!(
            "chunk store:       {} unique chunks, {:.2} MiB, {} union hits, {} misses",
            st.unique_chunks,
            st.chunk_bytes as f64 / (1 << 20) as f64,
            st.chunk_union_hits,
            st.chunk_union_misses
        );
        println!(
            "union memo:        {} hits, {} misses, {} shortcuts ({:.1}% hit rate)",
            st.union_hits,
            st.union_misses,
            st.union_shortcuts,
            100.0 * st.union_hit_rate()
        );
        println!("insert memo:       {} hits, {} misses", st.insert_hits, st.insert_misses);
        println!("would-change:      {} fast, {} slow", st.would_change_fast, st.would_change_slow);
        println!("strong updates:    {}", s.strong_updates);
        println!("calls activated:   {}", s.calls_activated);
        if let Some((_, svfg)) = &staged {
            println!(
                "svfg: {} nodes, {} direct edges, {} indirect edges",
                svfg.node_count(),
                svfg.direct_edge_count(),
                svfg.indirect_edge_count()
            );
        }
        println!("peak heap: {:.2} MiB", vsfs_adt::mem::peak_bytes() as f64 / (1 << 20) as f64);
    }
    if !governed {
        return ExitCode::SUCCESS;
    }
    match &ga.completion {
        Completion::Complete => {
            println!("{{\"completion\":\"complete\",\"mode\":\"{}\"}}", ga.mode);
            ExitCode::SUCCESS
        }
        Completion::Degraded(reason) => {
            println!(
                "{{\"completion\":\"degraded\",\"mode\":\"{}\",\"stage\":\"{}\",\"reason\":\"{}\"}}",
                ga.mode,
                ga.degraded_stage.unwrap_or("unknown"),
                reason.code()
            );
            ExitCode::from(2)
        }
    }
}

fn write_dot(
    opts: &Options,
    prog: &Program,
    svfg: &vsfs_svfg::Svfg,
    ann: &vsfs_svfg::DotAnnotations,
) -> Option<ExitCode> {
    let path = opts.dot_svfg.as_ref()?;
    if let Err(e) = std::fs::write(path, svfg.to_dot_annotated(prog, ann)) {
        eprintln!("error: cannot write {path}: {e}");
        return Some(ExitCode::from(1));
    }
    eprintln!("wrote {path}");
    None
}

fn report_result(
    opts: &Options,
    prog: &Program,
    aux: &vsfs_andersen::AndersenResult,
    result: &FlowSensitiveResult,
) {
    if opts.print_pts {
        print_value_pts(prog, |v| obj_names(prog, result.value_pts(v)));
    }
    if opts.print_callgraph {
        print_callgraph_edges(prog, &result.callgraph_edges);
    }
    if opts.precision_report {
        let r = vsfs_core::compare_precision(prog, aux, result);
        println!("precision vs Andersen:");
        println!("  values considered:          {}", r.values);
        println!("  values refined:             {}", r.refined_values);
        println!("  avg points-to size:         {:.2} -> {:.2}", r.aux_avg(), r.fs_avg());
        println!("  call edges:                 {} -> {}", r.aux_call_edges, r.fs_call_edges);
        println!("  proven-uninitialised loads: {}", r.proven_uninitialised_loads);
    }
}

fn print_callgraph_edges(prog: &Program, edges: &[(vsfs_ir::InstId, vsfs_ir::FuncId)]) {
    for (call, callee) in edges {
        println!("{} -> @{}", prog.inst_location(*call), prog.functions[*callee].name);
    }
}
