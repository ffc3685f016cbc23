//! The incremental analysis server (`vsfs serve`, DESIGN.md §9, §12).
//!
//! A [`Server`] keeps any number of programs resident — each as a
//! [`vsfs_core::ProgramState`]: source, IR, auxiliary result, SVFG, the
//! solved flow-sensitive analysis, and the warm per-node state the next
//! edit seeds from — and answers line-delimited JSON requests over stdin/
//! stdout ([`Server::run_stdio`]) or a Unix socket ([`Server::run_unix`]).
//!
//! # Protocol
//!
//! One JSON object per line in, one per line out. Every request has an
//! `"op"`; program-addressed ops take `"id"`. Success responses carry
//! `"ok": true` plus op-specific fields and always a `"fingerprint"` —
//! the ID-independent result hash ([`vsfs_core::result_fingerprint`]),
//! equal across incremental, from-scratch, and snapshot-restored solves
//! of the same text. Failures are `{"ok": false, "error": {"code",
//! "message"}}`; a failed request never changes resident state.
//!
//! | op | fields | effect |
//! |----|--------|--------|
//! | `ping` | | liveness check |
//! | `load` | `id`, `source`, \[`solver`\] | parse + solve (VSFS unless `solver` says otherwise) or snapshot-restore, keep resident |
//! | `edit` | `id`, `delta`, \[`solver`\] | apply function deltas, re-solve incrementally (an edit that dirties more than half the graph is solved cold with the workspace's engine) |
//! | `pts` | `id`, `value`, \[`func`\] | points-to set of a value |
//! | `alias` | `id`, `p`, `q`, \[`func`\] | may-alias query |
//! | `check` | `id` | run the memory-safety checkers |
//! | `stats` | \[`id`\] | server or per-program statistics |
//! | `unload` | `id` | drop a resident program (and its snapshot) |
//! | `debug_panic` | `id` | fault drill: panic inside the handler |
//! | `shutdown` | | stop serving (drains in-flight requests) |
//!
//! `delta` is an array of `{"action": "replace"|"add"|"remove",
//! "name": fn, ["text": body]}` applied in order ([`source::SourceMap`]).
//!
//! `load` and `edit` accept an optional `"solver"` (`dense`, `sfs`,
//! `vsfs`, `cfgfree`, or `unify`; unknown names are `bad_request`)
//! selecting the resident engine for the workspace; a `load` that omits
//! it gets [`ServerConfig::opts`], VSFS by default (the CLI's default).
//! An `edit` that omits it keeps the workspace's resident solver; naming
//! a different one switches the workspace by an exact cold re-solve.
//! Staged solvers (`sfs`, `vsfs`) re-solve edits incrementally and
//! persist warm snapshots: a cold solve runs the named engine, a local
//! edit re-solves its dirty region with audited seeded SFS waves, and an
//! edit that dirties more than half the graph (or keeps growing past the
//! last audit) is solved cold with the workspace's engine. Cold-only
//! solvers (`dense`, `cfgfree`) build
//! no SVFG and serve every edit by an exact cold re-solve
//! (`"incremental": false`). `load` and `edit` responses name the
//! `"engine"` that ran: the solver's name for a cold solve, `"sfs-wave"`
//! for a seeded re-solve (an edit wave or a snapshot restore), or the
//! fallback's mode when the solve degraded. Per-program `stats` report
//! the workspace's `solver`, the `engine` of its last solve and whether
//! warm state is resident; the SVFG counters are `null` for cold-only
//! solvers.
//!
//! `load` and `edit` accept optional budgets (`time_budget` seconds,
//! `step_budget`, `mem_budget_mib`) mirroring the CLI's governed mode:
//! a flow-sensitive trip delivers the sound Andersen fallback, reported
//! via `"degraded": true` and `"fallback"`, and drops the warm state so
//! nothing degraded is ever treated as a completed fixpoint. An
//! auxiliary-stage trip takes the next rung of the soundness ladder: on
//! a *load* the workspace degrades to the ungoverned unification tier
//! (`"fallback": "unification-fallback"`; `check` is refused on such a
//! state because no sound SVFG exists); on an *edit* the previous
//! resident state beats any fallback, so the request is rejected
//! (`aux_budget`, resident state untouched).
//! [`ServerConfig::default_time_budget`] gives every request that sets
//! no budget of its own a server-wide deadline.
//!
//! # Robustness (DESIGN.md §12)
//!
//! Every error the server can emit carries a code from [`ERROR_CODES`];
//! the taxonomy is closed so clients (and the fuzz harness) can match on
//! it exhaustively.
//!
//! * **Panic quarantine** — each request is dispatched under
//!   `catch_unwind`. A panicking request returns `internal_fault` and
//!   quarantines only the workspace it addressed: the (possibly
//!   inconsistent) state is discarded, later requests on that id get
//!   `workspace_quarantined`, and a successful `load` re-admits it. The
//!   process never dies; other programs stay servable.
//! * **Warm-state snapshots** — with [`ServerConfig::snapshot_dir`] set,
//!   every completed solve is exported ([`vsfs_core::export_warm`]) and
//!   written atomically to a checksummed file ([`snapshot`]). On startup
//!   ([`Server::restore_snapshots`]) and on `load` of identical text the
//!   solve is skipped entirely ([`vsfs_core::restore_program`]),
//!   validated by fingerprint; corrupt, stale, or version-mismatched
//!   snapshots are logged cold-solves, never crashes.
//! * **Admission control** — [`Server::run_unix`] accepts concurrently:
//!   a bounded queue feeds [`ServerConfig::workers`] scoped worker
//!   threads; requests execute serially against the engine (responses
//!   are bit-identical to sequential serving), and when the queue is
//!   full new connections are shed with `overloaded` plus a
//!   `retry_after_ms` hint. `shutdown` stops admission, answers queued
//!   connections with `shutting_down`, and drains in-flight work.
//! * **Bounded reads** — request lines longer than
//!   [`ServerConfig::max_request_bytes`] are discarded incrementally
//!   ([`lineio`]) and answered with `request_too_large`.
//! * **Socket hygiene** — binding probes an existing socket file and
//!   refuses to displace a live server (`AddrInUse`); stale files are
//!   reclaimed, and the file is removed on every exit path, panics
//!   included.

pub mod json;
pub mod lineio;
pub mod snapshot;
pub mod source;

use json::{n, obj, s, Json};
use lineio::{LineEvent, LineReader};
use snapshot::Snapshot;
use source::{SourceError, SourceMap};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TrySendError};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vsfs_adt::govern::{panic_message, Budget, CancelToken, Governor};
use vsfs_checkers::{render_finding, run_checkers, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::{
    export_warm, resolve_edit, restore_program, solve_program, IncrementalOptions, ProgramState,
    SolveError, SolveReport, SolverKind,
};
use vsfs_ir::ValueId;

/// Every `error.code` the server can emit. The taxonomy is closed: the
/// fuzz harness asserts responses never step outside it.
pub const ERROR_CODES: &[&str] = &[
    "bad_json",
    "bad_request",
    "unknown_op",
    "unknown_program",
    "unknown_function",
    "unknown_value",
    "parse_error",
    "verify_error",
    "aux_budget",
    "request_too_large",
    "internal_fault",
    "workspace_quarantined",
    "overloaded",
    "shutting_down",
];

/// Server-wide configuration (transport and engine).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Default solve options for requests that don't override them:
    /// `SolverKind::default()` (VSFS), as on the CLI.
    pub opts: IncrementalOptions,
    /// Directory for warm-state snapshots; `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Per-line request cap; longer lines get `request_too_large`.
    pub max_request_bytes: usize,
    /// Deadline (seconds) applied to `load`/`edit` requests that set no
    /// `time_budget` of their own; `None` leaves them ungoverned.
    pub default_time_budget: Option<f64>,
    /// Worker threads serving socket connections.
    pub workers: usize,
    /// Bounded admission queue depth; a full queue sheds connections.
    pub queue_depth: usize,
    /// The retry hint carried by `overloaded` responses.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            opts: IncrementalOptions { solver: SolverKind::default() },
            snapshot_dir: None,
            max_request_bytes: 16 << 20,
            default_time_budget: None,
            workers: 4,
            queue_depth: 64,
            retry_after_ms: 200,
        }
    }
}

/// One resident program: its editable source plus the solved state.
struct Workspace {
    sources: SourceMap,
    state: ProgramState,
}

/// The analysis server. See the module docs for the protocol.
pub struct Server {
    programs: BTreeMap<String, Workspace>,
    /// Workspaces discarded after a panicking request, keyed by id with
    /// the rendered panic message. Cleared by a successful `load`.
    quarantined: BTreeMap<String, String>,
    config: ServerConfig,
}

impl Default for Server {
    fn default() -> Self {
        Server::new()
    }
}

/// A request-scoped budget triple, mirroring the CLI's governed mode.
struct Budgets {
    time: Option<f64>,
    steps: Option<u64>,
    mem_mib: Option<u64>,
}

impl Budgets {
    /// `default_time` is the server-wide deadline applied when the
    /// request carries no `time_budget` of its own.
    fn from_request(req: &Json, default_time: Option<f64>) -> Budgets {
        Budgets {
            time: req.get("time_budget").and_then(Json::as_f64).or(default_time),
            steps: req.get("step_budget").and_then(Json::as_u64),
            mem_mib: req.get("mem_budget_mib").and_then(Json::as_u64),
        }
    }

    /// Builds the (auxiliary, flow-sensitive) governors, or `None` when
    /// the request set no budget (ungoverned mode). Step budgets apply
    /// only to the flow-sensitive stage.
    fn governors(&self) -> Option<(Governor, Governor)> {
        if self.time.is_none() && self.steps.is_none() && self.mem_mib.is_none() {
            return None;
        }
        let cancel = match self.time {
            Some(secs) => {
                CancelToken::with_deadline(Instant::now() + Duration::from_secs_f64(secs))
            }
            None => CancelToken::new(),
        };
        let mem_bytes = self.mem_mib.map(|mib| (mib as usize) << 20);
        let mut aux = Budget::unlimited();
        let mut fs = Budget::unlimited();
        if let Some(bytes) = mem_bytes {
            aux = aux.with_mem_bytes(bytes);
            fs = fs.with_mem_bytes(bytes);
        }
        if let Some(steps) = self.steps {
            fs = fs.with_steps(steps);
        }
        Some((Governor::with_cancel(aux, cancel.clone()), Governor::with_cancel(fs, cancel)))
    }
}

fn err(code: &str, message: impl Into<String>) -> Json {
    err_with(code, message, Vec::new())
}

/// A structured error with extra top-level fields (e.g. the
/// `retry_after_ms` hint on `overloaded`).
fn err_with(code: &str, message: impl Into<String>, extra: Vec<(&'static str, Json)>) -> Json {
    debug_assert!(ERROR_CODES.contains(&code), "error code '{code}' not in taxonomy");
    let mut pairs = vec![
        ("ok", Json::Bool(false)),
        ("error", obj(vec![("code", s(code)), ("message", s(message.into()))])),
    ];
    pairs.extend(extra);
    obj(pairs)
}

fn solve_error(e: &SolveError) -> Json {
    match e {
        SolveError::Parse(errs) => {
            let mut pairs = vec![
                ("code", s("parse_error")),
                ("message", s(format!("{} parse error(s)", errs.len()))),
                ("diagnostics", Json::Arr(errs.iter().map(|m| s(m.clone())).collect())),
            ];
            pairs.truncate(3);
            obj(vec![("ok", Json::Bool(false)), ("error", obj(pairs))])
        }
        SolveError::Verify(m) => err("verify_error", m.clone()),
        SolveError::AuxBudget(r) => err(
            "aux_budget",
            format!(
                "auxiliary stage degraded ({r:?}); previous resident state beats any \
                 fallback, edit rejected"
            ),
        ),
    }
}

fn hex(fp: u64) -> Json {
    s(format!("{fp:016x}"))
}

/// The common tail of `load`/`edit` responses.
fn solve_fields(state: &ProgramState, report: &SolveReport) -> Vec<(&'static str, Json)> {
    let degraded = !state.analysis.is_complete();
    vec![
        ("fingerprint", hex(report.fingerprint)),
        ("engine", s(state.engine)),
        ("mode", s(state.analysis.mode)),
        ("degraded", Json::Bool(degraded)),
        ("fallback", if degraded { s(state.analysis.mode) } else { Json::Null }),
        ("incremental", Json::Bool(report.incremental)),
        ("restored", Json::Bool(report.restored)),
        ("total_nodes", n(report.total_nodes as f64)),
        ("dirty_nodes", n(report.dirty_nodes as f64)),
        ("carried_sets", n(report.carried_sets as f64)),
        ("solve_seconds", n(report.solve_seconds)),
        ("store_epoch", n(state.analysis.result.store_epoch() as f64)),
    ]
}

impl Server {
    /// A server with default configuration (no snapshots).
    pub fn new() -> Server {
        Server::with_config(ServerConfig::default())
    }

    /// A server with explicit default solve options.
    pub fn with_options(opts: IncrementalOptions) -> Server {
        Server::with_config(ServerConfig { opts, ..ServerConfig::default() })
    }

    /// A server with explicit configuration.
    pub fn with_config(config: ServerConfig) -> Server {
        Server { programs: BTreeMap::new(), quarantined: BTreeMap::new(), config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Loads `source` as resident program `id` (programmatic equivalent
    /// of the `load` request, used by the CLI's `--corpus` preload).
    /// Snapshot-restores instead of cold-solving when a matching
    /// snapshot exists.
    pub fn load_source(&mut self, id: &str, source: &str) -> Result<SolveReport, SolveError> {
        let (state, report) = self.solve_or_restore(id, source, self.config.opts, None, None)?;
        self.persist(id, &state);
        self.quarantined.remove(id);
        self.programs
            .insert(id.to_string(), Workspace { sources: SourceMap::parse(source), state });
        Ok(report)
    }

    /// The ids of the resident programs.
    pub fn program_ids(&self) -> Vec<&str> {
        self.programs.keys().map(String::as_str).collect()
    }

    /// Restores every readable snapshot in `snapshot_dir` into resident
    /// programs. Returns one human-readable log line per file —
    /// restored, cold-solved (stale), or skipped (corrupt) — for the
    /// CLI to print; nothing in the directory can make this fail.
    pub fn restore_snapshots(&mut self) -> Vec<String> {
        let Some(dir) = self.config.snapshot_dir.clone() else {
            return Vec::new();
        };
        let mut log = Vec::new();
        for (path, loaded) in snapshot::scan(&dir) {
            match loaded {
                Ok(snap) => {
                    match restore_program(&snap.source, &snap.export, self.config.opts, None, None)
                    {
                        Ok((state, report)) => {
                            log.push(format!(
                                "{}: {} in {:.3}s (fingerprint {:016x})",
                                snap.id,
                                if report.restored { "restored" } else { "cold-solved (stale)" },
                                report.solve_seconds,
                                report.fingerprint,
                            ));
                            self.programs.insert(
                                snap.id,
                                Workspace { sources: SourceMap::parse(&snap.source), state },
                            );
                        }
                        Err(e) => log.push(format!("{}: unusable ({e}); skipped", snap.id)),
                    }
                }
                Err(e) => log.push(format!("{}: {e}; skipped", path.display())),
            }
        }
        log
    }

    /// Cold solve, or restore from this id's snapshot when it holds the
    /// identical source text.
    fn solve_or_restore(
        &self,
        id: &str,
        source: &str,
        opts: IncrementalOptions,
        aux_gov: Option<&Governor>,
        fs_gov: Option<&Governor>,
    ) -> Result<(ProgramState, SolveReport), SolveError> {
        if let Some(dir) = &self.config.snapshot_dir {
            if let Ok(snap) = snapshot::load(&snapshot::path_for(dir, id)) {
                if snap.id == id && snap.source == source {
                    return restore_program(source, &snap.export, opts, aux_gov, fs_gov);
                }
            }
        }
        solve_program(source, opts, aux_gov, fs_gov)
    }

    /// Writes (or clears) `id`'s snapshot after a solve. Persistence is
    /// best-effort: an unwritable snapshot dir degrades durability, not
    /// the request.
    fn persist(&self, id: &str, state: &ProgramState) {
        let Some(dir) = &self.config.snapshot_dir else { return };
        match export_warm(state) {
            Some(export) => {
                let snap = Snapshot { id: id.to_string(), source: state.source.clone(), export };
                if let Err(e) = snapshot::save(dir, &snap) {
                    eprintln!("vsfs serve: snapshot save failed for '{id}': {e}");
                }
            }
            // Degraded solves export nothing; drop any snapshot of the
            // pre-edit text so a restart cannot resurrect stale results.
            None => {
                let _ = snapshot::remove(dir, id);
            }
        }
    }

    /// Handles one request line; returns the response line and whether
    /// the server should stop.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        let max = self.config.max_request_bytes;
        if line.len() > max {
            // Transports cap lines before they get here; this guards
            // direct callers.
            return (too_large_response(max).to_line(), false);
        }
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(m) => return (err("bad_json", m).to_line(), false),
        };
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return (err("bad_request", "missing string field 'op'").to_line(), false);
        };
        let op = op.to_string();
        match op.as_str() {
            "ping" => {
                return (obj(vec![("ok", Json::Bool(true)), ("op", s("ping"))]).to_line(), false)
            }
            "shutdown" => {
                return (obj(vec![("ok", Json::Bool(true)), ("op", s("shutdown"))]).to_line(), true)
            }
            _ => {}
        }

        let id = req.get("id").and_then(Json::as_str).map(String::from);
        // `load` re-admits a quarantined workspace, `unload` discards
        // it, `stats` reports on it; everything else is refused until
        // one of those happens.
        if !matches!(op.as_str(), "load" | "unload" | "stats") {
            if let Some(msg) = id.as_deref().and_then(|i| self.quarantined.get(i)) {
                let id = id.unwrap();
                return (
                    err_with(
                        "workspace_quarantined",
                        format!(
                            "'{id}' is quarantined after an internal fault ({msg}); \
                             'load' it again to recover"
                        ),
                        vec![("id", s(id))],
                    )
                    .to_line(),
                    false,
                );
            }
        }

        // AssertUnwindSafe: on panic the addressed workspace — the only
        // state the handler mutates — is discarded wholesale below, so
        // no broken invariant survives.
        let resp = match catch_unwind(AssertUnwindSafe(|| self.dispatch(&op, &req))) {
            Ok(resp) => resp,
            Err(payload) => {
                let msg = panic_message(&*payload);
                match id {
                    Some(id) => {
                        self.programs.remove(&id);
                        self.quarantined.insert(id.clone(), msg.clone());
                        err_with(
                            "internal_fault",
                            format!("request panicked: {msg}; workspace '{id}' quarantined"),
                            vec![("id", s(id)), ("quarantined", Json::Bool(true))],
                        )
                    }
                    None => err_with(
                        "internal_fault",
                        format!("request panicked: {msg}"),
                        vec![("quarantined", Json::Bool(false))],
                    ),
                }
            }
        };
        (resp.to_line(), false)
    }

    fn dispatch(&mut self, op: &str, req: &Json) -> Json {
        match op {
            "load" => self.op_load(req),
            "edit" => self.op_edit(req),
            "pts" => self.op_pts(req),
            "alias" => self.op_alias(req),
            "check" => self.op_check(req),
            "stats" => self.op_stats(req),
            "unload" => self.op_unload(req),
            "debug_panic" => self.op_debug_panic(req),
            other => err("unknown_op", format!("unknown op '{other}'")),
        }
    }

    fn request_opts(&self, req: &Json) -> Result<IncrementalOptions, Json> {
        let mut opts = self.config.opts;
        if let Some(name) = req.get("solver").and_then(Json::as_str) {
            opts.solver = match SolverKind::parse(name) {
                Some(kind) => kind,
                None => {
                    return Err(err(
                        "bad_request",
                        format!(
                            "unknown solver '{name}' (expected dense, sfs, vsfs, cfgfree, or unify)"
                        ),
                    ))
                }
            };
        }
        Ok(opts)
    }

    fn require_id<'a>(&self, req: &'a Json) -> Result<&'a str, Json> {
        req.get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| err("bad_request", "missing string field 'id'"))
    }

    fn workspace(&self, id: &str) -> Result<&Workspace, Json> {
        self.programs
            .get(id)
            .ok_or_else(|| err("unknown_program", format!("no program loaded as '{id}'")))
    }

    fn op_load(&mut self, req: &Json) -> Json {
        let id = match self.require_id(req) {
            Ok(id) => id.to_string(),
            Err(e) => return e,
        };
        let Some(source) = req.get("source").and_then(Json::as_str) else {
            return err("bad_request", "missing string field 'source'");
        };
        let opts = match self.request_opts(req) {
            Ok(o) => o,
            Err(e) => return e,
        };
        let govs = Budgets::from_request(req, self.config.default_time_budget).governors();
        let (aux_gov, fs_gov) = match &govs {
            Some((a, f)) => (Some(a), Some(f)),
            None => (None, None),
        };
        match self.solve_or_restore(&id, source, opts, aux_gov, fs_gov) {
            Ok((state, report)) => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("op", s("load")),
                    ("id", s(id.clone())),
                    ("functions", n(state.prog.functions.len() as f64)),
                    ("values", n(state.prog.values.len() as f64)),
                ];
                pairs.extend(solve_fields(&state, &report));
                self.persist(&id, &state);
                self.quarantined.remove(&id);
                self.programs.insert(id, Workspace { sources: SourceMap::parse(source), state });
                obj(pairs)
            }
            Err(e) => solve_error(&e),
        }
    }

    fn op_edit(&mut self, req: &Json) -> Json {
        let id = match self.require_id(req) {
            Ok(id) => id.to_string(),
            Err(e) => return e,
        };
        if !self.programs.contains_key(&id) {
            return err("unknown_program", format!("no program loaded as '{id}'"));
        }
        let Some(delta) = req.get("delta").and_then(Json::as_arr) else {
            return err("bad_request", "missing array field 'delta'");
        };
        let mut opts = match self.request_opts(req) {
            Ok(o) => o,
            Err(e) => return e,
        };
        // An edit that names no solver keeps the workspace's resident
        // one (naming a different solver switches it, by a cold
        // re-solve); only `load` falls back to the server default.
        if req.get("solver").and_then(Json::as_str).is_none() {
            opts.solver = self.programs[&id].state.solver;
        }

        // Apply the deltas to a copy of the source map: a rejected edit
        // must leave the resident program untouched.
        let mut sources = self.programs[&id].sources.clone();
        for (i, item) in delta.iter().enumerate() {
            let action = item.get("action").and_then(Json::as_str).unwrap_or("");
            let Some(name) = item.get("name").and_then(Json::as_str) else {
                return err("bad_request", format!("delta[{i}] missing 'name'"));
            };
            let text = item.get("text").and_then(Json::as_str);
            let applied = match (action, text) {
                ("replace", Some(t)) => sources.replace(name, t),
                ("add", Some(t)) => sources.add(name, t),
                ("remove", _) => sources.remove(name),
                ("replace" | "add", None) => {
                    return err("bad_request", format!("delta[{i}] missing 'text'"))
                }
                (other, _) => {
                    return err("bad_request", format!("delta[{i}] has unknown action '{other}'"))
                }
            };
            match applied {
                Ok(()) => {}
                Err(SourceError::UnknownFunction(f)) => {
                    return err("unknown_function", format!("delta[{i}]: no function '{f}'"))
                }
                Err(e) => return err("bad_request", format!("delta[{i}]: {e}")),
            }
        }
        let source = sources.compose();

        let govs = Budgets::from_request(req, self.config.default_time_budget).governors();
        let (aux_gov, fs_gov) = match &govs {
            Some((a, f)) => (Some(a), Some(f)),
            None => (None, None),
        };
        let prev = &self.programs[&id].state;
        match resolve_edit(prev, &source, opts, aux_gov, fs_gov) {
            Ok((state, report)) => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("op", s("edit")),
                    ("id", s(id.clone())),
                    ("functions", n(state.prog.functions.len() as f64)),
                ];
                pairs.extend(solve_fields(&state, &report));
                self.persist(&id, &state);
                self.programs.insert(id, Workspace { sources, state });
                obj(pairs)
            }
            // Parse/verify/aux failures reject the edit: the previous
            // state (and its warm tables) stay authoritative.
            Err(e) => solve_error(&e),
        }
    }

    fn find_value(&self, ws: &Workspace, req: &Json, field: &str) -> Result<ValueId, Json> {
        let Some(raw) = req.get(field).and_then(Json::as_str) else {
            return Err(err("bad_request", format!("missing string field '{field}'")));
        };
        let name = raw.trim_start_matches(['%', '@']);
        let prog = &ws.state.prog;
        let func = match req.get("func").and_then(Json::as_str) {
            Some(fname) => match prog.function_by_name(fname) {
                Some(f) => Some(f),
                None => {
                    return Err(err("unknown_function", format!("no function named '{fname}'")))
                }
            },
            None => None,
        };
        // The function test goes first: it reads the value record the
        // scan already has in hand, while each name comparison may chase
        // a pointer to a separate heap string.
        for (v, val) in prog.values.iter_enumerated() {
            if (func.is_none() || val.func == func) && val.name == name {
                return Ok(v);
            }
        }
        Err(err(
            "unknown_value",
            match req.get("func").and_then(Json::as_str) {
                Some(f) => format!("no value '%{name}' in function '{f}'"),
                None => format!("no value named '%{name}'"),
            },
        ))
    }

    fn op_pts(&self, req: &Json) -> Json {
        let ws = match self.require_id(req).and_then(|id| self.workspace(id)) {
            Ok(ws) => ws,
            Err(e) => return e,
        };
        let v = match self.find_value(ws, req, "value") {
            Ok(v) => v,
            Err(e) => return e,
        };
        let prog = &ws.state.prog;
        let mut names: Vec<&str> = ws
            .state
            .analysis
            .result
            .value_pts(v)
            .iter()
            .map(|o| prog.objects[o].name.as_str())
            .collect();
        names.sort_unstable();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("op", s("pts")),
            ("value", s(format!("%{}", prog.values[v].name))),
            ("objects", Json::Arr(names.into_iter().map(s).collect())),
            ("degraded", Json::Bool(!ws.state.analysis.is_complete())),
            ("fingerprint", hex(ws.state.fingerprint)),
        ])
    }

    fn op_alias(&self, req: &Json) -> Json {
        let ws = match self.require_id(req).and_then(|id| self.workspace(id)) {
            Ok(ws) => ws,
            Err(e) => return e,
        };
        let p = match self.find_value(ws, req, "p") {
            Ok(v) => v,
            Err(e) => return e,
        };
        let q = match self.find_value(ws, req, "q") {
            Ok(v) => v,
            Err(e) => return e,
        };
        let queries = AliasQueries::new(&ws.state.prog, &ws.state.analysis.result);
        obj(vec![
            ("ok", Json::Bool(true)),
            ("op", s("alias")),
            ("may_alias", Json::Bool(queries.may_alias(p, q))),
            ("degraded", Json::Bool(!ws.state.analysis.is_complete())),
            ("fingerprint", hex(ws.state.fingerprint)),
        ])
    }

    fn op_check(&self, req: &Json) -> Json {
        let ws = match self.require_id(req).and_then(|id| self.workspace(id)) {
            Ok(ws) => ws,
            Err(e) => return e,
        };
        let state = &ws.state;
        // A unification-fallback state holds only the *partial* Andersen
        // result its load budget cut short; an SVFG staged from it could
        // miss value-flow edges and silently drop findings. Refuse
        // rather than under-report.
        if state.analysis.mode == "unification-fallback" {
            return err(
                "aux_budget",
                "cannot stage checkers: the auxiliary stage degraded to the \
                 unification tier; reload within budget first",
            );
        }
        // Checkers walk the SVFG for witness paths. Cold-only solvers
        // never build one, so stage it on demand — the points-to view
        // under scrutiny is still the resident solver's result.
        let findings = match state.svfg() {
            Some(svfg) => run_checkers(&state.prog, svfg, &FlowView(&state.analysis.result)),
            None => {
                let mssa = vsfs_mssa::MemorySsa::build(&state.prog, &state.aux);
                let svfg = vsfs_svfg::Svfg::build(&state.prog, &state.aux, &mssa);
                run_checkers(&state.prog, &svfg, &FlowView(&state.analysis.result))
            }
        };
        let rendered: Vec<Json> = findings
            .iter()
            .map(|f| {
                obj(vec![
                    ("checker", s(f.checker.name())),
                    ("message", s(render_finding(&state.prog, f))),
                ])
            })
            .collect();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("op", s("check")),
            ("count", n(rendered.len() as f64)),
            ("findings", Json::Arr(rendered)),
            ("degraded", Json::Bool(!state.analysis.is_complete())),
            ("fingerprint", hex(state.fingerprint)),
        ])
    }

    fn op_stats(&self, req: &Json) -> Json {
        match req.get("id").and_then(Json::as_str) {
            None => obj(vec![
                ("ok", Json::Bool(true)),
                ("op", s("stats")),
                ("programs", n(self.programs.len() as f64)),
                ("ids", Json::Arr(self.programs.keys().map(|k| s(k.clone())).collect())),
                ("quarantined", Json::Arr(self.quarantined.keys().map(|k| s(k.clone())).collect())),
            ]),
            Some(id) => {
                if let Some(msg) = self.quarantined.get(id) {
                    return obj(vec![
                        ("ok", Json::Bool(true)),
                        ("op", s("stats")),
                        ("id", s(id)),
                        ("quarantined", Json::Bool(true)),
                        ("fault", s(msg.clone())),
                    ]);
                }
                let ws = match self.workspace(id) {
                    Ok(ws) => ws,
                    Err(e) => return e,
                };
                let state = &ws.state;
                obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", s("stats")),
                    ("id", s(id)),
                    ("quarantined", Json::Bool(false)),
                    ("functions", n(state.prog.functions.len() as f64)),
                    ("values", n(state.prog.values.len() as f64)),
                    ("objects", n(state.prog.objects.len() as f64)),
                    ("solver", s(state.solver.name())),
                    ("engine", s(state.engine)),
                    ("nodes", state.svfg().map_or(Json::Null, |g| n(g.node_count() as f64))),
                    (
                        "direct_edges",
                        state.svfg().map_or(Json::Null, |g| n(g.direct_edge_count() as f64)),
                    ),
                    (
                        "indirect_edges",
                        state.svfg().map_or(Json::Null, |g| n(g.indirect_edge_count() as f64)),
                    ),
                    ("mode", s(state.analysis.mode)),
                    ("degraded", Json::Bool(!state.analysis.is_complete())),
                    ("warm", Json::Bool(state.has_warm_state())),
                    ("store_epoch", n(state.analysis.result.store_epoch() as f64)),
                    ("fingerprint", hex(state.fingerprint)),
                ])
            }
        }
    }

    fn op_unload(&mut self, req: &Json) -> Json {
        let id = match self.require_id(req) {
            Ok(id) => id.to_string(),
            Err(e) => return e,
        };
        let was_resident = self.programs.remove(&id).is_some();
        let was_quarantined = self.quarantined.remove(&id).is_some();
        if !was_resident && !was_quarantined {
            return err("unknown_program", format!("no program loaded as '{id}'"));
        }
        if let Some(dir) = &self.config.snapshot_dir {
            let _ = snapshot::remove(dir, &id);
        }
        obj(vec![("ok", Json::Bool(true)), ("op", s("unload")), ("id", s(id))])
    }

    /// Fault drill: panics inside the dispatch path so operators (and
    /// the e2e suite) can exercise the quarantine machinery on demand.
    /// The addressed workspace must exist; it is quarantined by the
    /// unwind.
    fn op_debug_panic(&self, req: &Json) -> Json {
        let id = match self.require_id(req) {
            Ok(id) => id,
            Err(e) => return e,
        };
        if let Err(e) = self.workspace(id) {
            return e;
        }
        panic!("debug_panic requested for workspace '{id}'");
    }

    /// Serves requests from `reader`, writing one response line per
    /// request to `writer`. Returns `true` if a `shutdown` was handled.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<bool> {
        let max = self.config.max_request_bytes;
        let mut lines = LineReader::new(reader);
        loop {
            match lines.next_line(max) {
                LineEvent::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let (resp, shutdown) = self.handle_line(&line);
                    write_line(&mut writer, &resp)?;
                    if shutdown {
                        return Ok(true);
                    }
                }
                LineEvent::TooLarge => write_line(&mut writer, &too_large_response(max).to_line())?,
                LineEvent::Timeout => continue,
                LineEvent::Eof => return Ok(false),
                LineEvent::Err(e) => return Err(e),
            }
        }
    }

    /// Serves on stdin/stdout until EOF or `shutdown`.
    pub fn run_stdio(&mut self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.serve(stdin.lock(), stdout.lock())?;
        Ok(())
    }

    /// Serves on a Unix socket until a connection issues `shutdown`.
    ///
    /// Connections are accepted into a bounded queue
    /// ([`ServerConfig::queue_depth`]) served by
    /// [`ServerConfig::workers`] scoped threads; requests themselves
    /// execute serially against the engine, so responses are
    /// bit-identical however connections interleave. A full queue sheds
    /// the connection with `overloaded` + `retry_after_ms`. Binding
    /// refuses to displace a live server; the socket file is removed on
    /// every exit path, panics included.
    pub fn run_unix(&mut self, path: &Path) -> std::io::Result<()> {
        let listener = bind_guarded(path)?;
        listener.set_nonblocking(true)?;
        let _guard = SocketGuard(path.to_path_buf());
        let max = self.config.max_request_bytes;
        let workers = self.config.workers.max(1);
        let queue_depth = self.config.queue_depth.max(1);
        let retry_after_ms = self.config.retry_after_ms;
        let shutdown = AtomicBool::new(false);
        let engine: Mutex<&mut Server> = Mutex::new(self);
        let (tx, rx) = mpsc::sync_channel::<UnixStream>(queue_depth);
        let rx = Mutex::new(rx);

        std::thread::scope(|scope| -> std::io::Result<()> {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&engine, &rx, &shutdown, max));
            }
            loop {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            refuse(
                                stream,
                                err_with(
                                    "overloaded",
                                    "admission queue full; retry later",
                                    vec![("retry_after_ms", n(retry_after_ms as f64))],
                                ),
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    },
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        shutdown.store(true, Ordering::SeqCst);
                        drop(tx);
                        return Err(e);
                    }
                }
            }
            // Stop admitting; workers drain the queue (answering
            // `shutting_down`), finish in-flight connections, and exit
            // when the channel disconnects. The scope joins them.
            drop(tx);
            Ok(())
        })
        // `_guard` drops here — socket file removed even if a worker
        // panicked and the scope is propagating the unwind.
    }
}

/// The response for an over-limit request line.
fn too_large_response(max: usize) -> Json {
    err_with(
        "request_too_large",
        format!("request line exceeds {max} bytes"),
        vec![("limit_bytes", n(max as f64))],
    )
}

fn write_line<W: Write>(writer: &mut W, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Locks ignoring poisoning: `handle_line` contains every panic, so a
/// poisoned engine mutex can only mean a panic *outside* the dispatch
/// path; the quarantine discipline still applies, so keep serving
/// (matching the no-poisoned-mutex posture of `vsfs_adt::par`).
fn lock_engine<'a, 'b>(engine: &'a Mutex<&'b mut Server>) -> MutexGuard<'a, &'b mut Server> {
    match engine.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn worker_loop(
    engine: &Mutex<&mut Server>,
    rx: &Mutex<mpsc::Receiver<UnixStream>>,
    shutdown: &AtomicBool,
    max: usize,
) {
    loop {
        let next = {
            let rx = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            rx.recv_timeout(Duration::from_millis(50))
        };
        match next {
            Ok(stream) => {
                if shutdown.load(Ordering::SeqCst) {
                    // Admitted before shutdown, never started: typed
                    // refusal instead of a silent hangup.
                    refuse(stream, err("shutting_down", "server is shutting down"));
                    continue;
                }
                let _ = serve_connection(engine, stream, shutdown, max);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Serves one socket connection. Short read timeouts let the loop poll
/// the shutdown flag between requests (partial lines survive, see
/// [`lineio`]); once shutdown is set the connection is told and closed.
fn serve_connection(
    engine: &Mutex<&mut Server>,
    stream: UnixStream,
    shutdown: &AtomicBool,
    max: usize,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let mut lines = LineReader::new(BufReader::new(stream));
    loop {
        if shutdown.load(Ordering::SeqCst) {
            let _ =
                write_line(&mut writer, &err("shutting_down", "server is shutting down").to_line());
            return Ok(());
        }
        match lines.next_line(max) {
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                // Lock only for the dispatch; responses are written
                // outside the critical section.
                let (resp, stop) = lock_engine(engine).handle_line(&line);
                write_line(&mut writer, &resp)?;
                if stop {
                    shutdown.store(true, Ordering::SeqCst);
                    return Ok(());
                }
            }
            LineEvent::TooLarge => write_line(&mut writer, &too_large_response(max).to_line())?,
            LineEvent::Timeout => continue,
            LineEvent::Eof => return Ok(()),
            LineEvent::Err(e) => return Err(e),
        }
    }
}

/// Writes one refusal line to a connection we will not serve (shed or
/// shutting down) and drops it. Best-effort: a peer that already hung
/// up is fine.
fn refuse(stream: UnixStream, resp: Json) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut w = &stream;
    let _ = write_line(&mut w, &resp.to_line());
}

/// Binds `path`, refusing to displace a live server: an existing socket
/// file is connect-probed first — reachable means `AddrInUse`, refused
/// means a stale file from a dead process and is reclaimed. A non-socket
/// file at the path is never deleted.
fn bind_guarded(path: &Path) -> std::io::Result<UnixListener> {
    match std::fs::symlink_metadata(path) {
        Ok(meta) => {
            use std::os::unix::fs::FileTypeExt;
            if !meta.file_type().is_socket() {
                return Err(std::io::Error::new(
                    ErrorKind::AlreadyExists,
                    format!(
                        "{} exists and is not a socket; refusing to replace it",
                        path.display()
                    ),
                ));
            }
            match UnixStream::connect(path) {
                Ok(_) => Err(std::io::Error::new(
                    ErrorKind::AddrInUse,
                    format!("a live server is already listening on {}", path.display()),
                )),
                Err(_) => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)
                }
            }
        }
        Err(e) if e.kind() == ErrorKind::NotFound => UnixListener::bind(path),
        Err(e) => Err(e),
    }
}

/// Removes the socket file when serving ends — normal return, error
/// return, or unwind.
struct SocketGuard(PathBuf);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "global @g\n\nfunc @make() {\nentry:\n  %h = alloc heap H\n  ret %h\n}\n\nfunc @main() {\nentry:\n  %a = call @make()\n  store %a, @g\n  ret\n}\n";

    fn load(server: &mut Server, id: &str) -> Json {
        let req = obj(vec![("op", s("load")), ("id", s(id)), ("source", s(PROG))]);
        let (resp, _) = server.handle_line(&req.to_line());
        json::parse(&resp).unwrap()
    }

    fn error_code(resp: &Json) -> Option<String> {
        resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str).map(String::from)
    }

    #[test]
    fn load_query_edit_flow() {
        let mut server = Server::new();
        let loaded = load(&mut server, "p");
        assert_eq!(loaded.get("ok"), Some(&Json::Bool(true)));
        let fp0 = loaded.get("fingerprint").unwrap().as_str().unwrap().to_string();

        let (resp, _) = server.handle_line(
            &obj(vec![("op", s("pts")), ("id", s("p")), ("func", s("main")), ("value", s("%a"))])
                .to_line(),
        );
        let pts = json::parse(&resp).unwrap();
        assert_eq!(pts.get("objects"), Some(&Json::Arr(vec![s("H")])));

        // A no-op edit keeps the fingerprint and dirties nothing.
        let (resp, _) = server.handle_line(
            &obj(vec![("op", s("edit")), ("id", s("p")), ("delta", Json::Arr(vec![]))]).to_line(),
        );
        let edited = json::parse(&resp).unwrap();
        assert_eq!(edited.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(edited.get("incremental"), Some(&Json::Bool(true)));
        assert_eq!(edited.get("dirty_nodes").unwrap().as_u64(), Some(0));
        assert_eq!(edited.get("fingerprint").unwrap().as_str().unwrap(), fp0);
    }

    fn request(server: &mut Server, pairs: Vec<(&'static str, Json)>) -> Json {
        let (resp, _) = server.handle_line(&obj(pairs).to_line());
        json::parse(&resp).unwrap()
    }

    fn engine(resp: &Json) -> &str {
        resp.get("engine").and_then(Json::as_str).expect("response names its engine")
    }

    fn stats_engine(server: &mut Server, id: &str) -> String {
        let stats = request(server, vec![("op", s("stats")), ("id", s(id))]);
        engine(&stats).to_string()
    }

    /// `@make` rewritten to allocate a fresh object: every node
    /// downstream of its return is dirty, past the half-graph rule.
    fn rewrite_make(server: &mut Server, id: &str) -> Json {
        let delta = Json::Arr(vec![obj(vec![
            ("action", s("replace")),
            ("name", s("make")),
            ("text", s("func @make() {\nentry:\n  %n = alloc heap FRESH\n  ret %n\n}\n")),
        ])]);
        request(server, vec![("op", s("edit")), ("id", s(id)), ("delta", delta)])
    }

    #[test]
    fn cold_loads_run_vsfs_by_default_and_sfs_on_request() {
        let mut server = Server::new();
        let loaded = load(&mut server, "p");
        assert_eq!(engine(&loaded), "vsfs");
        assert_eq!(stats_engine(&mut server, "p"), "vsfs");
        let sfs = request(
            &mut server,
            vec![("op", s("load")), ("id", s("q")), ("source", s(PROG)), ("solver", s("sfs"))],
        );
        assert_eq!(engine(&sfs), "sfs");
        assert_eq!(stats_engine(&mut server, "q"), "sfs");
        assert_eq!(sfs.get("fingerprint"), loaded.get("fingerprint"));
    }

    #[test]
    fn local_edits_run_the_seeded_sfs_wave() {
        let mut server = Server::new();
        load(&mut server, "p");
        let edited = request(
            &mut server,
            vec![("op", s("edit")), ("id", s("p")), ("delta", Json::Arr(vec![]))],
        );
        assert_eq!(edited.get("incremental"), Some(&Json::Bool(true)));
        assert_eq!(engine(&edited), "sfs-wave");
        assert_eq!(stats_engine(&mut server, "p"), "sfs-wave");
    }

    #[test]
    fn half_graph_rewrites_solve_cold_with_vsfs() {
        let mut server = Server::new();
        load(&mut server, "v");
        let vsfs = rewrite_make(&mut server, "v");
        assert_eq!(vsfs.get("ok"), Some(&Json::Bool(true)), "{vsfs:?}");
        let dirty = vsfs.get("dirty_nodes").and_then(Json::as_u64).unwrap();
        let total = vsfs.get("total_nodes").and_then(Json::as_u64).unwrap();
        assert!(dirty * 2 > total, "the rewrite must pass the half-graph rule ({dirty}/{total})");
        assert_eq!(vsfs.get("incremental"), Some(&Json::Bool(false)));
        assert_eq!(engine(&vsfs), "vsfs");
        assert_eq!(stats_engine(&mut server, "v"), "vsfs");

        // An `sfs` workspace solves the same rewrite cold with SFS.
        let sfs_load = vec![("op", s("load")), ("id", s("s")), ("source", s(PROG))];
        request(&mut server, [sfs_load, vec![("solver", s("sfs"))]].concat());
        let sfs = rewrite_make(&mut server, "s");
        assert_eq!(sfs.get("incremental"), Some(&Json::Bool(false)));
        assert_eq!(engine(&sfs), "sfs");
        assert_eq!(stats_engine(&mut server, "s"), "sfs");
        assert_eq!(sfs.get("fingerprint"), vsfs.get("fingerprint"));
    }

    #[test]
    fn degraded_solves_name_the_fallback() {
        let mut server = Server::new();
        let loaded = request(
            &mut server,
            vec![("op", s("load")), ("id", s("p")), ("source", s(PROG)), ("step_budget", n(1.0))],
        );
        assert_eq!(loaded.get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(engine(&loaded), "flow-insensitive-fallback");
        assert_eq!(stats_engine(&mut server, "p"), "flow-insensitive-fallback");
    }

    #[test]
    fn typed_errors_never_panic() {
        let mut server = Server::new();
        let mut code = |line: &str| {
            let (resp, _) = server.handle_line(line);
            error_code(&json::parse(&resp).unwrap()).unwrap()
        };
        assert_eq!(code("not json"), "bad_json");
        assert_eq!(code("{\"no\":\"op\"}"), "bad_request");
        assert_eq!(code("{\"op\":\"frobnicate\"}"), "unknown_op");
        assert_eq!(code("{\"op\":\"pts\",\"id\":\"nope\",\"value\":\"x\"}"), "unknown_program");
    }

    #[test]
    fn rejected_edit_leaves_state_untouched() {
        let mut server = Server::new();
        load(&mut server, "p");
        let (resp, _) = server.handle_line(
            &obj(vec![
                ("op", s("edit")),
                ("id", s("p")),
                (
                    "delta",
                    Json::Arr(vec![obj(vec![
                        ("action", s("replace")),
                        ("name", s("make")),
                        ("text", s("func @make() {\nentry:\n  %h = alloc heap\n")),
                    ])]),
                ),
            ])
            .to_line(),
        );
        let e = json::parse(&resp).unwrap();
        assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(error_code(&e).as_deref(), Some("parse_error"));
        // The resident program still answers queries.
        let (resp, _) =
            server.handle_line(&obj(vec![("op", s("stats")), ("id", s("p"))]).to_line());
        let stats = json::parse(&resp).unwrap();
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("warm"), Some(&Json::Bool(true)));
    }

    #[test]
    fn panic_quarantines_only_the_addressed_workspace() {
        let mut server = Server::new();
        load(&mut server, "a");
        load(&mut server, "b");

        let (resp, stop) =
            server.handle_line(&obj(vec![("op", s("debug_panic")), ("id", s("a"))]).to_line());
        assert!(!stop, "a panicking request must not stop the server");
        let fault = json::parse(&resp).unwrap();
        assert_eq!(error_code(&fault).as_deref(), Some("internal_fault"));
        assert_eq!(fault.get("quarantined"), Some(&Json::Bool(true)));

        // 'a' is quarantined with a typed error...
        let (resp, _) = server.handle_line(
            &obj(vec![("op", s("pts")), ("id", s("a")), ("value", s("%a"))]).to_line(),
        );
        let q = json::parse(&resp).unwrap();
        assert_eq!(error_code(&q).as_deref(), Some("workspace_quarantined"));

        // ...while 'b' still serves normally.
        let (resp, _) =
            server.handle_line(&obj(vec![("op", s("stats")), ("id", s("b"))]).to_line());
        let stats = json::parse(&resp).unwrap();
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("quarantined"), Some(&Json::Bool(false)));

        // stats observes the quarantine; load clears it.
        let (resp, _) =
            server.handle_line(&obj(vec![("op", s("stats")), ("id", s("a"))]).to_line());
        let stats = json::parse(&resp).unwrap();
        assert_eq!(stats.get("quarantined"), Some(&Json::Bool(true)));
        let reloaded = load(&mut server, "a");
        assert_eq!(reloaded.get("ok"), Some(&Json::Bool(true)));
        let (resp, _) = server.handle_line(
            &obj(vec![("op", s("pts")), ("id", s("a")), ("func", s("main")), ("value", s("%a"))])
                .to_line(),
        );
        assert_eq!(json::parse(&resp).unwrap().get("objects"), Some(&Json::Arr(vec![s("H")])));
    }

    #[test]
    fn oversized_requests_get_a_typed_error_and_the_stream_recovers() {
        let mut server =
            Server::with_config(ServerConfig { max_request_bytes: 256, ..ServerConfig::default() });
        // Direct handle_line guard.
        let big = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(400));
        let (resp, _) = server.handle_line(&big);
        let e = json::parse(&resp).unwrap();
        assert_eq!(error_code(&e).as_deref(), Some("request_too_large"));

        // Transport path: oversized line is skipped, next line works.
        let input = format!("{big}\n{{\"op\":\"ping\"}}\n");
        let mut out = Vec::new();
        let finished = server.serve(input.as_bytes(), &mut out).unwrap();
        assert!(!finished);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(error_code(&first).as_deref(), Some("request_too_large"));
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn snapshots_restore_across_server_instances() {
        let dir = std::env::temp_dir().join(format!("vsfs-snap-lib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig { snapshot_dir: Some(dir.clone()), ..ServerConfig::default() };

        let mut first = Server::with_config(cfg.clone());
        let loaded = load(&mut first, "p");
        assert_eq!(loaded.get("restored"), Some(&Json::Bool(false)));
        let fp = loaded.get("fingerprint").unwrap().as_str().unwrap().to_string();
        drop(first);

        // A fresh process restores from disk at startup...
        let mut second = Server::with_config(cfg.clone());
        let log = second.restore_snapshots();
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(log[0].contains("restored"), "{log:?}");
        assert_eq!(second.program_ids(), vec!["p"]);
        let (resp, _) =
            second.handle_line(&obj(vec![("op", s("stats")), ("id", s("p"))]).to_line());
        let stats = json::parse(&resp).unwrap();
        assert_eq!(stats.get("fingerprint").unwrap().as_str().unwrap(), fp);
        assert_eq!(stats.get("warm"), Some(&Json::Bool(true)));

        // ...and a `load` of identical text restores instead of solving.
        let mut third = Server::with_config(cfg);
        let reloaded = load(&mut third, "p");
        assert_eq!(reloaded.get("restored"), Some(&Json::Bool(true)));
        assert_eq!(reloaded.get("fingerprint").unwrap().as_str().unwrap(), fp);

        // unload drops the snapshot too.
        let (_, _) = third.handle_line(&obj(vec![("op", s("unload")), ("id", s("p"))]).to_line());
        assert!(snapshot::scan(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_logged_cold_solve() {
        let dir = std::env::temp_dir().join(format!("vsfs-snap-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig { snapshot_dir: Some(dir.clone()), ..ServerConfig::default() };
        let mut first = Server::with_config(cfg.clone());
        load(&mut first, "p");
        drop(first);

        // Truncate the snapshot file on disk.
        let path = snapshot::path_for(&dir, "p");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let mut second = Server::with_config(cfg.clone());
        let log = second.restore_snapshots();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("skipped"), "{log:?}");
        assert!(second.program_ids().is_empty());

        // And a load of the same id cold-solves without complaint.
        let loaded = load(&mut second, "p");
        assert_eq!(loaded.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(loaded.get("restored"), Some(&Json::Bool(false)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
