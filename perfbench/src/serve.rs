//! `serve-edit`: a resident server holding one edited program. Each step
//! sends one edit, then `pts` and `alias` queries on values of the
//! function just sent, then one `check`.

use crate::batch::epilogue_salts;
use crate::layers;
use crate::server_ops::ServerClient;
use crate::stats::Rng;
use crate::{value_names, Run, PROBE_OP};
use std::time::{Duration, Instant};

/// Queries of each kind per step; a run holds thousands of each.
const QUERIES_PER_STEP: usize = 100;
/// Every tenth step rewrites a whole function body and back; the other
/// steps replace a function's private epilogue (the generator's salt
/// parity: odd salts rewrite, even ones add an epilogue).
const REWRITE_EVERY: u64 = 10;
/// A cold load of the current text, compared with the resident
/// incremental state, every this many steps. Its time is `analyze_s`;
/// it does not count towards the run's seconds, which are the traffic's.
const COLD_EVERY: u64 = 5;

/// The suite's `ninja` shape at its own generator seed, with frees and
/// possibly-null pointers for the checkers to find.
fn config() -> layers::WorkloadConfig {
    layers::WorkloadConfig {
        edit_fraction: 0.5,
        free_fraction: 0.1,
        null_fraction: 0.05,
        ..layers::shape_config("ninja")
    }
}

/// The edited functions, every other one, split into local-edit and
/// rewrite targets. Rewrites go to a fixed quarter of them, so every run
/// rewrites the same few functions about equally often.
fn targets(functions: usize) -> (Vec<usize>, Vec<usize>) {
    (0..functions).step_by(2).partition(|i| i % 8 != 6)
}

/// The body a rewrite gives function `idx` (an odd salt). It is the same
/// in every run: rewrite latency depends strongly on the new body, so a
/// seed-drawn body would make `rewrite_p50_ms` a property of the seed.
/// The seed still orders the rewrites.
fn rewrite_salt(idx: usize) -> u64 {
    ((idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1
}

/// Visits every target once per round, in a seed-shuffled order, so each
/// run edits every function equally often.
struct Cycle {
    targets: Vec<usize>,
    pos: usize,
}

impl Cycle {
    fn new(targets: Vec<usize>) -> Self {
        let pos = targets.len();
        Cycle { targets, pos }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.pos == self.targets.len() {
            for i in (1..self.targets.len()).rev() {
                self.targets.swap(i, rng.below(i + 1));
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.targets[self.pos - 1]
    }
}

/// Sends the edit that gives function `idx` its body under `salts`;
/// returns the new program text, the function's text and the seconds.
fn edit(
    run: &mut Run,
    client: &mut ServerClient,
    config: &layers::WorkloadConfig,
    salts: &[u64],
    idx: usize,
) -> (String, String, f64) {
    let full = layers::program_text(config, salts);
    let name = format!("f{idx}");
    let ftext = layers::function_of(&full, &name);
    let secs = client.edit(run, &full, &name, &ftext);
    (full, ftext, secs)
}

/// Server construction plus the initial load.
pub fn setup(run: &mut Run) -> f64 {
    let mut rng = Rng::new(run.seed);
    let config = config();
    let salts = epilogue_salts(config.functions, &mut rng);
    let text = layers::program_text(&config, &salts);
    ServerClient::load(run, &text, "p").1
}

pub fn run(run: &mut Run) {
    layers::reset_peak_heap();
    let mut rng = Rng::new(run.seed);
    let config = config();
    // The seed-chosen starting epilogues (as the batch programs have).
    let mut salts = epilogue_salts(config.functions, &mut rng);
    let text = layers::program_text(&config, &salts);
    let (local, rewrite) = targets(config.functions);
    let cold_offset = rng.below(COLD_EVERY as usize) as u64;

    run.tr.set_op(0);
    let (mut client, setup) = ServerClient::load(run, &text, "p");
    run.e2e.push("setup_s", "s", setup);

    let start = Instant::now();
    let mut cold = Duration::ZERO;
    let mut step = 0u64;
    let mut full = text;
    let mut local_cycle = Cycle::new(local);
    let mut rewrite_cycle = Cycle::new(rewrite);
    // Peak live heap of the run, leaving out the cold comparisons.
    let mut peak = 0;
    // At least one rewrite, whatever the time.
    while (start.elapsed() - cold).as_secs_f64() < run.seconds || step < REWRITE_EVERY {
        run.tr.set_op(step + 1);
        // A traced run alternates traced and untraced steps, so the
        // tracing overhead is measured inside one process. Rewrite steps
        // are odd, so they are traced.
        let traced = run.traced && !step.is_multiple_of(2);
        run.tr.set_on(traced);
        let ftext = if step % REWRITE_EVERY == REWRITE_EVERY - 1 {
            // A rewrite (odd salt), then a rewrite back: the program never
            // drifts from its seeded shape, so later steps stay comparable.
            let idx = rewrite_cycle.next(&mut rng);
            let before = salts[idx];
            let mut ftext = String::new();
            for salt in [rewrite_salt(idx), before] {
                salts[idx] = salt;
                let secs;
                (full, ftext, secs) = edit(run, &mut client, &config, &salts, idx);
                run.e2e.push("rewrite_ms", "ms", secs * 1e3);
            }
            ftext
        } else {
            // A local edit: a new epilogue (even non-zero salt).
            let idx = local_cycle.next(&mut rng);
            salts[idx] = (rng.next_u64() | 1) << 1;
            let (text, ftext, secs) = edit(run, &mut client, &config, &salts, idx);
            run.e2e.push(if traced { "traced_edit_ms" } else { "edit_ms" }, "ms", secs * 1e3);
            full = text;
            ftext
        };
        if let Some((func, defs)) = value_names(&ftext).first() {
            client.queries(run, func, defs, &mut rng, QUERIES_PER_STEP);
        }
        let secs = client.check(run);
        run.e2e.push("check_ms", "ms", secs * 1e3);

        if step % COLD_EVERY == cold_offset {
            peak = peak.max(layers::peak_heap_bytes());
            let t = Instant::now();
            let secs = client.cold_compare(run, &full);
            cold += t.elapsed();
            run.e2e.push("analyze_s", "s", secs);
            // The cold copy is a check, not the workload's traffic.
            layers::reset_peak_heap();
        }
        step += 1;
    }
    peak = peak.max(layers::peak_heap_bytes());
    run.e2e.push("peak_heap_mib", "MiB", peak as f64 / 1048576.0);
    // The final state is always compared with a cold load.
    let secs = client.cold_compare(run, &full);
    run.e2e.push("analyze_s", "s", secs);
    run.tr.set_on(run.traced);

    // Outside timing: the labelled checker corpus through the same server.
    run.tr.set_op(PROBE_OP);
    match layers::checker_corpus(std::path::Path::new("workloads/checkers")) {
        Ok(cases) => {
            for (name, source, expected) in cases {
                let got = client.check_source(run, &format!("corpus/{name}"), &source);
                run.count(got.as_ref() == Some(&expected), || {
                    format!("checker corpus {name}: expected {expected:?}, got {got:?}")
                });
            }
        }
        Err(e) => {
            run.count(false, || format!("checker corpus unreadable: {e}"));
        }
    }
    // A traced run also measures the layers this path does not call
    // (versioning, VSFS) on the final program, and checks VSFS agrees.
    if run.tr.is_on() {
        let a = layers::analyze(&full, layers::Solver::Vsfs, &mut run.tr);
        crate::batch::record_counts(run, &a.counts, true);
        let fp = layers::fingerprint(&a);
        let resident = client.fingerprint;
        run.count(fp == resident, || {
            format!("VSFS fingerprint {fp:016x} differs from the server's {resident:016x}")
        });
    }
}
