//! A single closed-loop client of an in-process `Server`: every request
//! goes through `handle_line`, one at a time.
//!
//! In a traced run the client also keeps a mirror of the resident state,
//! built by calling the incremental engine directly on the same texts,
//! and times the layers a request passes through, so a request's time
//! can be split into layer time and server overhead.

use crate::layers::{self, obj, s, Json, Server};
use crate::stats::{median, Rng};
use crate::Run;
use std::time::Instant;

pub struct ServerClient {
    server: Server,
    id: String,
    /// Fingerprint the server reported for the current resident state.
    pub fingerprint: u64,
    /// Traced runs: the same state, solved by direct calls.
    mirror: Option<layers::ProgramState>,
    /// Samples go to the probe set, not the workload's own path.
    probe: bool,
}

fn request(op: &str, id: &str, mut fields: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![("op", s(op)), ("id", s(id))];
    pairs.append(&mut fields);
    obj(pairs).to_line()
}

/// The scalar after `"key":` in a compact response line (string values
/// without their quotes). A key inside a string value is escaped, so the
/// first match is the top-level field.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

fn fingerprint_of(line: &str) -> Option<u64> {
    u64::from_str_radix(field(line, "fingerprint")?, 16).ok()
}

impl ServerClient {
    /// Starts a server and loads `text` as program `id`; the time is the
    /// serve set-up time.
    pub fn load(run: &mut Run, text: &str, id: &str) -> (ServerClient, f64) {
        let probe = run.tr.op() >= crate::PROBE_OP;
        let t = Instant::now();
        run.tr.enter("server.load");
        let mut server = Server::new();
        let line = request("load", id, vec![("source", s(text))]);
        let (resp, _) = server.handle_line(&line);
        run.tr.exit();
        let secs = t.elapsed().as_secs_f64();
        let fingerprint = if run.response(&resp) { fingerprint_of(&resp).unwrap_or(0) } else { 0 };
        let mut client =
            ServerClient { server, id: id.to_string(), fingerprint, mirror: None, probe };
        if run.tr.is_on() {
            let (state, _) = layers::solve_cold(text, &mut run.tr);
            crate::batch::record_counts(run, &layers::state_counts(&state), probe);
            client.mirror = Some(state);
        }
        (client, secs)
    }

    fn samples<'a>(&self, run: &'a mut Run) -> &'a mut crate::stats::Samples {
        if self.probe {
            &mut run.probe
        } else {
            &mut run.layer
        }
    }

    /// Sends one line; returns the response (when `ok`) and the seconds
    /// `handle_line` took.
    fn send(&mut self, run: &mut Run, span: &'static str, line: &str) -> (Option<String>, f64) {
        run.tr.enter(span);
        let t = Instant::now();
        let (resp, _) = self.server.handle_line(line);
        let secs = t.elapsed().as_secs_f64();
        run.tr.exit();
        (run.response(&resp).then_some(resp), secs)
    }

    /// Replaces function `name` with `ftext`; `full` is the whole program
    /// after the edit. Returns the request's seconds.
    pub fn edit(&mut self, run: &mut Run, full: &str, name: &str, ftext: &str) -> f64 {
        let delta = Json::Arr(vec![obj(vec![
            ("action", s("replace")),
            ("name", s(name)),
            ("text", s(ftext)),
        ])]);
        let line = request("edit", &self.id, vec![("delta", delta)]);
        let (resp, secs) = self.send(run, "server.edit", &line);
        if let Some(fp) = resp.as_deref().and_then(fingerprint_of) {
            self.fingerprint = fp;
        }
        if let Some(prev) = self.mirror.take() {
            let t = Instant::now();
            let (state, report) = layers::solve_edit(&prev, full, &mut run.tr);
            let edit_s = t.elapsed().as_secs_f64();
            drop(prev);
            if run.tr.is_on() {
                run.tr.enter("incremental.front");
                layers::front_stages(full, &mut run.tr);
                run.tr.exit();
            }
            let out = self.samples(run);
            out.push(
                "incremental.dirty_ratio",
                "ratio",
                report.dirty_nodes as f64 / report.total_nodes.max(1) as f64,
            );
            out.push("incremental.waves", "count", report.waves as f64);
            out.push(
                "incremental.cold_fallback_ratio",
                "ratio",
                f64::from(u8::from(!report.incremental)),
            );
            out.push("server.overhead_us.edit", "us", (secs - edit_s) * 1e6);
            out.push("server.json_parse_us", "us", json_parse_us(&line));
            run.count(state.fingerprint == self.fingerprint, || {
                format!(
                    "direct re-solve fingerprint {:016x} differs from the server's {:016x}",
                    state.fingerprint, self.fingerprint
                )
            });
            self.mirror = Some(state);
        }
        secs
    }

    /// `count` pts and `count` alias requests on values defined in
    /// function `func`; latencies go to `pts_us` and `alias_us`.
    pub fn queries(
        &mut self,
        run: &mut Run,
        func: &str,
        defs: &[String],
        rng: &mut Rng,
        count: usize,
    ) {
        let mut pts = Vec::with_capacity(count);
        let mut pairs = Vec::with_capacity(count);
        let (mut pts_us, mut alias_us) = (Vec::new(), Vec::new());
        for _ in 0..count {
            let v = &defs[rng.below(defs.len())];
            let line =
                request("pts", &self.id, vec![("func", s(func)), ("value", s(format!("%{v}")))]);
            let (_, secs) = self.send(run, "server.pts", &line);
            pts_us.push(secs * 1e6);
            pts.push(v);
            let (p, q) = (&defs[rng.below(defs.len())], &defs[rng.below(defs.len())]);
            let line = request(
                "alias",
                &self.id,
                vec![("func", s(func)), ("p", s(format!("%{p}"))), ("q", s(format!("%{q}")))],
            );
            let (_, secs) = self.send(run, "server.alias", &line);
            alias_us.push(secs * 1e6);
            pairs.push((p, q));
        }
        if let Some(state) = &self.mirror {
            let value = |name: &str| layers::value_named(state, func, name);
            let values: Vec<_> = pts.iter().filter_map(|v| value(v)).collect();
            let pairs: Vec<_> =
                pairs.iter().filter_map(|(p, q)| Some((value(p)?, value(q)?))).collect();
            let pts_ns =
                per_call_ns(|reps| layers::value_pts_block(state, &values, reps), values.len());
            let alias_ns =
                per_call_ns(|reps| layers::may_alias_block(state, &pairs, reps), pairs.len());
            let out = self.samples(run);
            out.push("queries.value_pts_ns", "ns", pts_ns);
            out.push("queries.may_alias_ns", "ns", alias_ns);
            out.push("server.overhead_us.pts", "us", median(&pts_us) - pts_ns * 1e-3);
            out.push("server.overhead_us.alias", "us", median(&alias_us) - alias_ns * 1e-3);
        }
        for us in pts_us {
            run.e2e.push("pts_us", "us", us);
        }
        for us in alias_us {
            run.e2e.push("alias_us", "us", us);
        }
    }

    /// One `check` request; returns its seconds.
    pub fn check(&mut self, run: &mut Run) -> f64 {
        let line = request("check", &self.id, vec![]);
        let (resp, secs) = self.send(run, "server.check", &line);
        if let Some(state) = &self.mirror {
            let t = Instant::now();
            let findings = layers::check_state(state, &mut run.tr);
            let direct = t.elapsed().as_secs_f64();
            let reported = resp.as_deref().and_then(|r| field(r, "count")?.parse::<u64>().ok());
            run.count(reported == Some(findings.len() as u64), || {
                format!("server reported {reported:?} findings, direct run {}", findings.len())
            });
            let out = self.samples(run);
            out.push("checkers.findings", "count", findings.len() as f64);
            out.push("server.overhead_us.check", "us", (secs - direct) * 1e6);
        }
        secs
    }

    /// Loads `text` under another id, cold, compares its fingerprint with
    /// the resident one, and unloads it; returns the load's seconds.
    pub fn cold_compare(&mut self, run: &mut Run, text: &str) -> f64 {
        let line = request("load", "cold", vec![("source", s(text))]);
        let (resp, secs) = self.send(run, "server.load", &line);
        let cold = resp.as_deref().and_then(fingerprint_of);
        let resident = self.fingerprint;
        run.count(cold == Some(resident), || {
            format!(
                "cold load fingerprint {cold:016x?} differs from the incremental {resident:016x}"
            )
        });
        self.send(run, "server.unload", &request("unload", "cold", vec![]));
        secs
    }

    /// Loads `source` as `id`, runs `check` and returns the rendered
    /// findings, then unloads it.
    pub fn check_source(&mut self, run: &mut Run, id: &str, source: &str) -> Option<Vec<String>> {
        self.send(run, "server.load", &request("load", id, vec![("source", s(source))]));
        let (resp, _) = self.send(run, "server.check", &request("check", id, vec![]));
        self.send(run, "server.unload", &request("unload", id, vec![]));
        let resp = layers::json::parse(&resp?).ok()?;
        resp.get("findings")?
            .as_arr()?
            .iter()
            .map(|f| f.get("message").and_then(Json::as_str).map(str::to_string))
            .collect()
    }

    /// For workloads whose path has no server: one edit that replaces a
    /// function by its own text, one round of queries and one check, so
    /// the server and incremental layers are measured on this program.
    pub fn probe(
        &mut self,
        run: &mut Run,
        text: &str,
        names: &[(String, Vec<String>)],
        rng: &mut Rng,
    ) {
        let (func, defs) = &names[0];
        let ftext = layers::function_of(text, func);
        self.edit(run, text, func, &ftext);
        self.queries(run, func, defs, rng, 30);
        self.check(run);
    }
}

/// Nanoseconds per call of a block of `len` calls repeated until the
/// block takes at least 10 ms.
fn per_call_ns(mut block: impl FnMut(usize) -> usize, len: usize) -> f64 {
    if len == 0 {
        return f64::NAN;
    }
    let mut reps = 1;
    loop {
        let t = Instant::now();
        std::hint::black_box(block(reps));
        let secs = t.elapsed().as_secs_f64();
        if secs >= 0.01 {
            return secs * 1e9 / (reps * len) as f64;
        }
        reps *= 2;
    }
}

/// Microseconds per parse of one request line, timed in a block.
fn json_parse_us(line: &str) -> f64 {
    per_call_ns(|reps| layers::json_parse_block(line, reps), 1) * 1e-3
}
