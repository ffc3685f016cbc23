//! End-to-end protocol tests for `vsfs serve`: spawn the real daemon,
//! drive it over stdin/stdout (and a Unix socket), and check that every
//! request type answers — and that malformed input yields typed JSON
//! errors, never a crash.
//!
//! Assertions work on raw response lines (the protocol is line-delimited
//! JSON with a stable key order), so the tests need no JSON parser.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

const PROG: &str = "global @g\n\nfunc @make() {\nentry:\n  %h = alloc heap H\n  ret %h\n}\n\nfunc @main() {\nentry:\n  %a = call @make()\n  store %a, @g\n  %b = load @g\n  ret\n}\n";

struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vsfs"))
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon { child, stdin, stdout }
    }

    /// Sends one request line and reads one response line.
    fn request(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().unwrap();
        let mut resp = String::new();
        self.stdout.read_line(&mut resp).expect("read response");
        assert!(!resp.is_empty(), "daemon closed the stream unexpectedly");
        resp.trim_end().to_string()
    }

    fn shutdown(mut self) {
        let resp = self.request("{\"op\":\"shutdown\"}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exit status: {status}");
    }
}

/// JSON-escapes a program source for embedding in a request line.
fn quote(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn field<'a>(resp: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = resp.find(&pat).unwrap_or_else(|| panic!("no '{key}' in {resp}")) + pat.len();
    let rest = &resp[start..];
    let end = rest
        .char_indices()
        .scan(false, |in_str, (i, c)| {
            if c == '"' {
                *in_str = !*in_str;
            }
            if !*in_str && (c == ',' || c == '}') {
                Some(Some(i))
            } else {
                Some(None)
            }
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn full_session_over_stdio() {
    // An `sfs` server: the rewrite of @make below dirties most of the
    // graph and is solved cold with SFS; adding an uncalled function is
    // a seeded wave.
    let mut d = Daemon::spawn(&["--solver", "sfs"]);
    assert!(d.request("{\"op\":\"ping\"}").contains("\"ok\":true"));

    // load
    let resp = d.request(&format!("{{\"op\":\"load\",\"id\":\"p\",\"source\":{}}}", quote(PROG)));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"engine\":\"sfs\""), "{resp}");
    assert!(resp.contains("\"mode\":\"flow-sensitive\""), "{resp}");
    assert!(resp.contains("\"degraded\":false"), "{resp}");
    let fp0 = field(&resp, "fingerprint").to_string();

    // pts: the load through the global sees exactly H.
    let resp = d.request("{\"op\":\"pts\",\"id\":\"p\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H\"]"), "{resp}");

    // alias
    let resp =
        d.request("{\"op\":\"alias\",\"id\":\"p\",\"func\":\"main\",\"p\":\"%a\",\"q\":\"%b\"}");
    assert!(resp.contains("\"may_alias\":true"), "{resp}");

    // check: H never freed — the leak checker fires.
    let resp = d.request("{\"op\":\"check\",\"id\":\"p\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"checker\":\"leak\""), "{resp}");

    // stats
    let resp = d.request("{\"op\":\"stats\",\"id\":\"p\"}");
    assert!(resp.contains("\"warm\":true"), "{resp}");
    assert_eq!(field(&resp, "fingerprint"), fp0, "{resp}");

    // edit: replace @make to allocate a second object behind a phi.
    let body = "func @make() {\nentry:\n  %h = alloc heap H2\n  ret %h\n}";
    let resp = d.request(&format!(
        "{{\"op\":\"edit\",\"id\":\"p\",\"delta\":[{{\"action\":\"replace\",\"name\":\"make\",\"text\":{}}}]}}",
        quote(body)
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"incremental\":false"), "{resp}");
    assert!(resp.contains("\"engine\":\"sfs\""), "{resp}");
    assert_ne!(field(&resp, "fingerprint"), fp0, "edit must change the result");
    let dirty: usize = field(&resp, "dirty_nodes").parse().unwrap();
    let total: usize = field(&resp, "total_nodes").parse().unwrap();
    assert!(dirty * 2 > total && dirty < total, "dirty {dirty}/{total}");

    // The query surface reflects the edit.
    let resp = d.request("{\"op\":\"pts\",\"id\":\"p\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H2\"]"), "{resp}");

    // add + remove round trip.
    let extra = "func @extra() {\nentry:\n  %x = alloc stack X\n  ret\n}";
    let resp = d.request(&format!(
        "{{\"op\":\"edit\",\"id\":\"p\",\"delta\":[{{\"action\":\"add\",\"name\":\"extra\",\"text\":{}}}]}}",
        quote(extra)
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"incremental\":true"), "{resp}");
    assert!(resp.contains("\"engine\":\"sfs-wave\""), "{resp}");
    assert_eq!(field(&resp, "functions"), "3", "{resp}"); // make, main, extra
    let resp = d.request(
        "{\"op\":\"edit\",\"id\":\"p\",\"delta\":[{\"action\":\"remove\",\"name\":\"extra\"}]}",
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");

    // unload, then the program is gone.
    assert!(d.request("{\"op\":\"unload\",\"id\":\"p\"}").contains("\"ok\":true"));
    let resp = d.request("{\"op\":\"stats\",\"id\":\"p\"}");
    assert!(resp.contains("\"code\":\"unknown_program\""), "{resp}");

    d.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_not_crashes() {
    let mut d = Daemon::spawn(&[]);
    let cases: &[(&str, &str)] = &[
        ("this is not json", "bad_json"),
        ("{\"op\":123}", "bad_request"),
        ("{\"op\":\"frobnicate\"}", "unknown_op"),
        ("{\"op\":\"load\",\"id\":\"x\"}", "bad_request"),
        ("{\"op\":\"pts\",\"id\":\"nope\",\"value\":\"v\"}", "unknown_program"),
        ("[1,2,3]", "bad_request"),
        ("{\"op\":\"edit\",\"id\":\"nope\",\"delta\":[]}", "unknown_program"),
    ];
    for (req, code) in cases {
        let resp = d.request(req);
        assert!(resp.contains("\"ok\":false"), "{req} -> {resp}");
        assert!(resp.contains(&format!("\"code\":\"{code}\"")), "{req} -> {resp} (wanted {code})");
    }
    // The daemon is still healthy after every error.
    assert!(d.request("{\"op\":\"ping\"}").contains("\"ok\":true"));
    d.shutdown();
}

#[test]
fn edit_errors_are_typed_and_roll_back() {
    let mut d = Daemon::spawn(&[]);
    let resp = d.request(&format!("{{\"op\":\"load\",\"id\":\"p\",\"source\":{}}}", quote(PROG)));
    let fp0 = field(&resp, "fingerprint").to_string();

    // Unknown function in the delta.
    let resp = d.request(
        "{\"op\":\"edit\",\"id\":\"p\",\"delta\":[{\"action\":\"remove\",\"name\":\"ghost\"}]}",
    );
    assert!(resp.contains("\"code\":\"unknown_function\""), "{resp}");

    // Unparsable replacement body.
    let bad = "func @make() {\nentry:\n  %h = alloc heap\n}";
    let resp = d.request(&format!(
        "{{\"op\":\"edit\",\"id\":\"p\",\"delta\":[{{\"action\":\"replace\",\"name\":\"make\",\"text\":{}}}]}}",
        quote(bad)
    ));
    assert!(resp.contains("\"code\":\"parse_error\""), "{resp}");

    // Removing a still-called function fails verification.
    let resp = d.request(
        "{\"op\":\"edit\",\"id\":\"p\",\"delta\":[{\"action\":\"remove\",\"name\":\"make\"}]}",
    );
    assert!(
        resp.contains("\"code\":\"parse_error\"") || resp.contains("\"code\":\"verify_error\""),
        "{resp}"
    );

    // Every failure rolled back: same fingerprint, still warm.
    let resp = d.request("{\"op\":\"stats\",\"id\":\"p\"}");
    assert_eq!(field(&resp, "fingerprint"), fp0, "{resp}");
    assert!(resp.contains("\"warm\":true"), "{resp}");
    d.shutdown();
}

#[test]
fn corpus_preload_and_unix_socket() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("vsfs_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("alpha.vir"), PROG).unwrap();
    let sock = dir.join("vsfs.sock");

    let mut child = Command::new(env!("CARGO_BIN_EXE_vsfs"))
        .args(["serve", "--corpus"])
        .arg(&dir)
        .arg("--socket")
        .arg(&sock)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");

    // Wait for the socket to appear.
    let mut tries = 0;
    while !sock.exists() {
        std::thread::sleep(std::time::Duration::from_millis(50));
        tries += 1;
        assert!(tries < 200, "socket never appeared");
    }
    let stream = UnixStream::connect(&sock).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        let mut s = stream.try_clone().unwrap();
        writeln!(s, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    };

    // The corpus program was preloaded under its file stem.
    let resp = send("{\"op\":\"stats\"}");
    assert!(resp.contains("\"ids\":[\"alpha\"]"), "{resp}");
    let resp = send("{\"op\":\"pts\",\"id\":\"alpha\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H\"]"), "{resp}");
    let resp = send("{\"op\":\"shutdown\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");

    let status = child.wait().expect("daemon exits");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_quarantines_one_workspace_and_the_daemon_survives() {
    let mut d = Daemon::spawn(&[]);
    for id in ["a", "b"] {
        let resp =
            d.request(&format!("{{\"op\":\"load\",\"id\":\"{id}\",\"source\":{}}}", quote(PROG)));
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    // Fault drill: the request panics inside the handler...
    let resp = d.request("{\"op\":\"debug_panic\",\"id\":\"a\"}");
    assert!(resp.contains("\"code\":\"internal_fault\""), "{resp}");
    assert!(resp.contains("\"quarantined\":true"), "{resp}");

    // ...the process is alive, 'a' is quarantined with a typed error...
    let resp = d.request("{\"op\":\"pts\",\"id\":\"a\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"code\":\"workspace_quarantined\""), "{resp}");

    // ...and 'b' still answers real queries.
    let resp = d.request("{\"op\":\"pts\",\"id\":\"b\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H\"]"), "{resp}");

    // A fresh load re-admits 'a'.
    let resp = d.request(&format!("{{\"op\":\"load\",\"id\":\"a\",\"source\":{}}}", quote(PROG)));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = d.request("{\"op\":\"pts\",\"id\":\"a\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H\"]"), "{resp}");
    d.shutdown();
}

#[test]
fn solver_selection_and_cold_only_workspaces_over_stdio() {
    let mut d = Daemon::spawn(&[]);

    // Unknown solver names are a typed bad_request.
    let resp = d.request(&format!(
        "{{\"op\":\"load\",\"id\":\"x\",\"source\":{},\"solver\":\"bogus\"}}",
        quote(PROG)
    ));
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");
    assert!(resp.contains("unknown solver 'bogus'"), "{resp}");

    // A staged workspace (server default) and a cold-only cfgfree one
    // over the same text: query-identical fingerprints.
    let resp =
        d.request(&format!("{{\"op\":\"load\",\"id\":\"warm\",\"source\":{}}}", quote(PROG)));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let fp = field(&resp, "fingerprint").to_string();
    let resp = d.request(&format!(
        "{{\"op\":\"load\",\"id\":\"cold\",\"source\":{},\"solver\":\"cfgfree\"}}",
        quote(PROG)
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert_eq!(field(&resp, "fingerprint"), fp, "cfgfree must be query-identical: {resp}");

    // Per-workspace stats name the resident solver (VSFS by default),
    // the engine of its last solve and warm residency; the SVFG
    // counters are null for a cold-only workspace.
    let resp = d.request("{\"op\":\"stats\",\"id\":\"warm\"}");
    assert!(resp.contains("\"solver\":\"vsfs\""), "{resp}");
    assert!(resp.contains("\"engine\":\"vsfs\""), "{resp}");
    assert!(resp.contains("\"warm\":true"), "{resp}");
    let resp = d.request("{\"op\":\"stats\",\"id\":\"cold\"}");
    assert!(resp.contains("\"solver\":\"cfgfree\""), "{resp}");
    assert!(resp.contains("\"warm\":false"), "{resp}");
    assert!(resp.contains("\"nodes\":null"), "{resp}");
    assert!(resp.contains("\"direct_edges\":null"), "{resp}");

    // Cold-only workspaces serve the whole query surface; `check`
    // stages an SVFG on demand for the witness walk.
    let resp = d.request("{\"op\":\"pts\",\"id\":\"cold\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H\"]"), "{resp}");
    let resp = d.request("{\"op\":\"check\",\"id\":\"cold\"}");
    assert!(resp.contains("\"checker\":\"leak\""), "{resp}");

    // Edits are served by exact cold re-solves, and an edit that omits
    // `solver` keeps the workspace's resident one.
    let body = "func @make() {\nentry:\n  %h = alloc heap H2\n  ret %h\n}";
    let resp = d.request(&format!(
        "{{\"op\":\"edit\",\"id\":\"cold\",\"delta\":[{{\"action\":\"replace\",\"name\":\"make\",\"text\":{}}}]}}",
        quote(body)
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"incremental\":false"), "{resp}");
    let resp = d.request("{\"op\":\"pts\",\"id\":\"cold\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H2\"]"), "{resp}");
    let resp = d.request("{\"op\":\"stats\",\"id\":\"cold\"}");
    assert!(resp.contains("\"solver\":\"cfgfree\""), "{resp}");

    // Naming a different solver on an edit switches the workspace by a
    // cold re-solve that preserves the result.
    let resp = d.request("{\"op\":\"edit\",\"id\":\"warm\",\"delta\":[],\"solver\":\"sfs\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"incremental\":false"), "{resp}");
    assert!(resp.contains("\"engine\":\"sfs\""), "{resp}");
    assert_eq!(field(&resp, "fingerprint"), fp, "solver switch must preserve the result: {resp}");
    let resp = d.request("{\"op\":\"stats\",\"id\":\"warm\"}");
    assert!(resp.contains("\"solver\":\"sfs\""), "{resp}");
    assert!(resp.contains("\"warm\":true"), "{resp}");

    // The unification tier is a first-class solver name: loads accept
    // it, per-workspace stats report it, and — being cold-only — its
    // SVFG counters are null.
    let resp = d.request(&format!(
        "{{\"op\":\"load\",\"id\":\"uni\",\"source\":{},\"solver\":\"unify\"}}",
        quote(PROG)
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"degraded\":false"), "{resp}");
    let resp = d.request("{\"op\":\"stats\",\"id\":\"uni\"}");
    assert!(resp.contains("\"solver\":\"unify\""), "{resp}");
    assert!(resp.contains("\"nodes\":null"), "{resp}");

    // ... but only the exact name: the tier-config name `steensgaard`
    // and a case-mangled `UNIFY` stay outside the closed solver family,
    // pinned to the typed `bad_request` path.
    for bad in ["steensgaard", "UNIFY"] {
        let resp = d.request(&format!(
            "{{\"op\":\"load\",\"id\":\"y\",\"source\":{},\"solver\":\"{bad}\"}}",
            quote(PROG)
        ));
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");
        assert!(resp.contains(&format!("unknown solver '{bad}'")), "{resp}");
        assert!(
            resp.contains("expected dense, sfs, vsfs, cfgfree, or unify"),
            "the error must enumerate the accepted names: {resp}"
        );
    }

    d.shutdown();
}

/// Drives one fuzz session over an open pair of read/write halves,
/// asserting one well-formed response per non-blank line with an error
/// code inside the server's closed taxonomy. Returns responses.
fn drive_fuzz_session<W: Write, R: BufRead>(
    seed: u64,
    cases: usize,
    max_line: usize,
    writer: &mut W,
    reader: &mut R,
) -> Vec<String> {
    let mut fuzzer = vsfs_testkit::ProtocolFuzzer::new(seed, max_line);
    let mut responses = Vec::new();
    for case in fuzzer.session(cases) {
        writer.write_all(&case.line).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        // Blank lines are skipped by the server: no response expected.
        if String::from_utf8_lossy(&case.line).trim().is_empty() {
            continue;
        }
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        assert!(
            !resp.is_empty(),
            "seed {seed}: daemon died on {:?} line {:?}",
            case.kind,
            String::from_utf8_lossy(&case.line)
        );
        assert!(
            resp.starts_with("{\"ok\":"),
            "seed {seed}: unparseable response {resp} to {:?}",
            case.kind
        );
        if resp.contains("\"ok\":false") {
            let code = field(&resp, "code").trim_matches('"').to_string();
            assert!(
                vsfs_server::ERROR_CODES.contains(&code.as_str()),
                "seed {seed}: code '{code}' outside the taxonomy ({resp})"
            );
        }
        responses.push(resp.trim_end().to_string());
    }
    responses
}

#[test]
fn fuzz_sessions_over_stdio_never_kill_the_daemon() {
    for seed in [1u64, 2, 3] {
        let mut d = Daemon::spawn(&["--max-request-bytes", "4096"]);
        drive_fuzz_session(seed, 120, 4096, &mut d.stdin, &mut d.stdout);
        // Sessions are deterministic per seed: same seed, same lines.
        let a = {
            let mut f = vsfs_testkit::ProtocolFuzzer::new(seed, 4096);
            f.session(120).into_iter().map(|c| c.line).collect::<Vec<_>>()
        };
        let b = {
            let mut f = vsfs_testkit::ProtocolFuzzer::new(seed, 4096);
            f.session(120).into_iter().map(|c| c.line).collect::<Vec<_>>()
        };
        assert_eq!(a, b);
        // The daemon survived the whole session.
        assert!(d.request("{\"op\":\"ping\"}").contains("\"ok\":true"));
        d.shutdown();
    }
}

#[test]
fn fuzz_sessions_over_unix_socket_never_leak_socket_files() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("vsfs_fuzz_sock_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("fuzz.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vsfs"))
        .args(["serve", "--max-request-bytes", "4096", "--socket"])
        .arg(&sock)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut tries = 0;
    while !sock.exists() {
        std::thread::sleep(std::time::Duration::from_millis(50));
        tries += 1;
        assert!(tries < 200, "socket never appeared");
    }

    for seed in [11u64, 12, 13] {
        let stream = UnixStream::connect(&sock).expect("connect");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        drive_fuzz_session(seed, 120, 4096, &mut writer, &mut reader);
    }

    // Still alive; shut down and verify the socket file is cleaned up.
    let stream = UnixStream::connect(&sock).expect("connect after fuzzing");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{{\"op\":\"shutdown\"}}").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let status = child.wait().expect("daemon exits");
    assert!(status.success());
    assert!(!sock.exists(), "socket file leaked after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn socket_lifecycle_live_probe_stale_reclaim_and_refusal() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("vsfs_sock_life_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("life.sock");

    let spawn_on = |sock: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_vsfs"))
            .args(["serve", "--socket"])
            .arg(sock)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns")
    };
    let wait_for = |sock: &std::path::Path| {
        let mut tries = 0;
        while UnixStream::connect(sock).is_err() {
            std::thread::sleep(std::time::Duration::from_millis(50));
            tries += 1;
            assert!(tries < 200, "socket never came up");
        }
    };
    let roundtrip = |sock: &std::path::Path, line: &str| {
        let stream = UnixStream::connect(sock).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    };

    // A second daemon must refuse to displace a live one.
    let mut first = spawn_on(&sock);
    wait_for(&sock);
    let mut second = spawn_on(&sock);
    let status = second.wait().expect("second daemon exits");
    assert!(!status.success(), "second daemon must refuse a live socket");
    assert!(roundtrip(&sock, "{\"op\":\"ping\"}").contains("\"ok\":true"));

    // SIGKILL leaves a stale socket file; a fresh daemon reclaims it.
    first.kill().unwrap();
    first.wait().unwrap();
    assert!(sock.exists(), "SIGKILL should leave the socket file behind");
    let mut third = spawn_on(&sock);
    wait_for(&sock);
    assert!(roundtrip(&sock, "{\"op\":\"ping\"}").contains("\"ok\":true"));
    assert!(roundtrip(&sock, "{\"op\":\"shutdown\"}").contains("\"ok\":true"));
    assert!(third.wait().unwrap().success());
    assert!(!sock.exists(), "socket removed on clean shutdown");

    // A non-socket file at the path is never deleted.
    std::fs::write(&sock, b"precious data").unwrap();
    let mut fourth = spawn_on(&sock);
    let status = fourth.wait().expect("fourth daemon exits");
    assert!(!status.success(), "must refuse to replace a regular file");
    assert_eq!(std::fs::read(&sock).unwrap(), b"precious data");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_survive_daemon_restarts() {
    let dir = std::env::temp_dir().join(format!("vsfs_snap_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap_arg = dir.to_str().unwrap().to_string();

    let mut d = Daemon::spawn(&["--snapshot-dir", &snap_arg]);
    let resp = d.request(&format!("{{\"op\":\"load\",\"id\":\"p\",\"source\":{}}}", quote(PROG)));
    assert!(resp.contains("\"restored\":false"), "{resp}");
    let fp0 = field(&resp, "fingerprint").to_string();
    d.shutdown();

    // A restarted daemon restores the program before serving.
    let mut d = Daemon::spawn(&["--snapshot-dir", &snap_arg]);
    let resp = d.request("{\"op\":\"stats\",\"id\":\"p\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert_eq!(field(&resp, "fingerprint"), fp0, "{resp}");
    assert!(resp.contains("\"warm\":true"), "restore must re-arm incrementality: {resp}");
    // And the restored state serves real queries + incremental edits.
    let resp = d.request("{\"op\":\"pts\",\"id\":\"p\",\"func\":\"main\",\"value\":\"%b\"}");
    assert!(resp.contains("\"objects\":[\"H\"]"), "{resp}");
    let resp = d.request("{\"op\":\"edit\",\"id\":\"p\",\"delta\":[]}");
    assert!(resp.contains("\"incremental\":true"), "{resp}");
    assert_eq!(field(&resp, "fingerprint"), fp0, "{resp}");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
