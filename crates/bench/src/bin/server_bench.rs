//! Serving-path benchmark: request latency, overload shedding, and
//! snapshot restore against cold solves.
//!
//! ```text
//! server_bench [WORKLOADS] [--requests N] [--gate X] [--out FILE]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `ninja,bake`). For each workload the bench
//!
//! 1. cold-solves the text and times it — the baseline every other
//!    number is judged against;
//! 2. exports the warm state, writes a snapshot through the real file
//!    format ([`vsfs_server::snapshot`]), reads it back, and times
//!    [`vsfs_core::restore_program`] — asserting the restored
//!    fingerprint matches the cold solve;
//! 3. times one cold load in a `vsfs` workspace and records, ungated,
//!    the restore's speedup over it;
//! 4. loads the program into a [`vsfs_server::Server`] and samples
//!    per-request dispatch latency (p50/p95) over a mix of `pts`,
//!    `alias`, and `stats` requests on real value names;
//! 5. runs a synthetic overload burst against `run_unix` (2 workers,
//!    queue depth 2, 32 simultaneous connections) and reports the shed
//!    rate — the *correctness* of shedding is pinned by the server's
//!    test suite; this records how much a saturated box sheds.
//!
//! With `--gate X` (default 5) the run doubles as the CI snapshot gate:
//! it fails (exit 1) unless every workload restores at least `X` times
//! faster than its cold solve (an `sfs` workspace, the
//! [`IncrementalOptions`] default the gate is calibrated on). The bench
//! runs under the system allocator, so no allocation counting skews the
//! ratio. Paired `sfs`/`vsfs` load times and peaks are
//! `solver_matrix --gate-vsfs-load`'s. Results go to
//! `results/BENCH_server.json` (`PhaseTimer::to_json` format).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use vsfs_adt::stats::PhaseTimer;
use vsfs_core::{export_warm, restore_program, solve_program, IncrementalOptions, SolverKind};
use vsfs_server::json::Json;
use vsfs_server::{snapshot, Server, ServerConfig};

/// Deterministic request-mix seed.
const MIX_SEED: u64 = 0x5e12_7ab1e;

fn main() {
    let mut names: Vec<String> = vec!["ninja".into(), "bake".into()];
    let mut requests = 500usize;
    let mut gate = 5.0f64;
    let mut out = "results/BENCH_server.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--requests" => requests = parse_arg(args.next(), "--requests"),
            "--gate" => gate = parse_arg(args.next(), "--gate"),
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }

    let snap_dir = std::env::temp_dir().join(format!("vsfs-server-bench-{}", std::process::id()));
    let mut timer = PhaseTimer::new();
    let mut failed = false;
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let program = vsfs_workloads::generate(&spec.config);
        let source = program.to_string();
        let opts = IncrementalOptions::default();

        // 1. Cold solve baseline.
        let t = Instant::now();
        let (cold, _) = solve_program(&source, opts, None, None)
            .unwrap_or_else(|e| fail(name, "cold solve", &e.to_string()));
        let cold_secs = t.elapsed().as_secs_f64();
        timer.record(&format!("{name}.cold_solve"), t.elapsed());

        // 2. Snapshot save, then restore from the file.
        let export = export_warm(&cold)
            .unwrap_or_else(|| fail(name, "export", "complete solve did not export"));
        let snap = snapshot::Snapshot { id: name.clone(), source: source.clone(), export };
        let t = Instant::now();
        let path = snapshot::save(&snap_dir, &snap)
            .unwrap_or_else(|e| fail(name, "snapshot save", &e.to_string()));
        let save_secs = t.elapsed().as_secs_f64();
        timer.record(&format!("{name}.snapshot_save"), t.elapsed());
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        timer.count(&format!("{name}.snapshot_bytes"), bytes);

        let t = Instant::now();
        let reread =
            snapshot::load(&path).unwrap_or_else(|e| fail(name, "snapshot load", &e.to_string()));
        let (restored, report) = restore_program(&reread.source, &reread.export, opts, None, None)
            .unwrap_or_else(|e| fail(name, "restore", &e.to_string()));
        let restore_secs = t.elapsed().as_secs_f64();
        timer.record(&format!("{name}.snapshot_restore"), t.elapsed());
        if !report.restored {
            fail(name, "restore", "fell back to a cold solve");
        }
        if restored.fingerprint != cold.fingerprint {
            fail(name, "restore", "fingerprint diverged from cold solve");
        }
        let speedup = if restore_secs > 0.0 { cold_secs / restore_secs } else { f64::INFINITY };
        timer.count(&format!("{name}.restore_speedup_x100"), (speedup * 100.0) as u64);
        println!(
            "{name}: cold {cold_secs:.3}s, snapshot save {save_secs:.3}s \
             ({bytes} bytes), restore {restore_secs:.3}s ({speedup:.1}x)"
        );
        if speedup < gate {
            eprintln!("FAIL: {name} restore speedup {speedup:.1}x below the {gate:.0}x gate");
            failed = true;
        }
        drop(restored);

        // 3. A cold load in a `vsfs` workspace, the server's default.
        let t = Instant::now();
        let (vsfs_load, _) =
            solve_program(&source, IncrementalOptions { solver: SolverKind::Vsfs }, None, None)
                .unwrap_or_else(|e| fail(name, "vsfs load", &e.to_string()));
        let load_secs = t.elapsed().as_secs_f64();
        timer.record(&format!("{name}.load.vsfs"), t.elapsed());
        if vsfs_load.fingerprint != cold.fingerprint {
            fail(name, "vsfs load", "fingerprint diverged from cold solve");
        }
        drop(vsfs_load);
        let restore_vs_vsfs = load_secs / restore_secs.max(f64::MIN_POSITIVE);
        timer.count(&format!("{name}.restore_vs_vsfs_load_x100"), (restore_vs_vsfs * 100.0) as u64);
        println!("{name}: vsfs load {load_secs:.3}s; restore {restore_vs_vsfs:.1}x the vsfs load");

        // 4. Request latency through the server dispatch path.
        let value_names: Vec<String> = cold
            .prog
            .values
            .iter()
            .filter(|v| !v.name.is_empty())
            .map(|v| v.name.clone())
            .collect();
        drop(cold);
        let mut server = Server::new();
        let load = format!(
            "{{\"op\":\"load\",\"id\":\"w\",\"source\":{}}}",
            Json::Str(source.clone()).to_line()
        );
        let (resp, _) = server.handle_line(&load);
        if !resp.contains("\"ok\":true") {
            fail(name, "server load", &resp);
        }
        let mut x = MIX_SEED | 1;
        let mut rand = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let pick = |r: &mut dyn FnMut() -> u64| {
            value_names[(r() % value_names.len() as u64) as usize].clone()
        };
        let mut latencies_ns: Vec<u64> = Vec::with_capacity(requests);
        for i in 0..requests {
            let req = match i % 3 {
                0 => format!("{{\"op\":\"pts\",\"id\":\"w\",\"value\":\"%{}\"}}", pick(&mut rand)),
                1 => format!(
                    "{{\"op\":\"alias\",\"id\":\"w\",\"p\":\"%{}\",\"q\":\"%{}\"}}",
                    pick(&mut rand),
                    pick(&mut rand)
                ),
                _ => "{\"op\":\"stats\",\"id\":\"w\"}".to_string(),
            };
            let t = Instant::now();
            let (resp, _) = server.handle_line(&req);
            latencies_ns.push(t.elapsed().as_nanos() as u64);
            if !resp.starts_with("{\"ok\":") {
                fail(name, "query", &resp);
            }
        }
        latencies_ns.sort_unstable();
        let p50 = latencies_ns[latencies_ns.len() / 2];
        let p95 = latencies_ns[(latencies_ns.len() * 95 / 100).min(latencies_ns.len() - 1)];
        timer.count(&format!("{name}.request_p50_ns"), p50);
        timer.count(&format!("{name}.request_p95_ns"), p95);
        println!("{name}: {requests} requests, p50 {p50}ns, p95 {p95}ns");
    }

    // 5. Overload burst: 32 simultaneous connections vs capacity 4.
    let (served, shed) = overload_burst();
    let attempts = served + shed;
    timer.count("overload.attempts", attempts);
    timer.count("overload.served", served);
    timer.count("overload.shed", shed);
    timer.count("overload.shed_rate_x1000", (shed * 1000).checked_div(attempts).unwrap_or(0));
    println!(
        "overload: {served}/{attempts} served, {shed} shed ({:.0}% shed rate)",
        if attempts > 0 { shed as f64 * 100.0 / attempts as f64 } else { 0.0 }
    );

    let _ = std::fs::remove_dir_all(&snap_dir);
    vsfs_bench::format::write_json_report(&out, &timer.to_json());
    if failed {
        std::process::exit(1);
    }
    println!("server gate OK: every restore speedup >= {gate:.0}x");
}

/// Hammers a deliberately tiny server (2 workers, queue depth 2) with
/// 32 simultaneous connections; returns `(served, shed)`.
fn overload_burst() -> (u64, u64) {
    let sock = std::env::temp_dir().join(format!("vsfs-server-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let config = ServerConfig { workers: 2, queue_depth: 2, ..ServerConfig::default() };
    let handle = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let mut server = Server::with_config(config);
            let (resp, _) = server.handle_line(
                r#"{"op":"load","id":"w","source":"func @f() {\nentry:\n  %p = alloc stack A\n  ret\n}\n"}"#,
            );
            assert!(resp.contains("\"ok\":true"), "{resp}");
            server.run_unix(&sock)
        })
    };
    wait_for(&sock);

    let outcomes: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..32)
            .map(|_| {
                scope.spawn(|| {
                    let Ok(stream) = UnixStream::connect(&sock) else { return false };
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let mut writer = match stream.try_clone() {
                        Ok(w) => w,
                        Err(_) => return false,
                    };
                    let mut reader = BufReader::new(stream);
                    // The server may shed before reading the request;
                    // write first, then classify whatever line arrives.
                    let _ = writer.write_all(b"{\"op\":\"pts\",\"id\":\"w\",\"value\":\"%p\"}\n");
                    let _ = writer.flush();
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    line.contains("\"ok\":true")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(false)).collect()
    });
    let served = outcomes.iter().filter(|&&ok| ok).count() as u64;
    let shed = outcomes.len() as u64 - served;

    let closer = UnixStream::connect(&sock);
    if let Ok(stream) = closer {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // Retry until a shutdown gets past the (possibly still busy)
        // admission queue.
        loop {
            let _ = writer.write_all(b"{\"op\":\"shutdown\"}\n");
            let _ = writer.flush();
            if reader.read_line(&mut line).unwrap_or(0) > 0 && line.contains("\"ok\":true") {
                break;
            }
            line.clear();
            match UnixStream::connect(&sock) {
                Ok(s) => {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                    writer = s.try_clone().expect("clone");
                    reader = BufReader::new(s);
                }
                Err(_) => break,
            }
        }
    }
    let _ = handle.join().expect("server thread");
    (served, shed)
}

fn wait_for(sock: &Path) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if UnixStream::connect(sock).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never bound {}", sock.display());
}

fn parse_arg<T: std::str::FromStr>(arg: Option<String>, flag: &str) -> T {
    let v = arg.unwrap_or_else(|| usage());
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid {flag} value `{v}`");
        std::process::exit(2);
    })
}

fn fail(name: &str, stage: &str, err: &str) -> ! {
    eprintln!("FAIL: {name}: {stage}: {err}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!("usage: server_bench [WORKLOAD,WORKLOAD,...] [--requests N] [--gate X] [--out FILE]");
    std::process::exit(2);
}
