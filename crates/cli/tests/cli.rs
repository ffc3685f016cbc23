//! End-to-end tests driving the `vsfs` binary.

use std::process::Command;

fn vsfs(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vsfs")).args(args).output().expect("binary runs")
}

#[test]
fn list_shows_corpus_and_suite() {
    let out = vsfs(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("strong_update"));
    assert!(stdout.contains("hyriseConsole"));
}

#[test]
fn corpus_run_prints_points_to() {
    let out = vsfs(&["--corpus", "strong_update", "--print-pts"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("pt(@main::%before) = {First}"), "{stdout}");
    assert!(stdout.contains("pt(@main::%after) = {Second}"), "{stdout}");
}

#[test]
fn andersen_mode_is_flow_insensitive() {
    let out = vsfs(&["--solver", "ander", "--corpus", "strong_update", "--print-pts"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Flow-insensitive: both loads see both heap objects.
    assert!(stdout.contains("pt(@main::%before) = {First, Second}"), "{stdout}");
}

#[test]
fn sfs_and_vsfs_print_identical_points_to() {
    let a = vsfs(&["--fspta", "--corpus", "fptr_dispatch", "--print-pts", "--print-callgraph"]);
    let b = vsfs(&["--vfspta", "--corpus", "fptr_dispatch", "--print-pts", "--print-callgraph"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout);
}

#[test]
fn file_input_works() {
    let dir = std::env::temp_dir().join("vsfs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.vir");
    std::fs::write(
        &path,
        "func @main() {\nentry:\n  %p = alloc stack A\n  %q = alloc heap H\n  store %q, %p\n  %r = load %p\n  ret\n}\n",
    )
    .unwrap();
    let out = vsfs(&[path.to_str().unwrap(), "--print-pts"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("pt(@main::%r) = {H}"), "{stdout}");
}

#[test]
fn dot_output_is_written() {
    let dir = std::env::temp_dir().join("vsfs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dot = dir.join("out.dot");
    let out = vsfs(&["--corpus", "linked_list", "--dot-svfg", dot.to_str().unwrap()]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&dot).unwrap();
    assert!(text.starts_with("digraph svfg {"));
}

#[test]
fn bad_input_fails_cleanly() {
    let out = vsfs(&["--corpus", "nonesuch"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown corpus program"));
}

#[test]
fn workload_input_analyzes_end_to_end() {
    let out = vsfs(&["--workload", "du", "--stats", "--precision-report"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("precision vs Andersen:"), "{stdout}");
    assert!(stdout.contains("main phase:"), "{stdout}");
}

#[test]
fn sfs_flag_runs_the_baseline() {
    let out = vsfs(&["--fspta", "--corpus", "flow_order", "--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // No versioning line for the baseline.
    assert!(!stdout.contains("versioning:"), "{stdout}");
}

#[test]
fn generous_budget_completes_with_exit_zero() {
    let out = vsfs(&["--corpus", "strong_update", "--step-budget", "1000000", "--print-pts"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Budget never trips: still the exact flow-sensitive result...
    assert!(stdout.contains("pt(@main::%before) = {First}"), "{stdout}");
    // ...plus the completion record.
    assert!(stdout.contains(r#"{"completion":"complete","mode":"flow-sensitive"}"#), "{stdout}");
}

#[test]
fn stats_print_under_a_generous_budget() {
    // Governed and plain runs share one path, so --stats reports the
    // solve whether or not a budget is set.
    let out = vsfs(&["--workload", "du", "--stats", "--step-budget", "100000000"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("main phase:"), "{stdout}");
    assert!(stdout.contains(r#"{"completion":"complete","mode":"flow-sensitive"}"#), "{stdout}");
}

#[test]
fn exhausted_step_budget_degrades_to_andersen_with_exit_two() {
    let out = vsfs(&["--corpus", "strong_update", "--step-budget", "1", "--print-pts"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Fallback output is the flow-insensitive over-approximation.
    assert!(stdout.contains("pt(@main::%before) = {First, Second}"), "{stdout}");
    assert!(stdout.contains(r#""completion":"degraded""#), "{stdout}");
    assert!(stdout.contains(r#""mode":"flow-insensitive-fallback""#), "{stdout}");
    assert!(stdout.contains(r#""reason":"step-budget""#), "{stdout}");
}

#[test]
fn injected_panic_degrades_identically_across_jobs() {
    let outs: Vec<_> = ["1", "2", "8"]
        .iter()
        .map(|jobs| {
            vsfs(&[
                "--workload",
                "ninja",
                "--jobs",
                jobs,
                "--inject-fault",
                "panic:1",
                "--print-pts",
            ])
        })
        .collect();
    for out in &outs {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(r#""reason":"worker-panic""#), "{stdout}");
    }
    assert_eq!(outs[0].stdout, outs[1].stdout);
    assert_eq!(outs[0].stdout, outs[2].stdout);
}

#[test]
fn injected_deadline_and_mem_cap_fire_at_checkpoints() {
    for (kind, reason) in [("deadline", "deadline"), ("mem-cap", "mem-budget")] {
        let out = vsfs(&["--workload", "ninja", "--inject-fault", &format!("{kind}:2")]);
        assert_eq!(out.status.code(), Some(2), "{kind}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!(r#""reason":"{reason}""#)), "{kind}: {stdout}");
    }
}

#[test]
fn bad_budget_flags_are_typed_errors_with_exit_one() {
    for args in [
        &["--corpus", "strong_update", "--step-budget", "abc"][..],
        &["--corpus", "strong_update", "--time-budget", "-1"][..],
        &["--corpus", "strong_update", "--mem-budget"][..],
        &["--corpus", "strong_update", "--inject-fault", "frobnicate:1"][..],
    ] {
        let out = vsfs(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    }
}

#[test]
fn parse_errors_report_every_diagnostic_with_position() {
    let dir = std::env::temp_dir().join("vsfs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.vir");
    std::fs::write(
        &path,
        "func @a() {\nentry:\n  frobnicate\n  ret\n}\n\
         func @b() {\nentry:\n  %x = load %nope\n  ret\n}\n",
    )
    .unwrap();
    let out = vsfs(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3:"), "{stderr}");
    assert!(stderr.contains("unknown instruction"), "{stderr}");
    assert!(stderr.contains("line 8:"), "{stderr}");
    assert!(stderr.contains("undefined value"), "{stderr}");
}

#[test]
fn tight_wall_clock_deadline_degrades_not_errors() {
    // A zero-second deadline trips at the first checkpoint it reaches.
    // Whichever stage that is, a sound coarser rung exists — the
    // Andersen fallback if the flow-sensitive stage tripped, the
    // unification tier if the auxiliary stage itself did — so the exit
    // code is always 2, never a hard error, a hang, or a crash.
    let out = vsfs(&["--corpus", "strong_update", "--time-budget", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(r#""completion":"degraded""#), "{stdout}");
    assert!(
        stdout.contains(r#""mode":"flow-insensitive-fallback""#)
            || stdout.contains(r#""mode":"unification-fallback""#),
        "{stdout}"
    );
}

#[test]
fn stats_report_scheduling_counters() {
    let out = vsfs(&["--workload", "du", "--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("slot pops:"), "{stdout}");
    assert!(stdout.contains("pushes suppressed:"), "{stdout}");
    assert!(stdout.contains("unions avoided:"), "{stdout}");
    assert!(stdout.contains("delta bytes:"), "{stdout}");
}

#[test]
fn unify_solver_prints_a_sound_coarse_result() {
    let out = vsfs(&["--solver", "unify", "--corpus", "strong_update", "--print-pts"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Coarsest tier: both loads see both heap objects — a superset of
    // the flow-sensitive {First} / {Second}.
    for v in ["%before", "%after"] {
        let line = stdout
            .lines()
            .find(|l| l.contains(&format!("::{v})")))
            .unwrap_or_else(|| panic!("no pt line for {v}: {stdout}"));
        assert!(line.contains("First") && line.contains("Second"), "{line}");
    }
}

#[test]
fn unknown_solver_and_pre_values_share_the_typed_error_shape() {
    let out = vsfs(&["--solver", "bogus", "--corpus", "strong_update"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value `bogus` for --solver"), "{stderr}");
    assert!(stderr.contains("`unify`"), "{stderr}");

    // The removed `--pre`, `--scc-memo`, `--order` and `--ander` flags
    // are unknown flags now: exit 1 with the usage line, which no longer
    // names them.
    let removed: [&[&str]; 4] =
        [&["--pre", "unify"], &["--scc-memo", "off"], &["--order", "topo"], &["--ander"]];
    for flags in removed {
        let out = vsfs(&[flags, &["--corpus", "strong_update"]].concat());
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: vsfs"), "{stderr}");
        assert!(!stderr.contains(&format!("[{} ", flags[0])), "{stderr}");
        assert!(!stderr.contains(&format!("[{}]", flags[0])), "{stderr}");
    }
    let out = vsfs(&["serve", "--order", "fifo"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown serve flag '--order'"), "{stderr}");
}

#[test]
fn cold_only_solvers_never_stage_the_graphs() {
    // `SolverKind::is_staged` dispatch, observed end to end through
    // --stats: the staged solvers report the memory-SSA/SVFG build, the
    // cold-only ones must never construct either.
    for solver in ["dense", "cfgfree", "unify"] {
        let out = vsfs(&["--solver", solver, "--workload", "du", "--stats"]);
        assert!(out.status.success(), "{solver}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(!stdout.contains("mssa + svfg"), "{solver} staged a graph: {stdout}");
        assert!(!stdout.contains("svfg:"), "{solver} staged a graph: {stdout}");
    }
    for solver in ["sfs", "vsfs"] {
        let out = vsfs(&["--solver", solver, "--workload", "du", "--stats"]);
        assert!(out.status.success(), "{solver}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("mssa + svfg"), "{solver} must stage: {stdout}");
        assert!(stdout.contains("svfg:"), "{solver} must stage: {stdout}");
    }
}

#[test]
fn exhausted_aux_budget_degrades_to_the_unification_tier_with_exit_two() {
    // A zero memory budget trips the auxiliary stage at its first
    // checkpoint. Rung 3 of the ladder: instead of the old hard error,
    // the run degrades to the ungoverned unification tier and still
    // prints sound points-to output.
    let out = vsfs(&["--corpus", "strong_update", "--mem-budget", "0", "--print-pts"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(r#""completion":"degraded""#), "{stdout}");
    assert!(stdout.contains(r#""mode":"unification-fallback""#), "{stdout}");
    assert!(stdout.contains(r#""stage":"andersen""#), "{stdout}");
    let line = stdout
        .lines()
        .find(|l| l.contains("::%before)"))
        .unwrap_or_else(|| panic!("no pt line: {stdout}"));
    assert!(line.contains("First") && line.contains("Second"), "{line}");
}

#[test]
fn check_summary_reports_all_four_tiers() {
    let out = vsfs(&["--check", "--corpus", "strong_update"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for checker in ["use-after-free", "double-free", "leak", "null-deref"] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("check-summary: {checker}:")))
            .unwrap_or_else(|| panic!("no summary for {checker}: {stdout}"));
        for tier in ["steensgaard=", "unify=", "andersen=", "flow-sensitive=", "fp-removed="] {
            assert!(line.contains(tier), "{line}");
        }
        // fp-removed stays the trailing field — the CI gate greps on it.
        let last = line.rsplit(' ').next().unwrap();
        assert!(last.starts_with("fp-removed="), "{line}");
    }
}
