//! Seeded protocol fuzzing for the analysis server (DESIGN.md §12).
//!
//! [`ProtocolFuzzer`] turns one SplitMix64 seed into a deterministic
//! session of hostile request lines: malformed JSON, truncated
//! requests, oversized lines, interleaved objects, raw binary garbage,
//! and — crucially — a sprinkling of *well-formed* requests, so a
//! session exercises the parser's recovery path, not just its rejection
//! path. The generator knows nothing about the server (the dependency
//! points the other way); drivers feed the lines to `handle_line`, a
//! spawned stdio process, or a Unix socket and assert the invariants:
//!
//! * the process never dies — every line gets exactly one response;
//! * every failure response carries a code from the server's closed
//!   error taxonomy;
//! * the same seed produces byte-identical sessions everywhere.
//!
//! Lines never contain `\n` (the protocol's framing byte): the fuzzer
//! probes what a line *contains*, the transports already decide what a
//! line *is*.

use crate::rng::Rng;

/// What a generated line is trying to provoke. Carried alongside the
/// bytes so failing drivers can report the category, and so tests can
/// assert a session covers all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// A well-formed request (valid JSON, plausible op) — keeps the
    /// session exercising real dispatch between attacks.
    Valid,
    /// Valid JSON with fields of the wrong type (`"op": 7`, ids that
    /// are arrays, budgets that are strings…).
    WrongTypes,
    /// A well-formed request cut off mid-byte.
    Truncated,
    /// Raw ASCII/binary garbage.
    Garbage,
    /// A line engineered to exceed the transport cap.
    Oversized,
    /// Several complete JSON objects interleaved on one line.
    Interleaved,
    /// Empty or all-whitespace lines.
    Whitespace,
    /// Deeply nested / pathological but parseable JSON shapes.
    Pathological,
}

/// All kinds, in generation-weight order.
pub const ALL_KINDS: &[CaseKind] = &[
    CaseKind::Valid,
    CaseKind::WrongTypes,
    CaseKind::Truncated,
    CaseKind::Garbage,
    CaseKind::Oversized,
    CaseKind::Interleaved,
    CaseKind::Whitespace,
    CaseKind::Pathological,
];

/// One generated request line (framing newline *not* included).
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The raw line bytes; never contains `\n`.
    pub line: Vec<u8>,
    /// The category that produced it.
    pub kind: CaseKind,
}

/// Deterministic generator of hostile protocol sessions.
pub struct ProtocolFuzzer {
    rng: Rng,
    /// Target length for [`CaseKind::Oversized`] lines: a little past
    /// the transport cap under test.
    oversize_to: usize,
}

impl ProtocolFuzzer {
    /// A fuzzer whose oversized lines exceed `max_line_bytes`.
    pub fn new(seed: u64, max_line_bytes: usize) -> ProtocolFuzzer {
        ProtocolFuzzer {
            rng: Rng::seed_from_u64(seed ^ 0x70726f_746f636f), // "protoco"
            oversize_to: max_line_bytes.saturating_add(64),
        }
    }

    /// A full session of `n` lines.
    pub fn session(&mut self, n: usize) -> Vec<FuzzCase> {
        (0..n).map(|_| self.next_case()).collect()
    }

    /// The next line of the session.
    pub fn next_case(&mut self) -> FuzzCase {
        let kind = match self.rng.gen_range(0..100u32) {
            0..=29 => CaseKind::Valid,
            30..=44 => CaseKind::WrongTypes,
            45..=59 => CaseKind::Truncated,
            60..=74 => CaseKind::Garbage,
            75..=79 => CaseKind::Oversized,
            80..=89 => CaseKind::Interleaved,
            90..=94 => CaseKind::Whitespace,
            _ => CaseKind::Pathological,
        };
        let mut line = match kind {
            CaseKind::Valid => self.valid_request(),
            CaseKind::WrongTypes => self.wrong_types(),
            CaseKind::Truncated => {
                let full = self.valid_request();
                let cut = self.rng.gen_range(0..full.len().max(1));
                full[..cut].to_vec()
            }
            CaseKind::Garbage => self.garbage(),
            CaseKind::Oversized => self.oversized(),
            CaseKind::Interleaved => self.interleaved(),
            CaseKind::Whitespace => {
                let n = self.rng.gen_range(0..5usize);
                vec![b' '; n]
            }
            CaseKind::Pathological => self.pathological(),
        };
        line.retain(|&b| b != b'\n');
        FuzzCase { line, kind }
    }

    /// One of the real ops with plausible fields. Ids are drawn from a
    /// tiny pool so sessions hit both loaded and unknown programs.
    fn valid_request(&mut self) -> Vec<u8> {
        let id = ["fz0", "fz1", "nope"][self.rng.gen_range(0..3usize)];
        let req = match self.rng.gen_range(0..8u32) {
            0 => r#"{"op":"ping"}"#.to_string(),
            1 => {
                // Sometimes pick a resident solver: every real name
                // (the server accepts all five), plus names the closed
                // error taxonomy must reject as `bad_request` — among
                // them `steensgaard`, a tier name that is *not* a
                // solver name, and case-mangled variants.
                let solver = [
                    "",
                    r#","solver":"dense""#,
                    r#","solver":"sfs""#,
                    r#","solver":"vsfs""#,
                    r#","solver":"cfgfree""#,
                    r#","solver":"unify""#,
                    r#","solver":"ander""#,
                    r#","solver":"steensgaard""#,
                    r#","solver":"CFGFREE""#,
                    r#","solver":"UNIFY""#,
                    r#","solver":"""#,
                ][self.rng.gen_range(0..11usize)];
                format!(
                    r#"{{"op":"load","id":"{id}","source":"func @f() {{\nentry:\n  %p = alloc stack A\n  ret\n}}\n"{solver}}}"#
                )
            }
            2 => format!(r#"{{"op":"pts","id":"{id}","value":"%p"}}"#),
            3 => format!(r#"{{"op":"alias","id":"{id}","p":"%p","q":"%p"}}"#),
            4 => format!(r#"{{"op":"stats","id":"{id}"}}"#),
            5 => r#"{"op":"stats"}"#.to_string(),
            6 => {
                // Edits may carry a solver switch too — valid, invalid,
                // and the bare form all exercise the same parse path.
                let solver = ["", r#","solver":"unify""#, r#","solver":"Unify""#]
                    [self.rng.gen_range(0..3usize)];
                format!(r#"{{"op":"edit","id":"{id}","delta":[]{solver}}}"#)
            }
            _ => format!(r#"{{"op":"check","id":"{id}"}}"#),
        };
        req.into_bytes()
    }

    fn wrong_types(&mut self) -> Vec<u8> {
        let pick = self.rng.gen_range(0..10u32);
        let req = match pick {
            8 => r#"{"op":"load","id":"x","source":"func @f(){}","solver":7}"#.to_string(),
            9 => r#"{"op":"edit","id":"x","delta":[],"solver":["unify"]}"#.to_string(),
            0 => r#"{"op":7}"#.to_string(),
            1 => r#"{"op":null}"#.to_string(),
            2 => r#"{"op":["ping"]}"#.to_string(),
            3 => r#"{"op":"pts","id":42,"value":true}"#.to_string(),
            4 => r#"{"op":"load","id":"x","source":12345}"#.to_string(),
            5 => r#"{"op":"edit","id":"x","delta":{"not":"an array"}}"#.to_string(),
            6 => {
                r#"{"op":"load","id":"x","source":"func @f(){}","time_budget":"soon"}"#.to_string()
            }
            _ => format!(r#"{{"op":"pts","id":"x","value":{}}}"#, self.rng.next_u64()),
        };
        req.into_bytes()
    }

    fn garbage(&mut self) -> Vec<u8> {
        let len = self.rng.gen_range(1..64usize);
        let binary = self.rng.gen_bool(0.5);
        (0..len)
            .map(|_| {
                if binary {
                    self.rng.gen_range(0..256u32) as u8
                } else {
                    // Printable ASCII, brace- and quote-heavy.
                    const ALPHABET: &[u8] = br#"{}[]",:ping load\x"#;
                    ALPHABET[self.rng.gen_range(0..ALPHABET.len())]
                }
            })
            .collect()
    }

    fn oversized(&mut self) -> Vec<u8> {
        let mut line = r#"{"op":"ping","pad":""#.as_bytes().to_vec();
        line.resize(self.oversize_to, b'x');
        line.extend_from_slice(b"\"}");
        line
    }

    fn interleaved(&mut self) -> Vec<u8> {
        let k = self.rng.gen_range(2..5usize);
        let mut line = Vec::new();
        for i in 0..k {
            if i > 0 && self.rng.gen_bool(0.5) {
                line.push(b' ');
            }
            line.extend_from_slice(&self.valid_request());
        }
        line
    }

    fn pathological(&mut self) -> Vec<u8> {
        match self.rng.gen_range(0..5u32) {
            0 => {
                // Deep nesting.
                let depth = self.rng.gen_range(8..64usize);
                let mut s = String::new();
                for _ in 0..depth {
                    s.push_str("{\"a\":");
                }
                s.push('1');
                for _ in 0..depth {
                    s.push('}');
                }
                s.into_bytes()
            }
            1 => br#"{"op":"ping","n":1e309}"#.to_vec(),
            2 => r#"{"op":"ping","s":"\udead뻯"}"#.as_bytes().to_vec(),
            3 => br#"{"op":"ping","unterminated":"..."#.to_vec(),
            _ => {
                // Duplicate keys, the last one hostile.
                br#"{"op":"ping","op":"shutdown_not_really","op":[1,2]}"#.to_vec()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_adt::FxHashSet;

    #[test]
    fn sessions_are_deterministic_per_seed() {
        let a: Vec<_> = ProtocolFuzzer::new(7, 1024).session(200);
        let b: Vec<_> = ProtocolFuzzer::new(7, 1024).session(200);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.line, y.line);
        }
        let c: Vec<_> = ProtocolFuzzer::new(8, 1024).session(200);
        assert!(a.iter().zip(&c).any(|(x, y)| x.line != y.line), "different seeds should differ");
    }

    #[test]
    fn lines_never_contain_framing_bytes() {
        let mut f = ProtocolFuzzer::new(99, 512);
        for case in f.session(500) {
            assert!(!case.line.contains(&b'\n'), "{:?}", case.kind);
        }
    }

    #[test]
    fn long_sessions_cover_every_kind() {
        let mut f = ProtocolFuzzer::new(3, 512);
        let kinds: FxHashSet<_> = f.session(400).into_iter().map(|c| c.kind).collect();
        for k in ALL_KINDS {
            assert!(kinds.contains(k), "kind {k:?} never generated");
        }
    }

    #[test]
    fn oversized_cases_exceed_the_cap() {
        let mut f = ProtocolFuzzer::new(5, 256);
        let over: Vec<_> =
            f.session(300).into_iter().filter(|c| c.kind == CaseKind::Oversized).collect();
        assert!(!over.is_empty());
        assert!(over.iter().all(|c| c.line.len() > 256));
    }

    #[test]
    fn no_fuzz_case_is_a_shutdown() {
        // A fuzz session must never stop the server under test: the
        // only op that stops it is `shutdown`, which the generator
        // never emits. (The server's JSON keeps the *first* duplicate
        // key, so the duplicate-key case dispatches as `ping`.)
        let mut f = ProtocolFuzzer::new(11, 512);
        for case in f.session(1000) {
            let text = String::from_utf8_lossy(&case.line);
            assert_ne!(text.trim(), r#"{"op":"shutdown"}"#);
        }
    }
}
