//! Golden structural digests of the staged front: the memory SSA and the
//! SVFG, on the suite's `du`, `ninja` and `bake` and on every program of
//! the checker corpus.
//!
//! The digests cover every µ, χ and MEMPHI operand in order, and every
//! SVFG node's direct successors, grouped indirect successors and
//! predecessors (with their interned set ids and label sets), δ flags and
//! call bindings. Any change to how either structure is built must keep
//! them node for node, edge for edge and set id for set id.

use vsfs::prelude::*;
use vsfs_mssa::{MemorySsa, MssaDef};
use vsfs_svfg::{Svfg, SvfgNodeKind};
use vsfs_workloads::gen::generate;

/// FNV-1a over a stream of `u32` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_len(&mut self, n: usize) {
        self.eat(u32::try_from(n).expect("length fits u32"));
    }

    fn eat_def(&mut self, d: MssaDef) {
        match d {
            MssaDef::Inst(i) => {
                self.eat(0);
                self.eat(i.raw());
            }
            MssaDef::CallRet(i) => {
                self.eat(1);
                self.eat(i.raw());
            }
            MssaDef::MemPhi(p) => {
                self.eat(2);
                self.eat(p.raw());
            }
        }
    }
}

fn mssa_digest(prog: &Program, mssa: &MemorySsa) -> u64 {
    let mut h = Digest::new();
    for (i, _) in prog.insts.iter_enumerated() {
        h.eat_len(mssa.mus(i).len());
        for mu in mssa.mus(i) {
            h.eat(mu.obj.raw());
            h.eat_def(mu.def);
        }
        h.eat_len(mssa.chis(i).len());
        for chi in mssa.chis(i) {
            h.eat(chi.obj.raw());
            match chi.prev {
                Some(d) => h.eat_def(d),
                None => h.eat(u32::MAX),
            }
        }
    }
    h.eat_len(mssa.memphis().len());
    for phi in mssa.memphis().iter() {
        h.eat(phi.func.raw());
        h.eat(phi.block.raw());
        h.eat(phi.obj.raw());
        h.eat_len(phi.incoming.len());
        for &d in &phi.incoming {
            h.eat_def(d);
        }
    }
    h.0
}

fn svfg_digest(svfg: &Svfg) -> u64 {
    let mut h = Digest::new();
    h.eat_len(svfg.node_count());
    h.eat_len(svfg.direct_edge_count());
    h.eat_len(svfg.indirect_edge_count());
    h.eat_len(svfg.obj_set_count());
    for n in svfg.node_ids() {
        match svfg.kind(n) {
            SvfgNodeKind::Inst(i) => {
                h.eat(0);
                h.eat(i.raw());
            }
            SvfgNodeKind::CallRet(i) => {
                h.eat(1);
                h.eat(i.raw());
            }
            SvfgNodeKind::MemPhi(p) => {
                h.eat(2);
                h.eat(p.raw());
            }
        }
        h.eat(u32::from(svfg.is_delta(n)));
        h.eat_len(svfg.direct_succs(n).len());
        for &s in svfg.direct_succs(n) {
            h.eat(s.raw());
        }
        for grouped in [svfg.indirect_succs(n), svfg.indirect_preds(n)] {
            h.eat_len(grouped.len());
            for &(m, set) in grouped {
                h.eat(m.raw());
                h.eat(set.raw());
                let objs = svfg.obj_set(set);
                h.eat_len(objs.len());
                objs.iter().for_each(|o| h.eat(o.raw()));
            }
        }
    }
    let mut bindings: Vec<_> = svfg.call_bindings().collect();
    bindings.sort_unstable_by_key(|(&k, _)| k);
    h.eat_len(bindings.len());
    for (&(call, callee), b) in bindings {
        h.eat(call.raw());
        h.eat(callee.raw());
        for objs in [&b.ins, &b.outs] {
            h.eat_len(objs.len());
            objs.iter().for_each(|o| h.eat(o.raw()));
        }
    }
    h.0
}

fn digests(prog: &Program) -> (u64, u64) {
    let aux = andersen::analyze(prog);
    let mssa = MemorySsa::build(prog, &aux);
    let svfg = Svfg::build(prog, &aux, &mssa);
    (mssa_digest(prog, &mssa), svfg_digest(&svfg))
}

/// `(program, memory SSA digest, SVFG digest)`.
const GOLDEN: [(&str, u64, u64); 16] = [
    ("du", 0xd0a1_a348_7fe9_192c, 0x4fbb_4057_06d9_e6ce),
    ("ninja", 0x1d1d_928f_8843_1497, 0x7bf5_f180_8fbb_9338),
    ("bake", 0xac11_9e1c_6c16_7bb2, 0x8e77_61a9_a4f2_69bd),
    ("double_free", 0x1ba1_7d7b_f2e5_8a62, 0x53c5_81ad_c01c_2125),
    ("double_free_branch_clean", 0x981b_9fd5_3470_cb31, 0x9555_bc47_68c8_0441),
    ("free_via_alias", 0x727c_60f1_d5b3_9dc8, 0xb1a0_17be_1dfc_a958),
    ("leak_branch", 0x5c02_bd2c_1c48_f7c3, 0x2f52_3d55_2cd8_74a2),
    ("leak_clean", 0x0a2f_5e38_1b89_5049, 0xe1c6_7fb3_2d5a_dc7f),
    ("leak_simple", 0x9642_bdf9_e5d3_c191, 0x28f1_56e8_59ae_3b81),
    ("null_deref", 0x9642_bdf9_e5d3_c191, 0x28f1_56e8_59ae_3b81),
    ("null_deref_guarded", 0x1d7d_e938_ae73_8131, 0x1734_6a5e_2eed_f9e0),
    ("uaf_clean", 0x1668_20f2_9441_160d, 0xfaf7_c8d4_11f3_b03d),
    ("uaf_interproc", 0x156c_5bb3_06b2_cf6e, 0xf4bc_5c0f_123a_6466),
    ("uaf_loop", 0x0229_f191_1308_0659, 0xc6b9_c664_1d51_20db),
    ("uaf_simple", 0xdf48_69b5_f6cf_8269, 0x9cf9_711e_6b5b_9239),
    ("uaf_strong_update", 0x8473_9163_48a3_7f8a, 0xaa6e_2d2c_a9ad_1da3),
];

fn program(name: &str) -> Program {
    if let Some(spec) = vsfs_workloads::suite::benchmark(name) {
        return generate(&spec.config);
    }
    let path = format!("{}/workloads/checkers/{name}.vir", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    vsfs_ir::parse_program(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn front_digests_are_pinned() {
    let corpus = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/checkers"))
        .expect("checker corpus")
        .filter_map(|e| {
            let path = e.expect("corpus entry").path();
            let stem = path.file_stem()?.to_str()?.to_string();
            (path.extension()? == "vir").then_some(stem)
        })
        .filter(|stem| !GOLDEN.iter().any(|&(name, _, _)| name == stem))
        .collect::<Vec<_>>();
    assert!(corpus.is_empty(), "corpus programs without a pinned digest: {corpus:?}");

    let mut wrong = Vec::new();
    for (name, want_mssa, want_svfg) in GOLDEN {
        let got = digests(&program(name));
        if got != (want_mssa, want_svfg) {
            wrong.push(format!("(\"{name}\", {:#018x}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(wrong.is_empty(), "front digests changed:\n{}", wrong.join("\n"));
}
