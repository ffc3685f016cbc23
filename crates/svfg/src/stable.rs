//! Stable, ID-independent keys for cross-parse correspondence.
//!
//! The incremental solver (DESIGN.md §9) compares two parses of a
//! program — before and after a function-granularity edit. Arena ids
//! (`ValueId`, `ObjId`, `InstId`, `SvfgNodeId`) are assigned in parse
//! order, so an edit renumbers everything downstream of the edited
//! function; raw ids from different parses are incomparable. This module
//! assigns every object, value, instruction, and SVFG node a *stable
//! key*: a hash of purely name- and position-based data that is invariant
//! under renumbering. Two parses agree on the key of an entity iff the
//! entity survived the edit, which is exactly the correspondence the
//! incremental solver needs.
//!
//! Key spaces (all fed through FNV-1a, never a raw arena id):
//!
//! * **objects** — kind tag + owning function name + object name, with an
//!   occurrence index to split same-named allocations; field objects are
//!   `(base key, offset)`; globals and function objects are their names.
//! * **values** — scope (function name, or empty for globals) + value
//!   name (unique within a function under SSA).
//! * **instructions** — function name + position in block-layout order
//!   (`FUNENTRY`/`FUNEXIT`, singletons per function, by name alone).
//! * **SVFG nodes** — side tag (`Inst`/`CallRet`) + instruction key, or
//!   function name + block position + object key for `MEMPHI`s.
//!
//! Hash collisions (or genuinely duplicate names) would silently mispair
//! entities, so every key table is built with a duplicate check; a
//! [`StableKeys`] that saw one reports [`StableKeys::is_unambiguous`] `==
//! false` and the caller falls back to a from-scratch solve — soundness
//! never rests on 64-bit injectivity.

use crate::{Svfg, SvfgNodeId, SvfgNodeKind};
use vsfs_adt::IndexVec;
use vsfs_ir::{InstId, InstKind, ObjId, ObjKind, Program, ValueId};
use vsfs_mssa::{MemorySsa, MssaDef};

/// A map keyed by stable keys. The keys are hashed from program text,
/// which a client chooses, so the map keeps std's randomly keyed SipHash
/// rather than the fixed Fx hash (see `vsfs_adt::fxhash`).
#[allow(clippy::disallowed_types)]
pub type KeyMap<V> = std::collections::HashMap<u64, V>;

/// A set of stable keys, on SipHash for the reason given at [`KeyMap`].
#[allow(clippy::disallowed_types)]
pub type KeySet = std::collections::HashSet<u64>;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one 64-bit word into a running FNV-1a hash.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The SVFG node holding a memory-SSA definition.
pub fn mssa_def_node(svfg: &Svfg, def: MssaDef) -> SvfgNodeId {
    match def {
        MssaDef::Inst(i) => svfg.inst_node(i),
        MssaDef::CallRet(i) => svfg.callret_node(i),
        MssaDef::MemPhi(p) => svfg.memphi_node(p),
    }
}

/// Stable keys for one parse of a program (see the module docs).
#[derive(Debug)]
pub struct StableKeys {
    /// Key of each object.
    pub obj_key: IndexVec<ObjId, u64>,
    /// Key of each value.
    pub value_key: IndexVec<ValueId, u64>,
    /// Key of each instruction.
    pub inst_key: IndexVec<InstId, u64>,
    /// Key of each SVFG node.
    pub node_key: IndexVec<SvfgNodeId, u64>,
    node_of_key: KeyMap<SvfgNodeId>,
    value_of_key: KeyMap<ValueId>,
    obj_of_key: KeyMap<ObjId>,
    ambiguous: bool,
}

impl StableKeys {
    /// Builds the program-side key tables only (objects, values,
    /// instructions), leaving the SVFG node tables empty. Solvers that
    /// never materialize an SVFG (dense, cfg-free) still need stable
    /// result fingerprints — `result_fingerprint` consumes only
    /// value/object/instruction keys — so this constructor gives them
    /// the same cross-parse identity without the staged pipeline.
    pub fn build_program(prog: &Program) -> StableKeys {
        let (obj_key, value_key, inst_key) = Self::program_keys(prog);
        let mut ambiguous = false;
        let mut obj_of_key = KeyMap::with_capacity(obj_key.len());
        for (id, &key) in obj_key.iter_enumerated() {
            ambiguous |= obj_of_key.insert(key, id).is_some();
        }
        let mut value_of_key = KeyMap::with_capacity(value_key.len());
        for (id, &key) in value_key.iter_enumerated() {
            ambiguous |= value_of_key.insert(key, id).is_some();
        }
        StableKeys {
            obj_key,
            value_key,
            inst_key,
            node_key: IndexVec::new(),
            node_of_key: KeyMap::new(),
            value_of_key,
            obj_of_key,
            ambiguous,
        }
    }

    /// Object, value, and instruction key tables for one parse.
    fn program_keys(
        prog: &Program,
    ) -> (IndexVec<ObjId, u64>, IndexVec<ValueId, u64>, IndexVec<InstId, u64>) {
        let fname = |f| fnv1a(prog.functions[f].name.as_bytes());

        // Objects: non-field kinds first (field bases are never fields —
        // the IR collapses field-of-field), then fields over base keys.
        let mut occurrence: KeyMap<u32> = KeyMap::new();
        let mut obj_key: IndexVec<ObjId, u64> = IndexVec::new();
        for (_, obj) in prog.objects.iter_enumerated() {
            let raw = match obj.kind {
                ObjKind::Stack(f) => {
                    mix(mix(fnv1a(b"stack"), fname(f)), fnv1a(obj.name.as_bytes()))
                }
                ObjKind::Heap(f) => mix(mix(fnv1a(b"heap"), fname(f)), fnv1a(obj.name.as_bytes())),
                ObjKind::Global => mix(fnv1a(b"global"), fnv1a(obj.name.as_bytes())),
                ObjKind::Function(f) => mix(fnv1a(b"func"), fname(f)),
                ObjKind::Null => fnv1a(b"null"),
                // Filled in the second pass.
                ObjKind::Field { .. } => 0,
            };
            let key = if let ObjKind::Field { .. } = obj.kind {
                0
            } else {
                let occ = occurrence.entry(raw).or_insert(0);
                let key = mix(raw, *occ as u64);
                *occ += 1;
                key
            };
            obj_key.push(key);
        }
        for (id, obj) in prog.objects.iter_enumerated() {
            if let ObjKind::Field { base, offset } = obj.kind {
                obj_key[id] = mix(mix(fnv1a(b"field"), obj_key[base]), offset as u64);
            }
        }

        // Values: (scope, name), occurrence-disambiguated defensively.
        occurrence.clear();
        let mut value_key: IndexVec<ValueId, u64> = IndexVec::new();
        for (_, v) in prog.values.iter_enumerated() {
            let scope = match v.func {
                Some(f) => fname(f),
                None => fnv1a(b""),
            };
            let raw = mix(mix(fnv1a(b"value"), scope), fnv1a(v.name.as_bytes()));
            let occ = occurrence.entry(raw).or_insert(0);
            value_key.push(mix(raw, *occ as u64));
            *occ += 1;
        }

        // Instructions: function name + block-layout position. The
        // pseudo-instructions FUNENTRY/FUNEXIT are keyed by function name
        // alone — they are singletons per function, and position-keying
        // them would let any body-length change (an appended statement)
        // shift the exit's identity and spuriously re-sign every caller.
        let mut inst_key: IndexVec<InstId, u64> = IndexVec::from_elem_n(0, prog.insts.len());
        for (f, _) in prog.functions.iter_enumerated() {
            for (pos, inst) in prog.func_insts(f).enumerate() {
                inst_key[inst] = match prog.insts[inst].kind {
                    InstKind::FunEntry { .. } => mix(fnv1a(b"inst-entry"), fname(f)),
                    InstKind::FunExit { .. } => mix(fnv1a(b"inst-exit"), fname(f)),
                    _ => mix(mix(fnv1a(b"inst"), fname(f)), pos as u64),
                };
            }
        }

        (obj_key, value_key, inst_key)
    }

    /// Builds the key tables for one (program, memory-SSA, SVFG) triple.
    pub fn build(prog: &Program, mssa: &MemorySsa, svfg: &Svfg) -> StableKeys {
        let (obj_key, value_key, inst_key) = Self::program_keys(prog);
        let mut ambiguous = false;
        let fname = |f| fnv1a(prog.functions[f].name.as_bytes());
        let mut obj_of_key = KeyMap::with_capacity(obj_key.len());
        for (id, &key) in obj_key.iter_enumerated() {
            ambiguous |= obj_of_key.insert(key, id).is_some();
        }
        let mut value_of_key = KeyMap::with_capacity(value_key.len());
        for (id, &key) in value_key.iter_enumerated() {
            ambiguous |= value_of_key.insert(key, id).is_some();
        }
        let mut block_pos: IndexVec<vsfs_ir::BlockId, u64> =
            IndexVec::from_elem_n(0, prog.blocks.len());
        for (_, func) in prog.functions.iter_enumerated() {
            for (pos, &b) in func.blocks.iter().enumerate() {
                block_pos[b] = pos as u64;
            }
        }

        // SVFG nodes.
        let mut node_key: IndexVec<SvfgNodeId, u64> = IndexVec::new();
        for n in svfg.node_ids() {
            let key = match svfg.kind(n) {
                SvfgNodeKind::Inst(i) => mix(fnv1a(b"n-inst"), inst_key[i]),
                SvfgNodeKind::CallRet(i) => mix(fnv1a(b"n-ret"), inst_key[i]),
                SvfgNodeKind::MemPhi(p) => {
                    let phi = &mssa.memphis()[p];
                    mix(
                        mix(mix(fnv1a(b"n-phi"), fname(phi.func)), block_pos[phi.block]),
                        obj_key[phi.obj],
                    )
                }
            };
            node_key.push(key);
        }
        let mut node_of_key = KeyMap::with_capacity(node_key.len());
        for (id, &key) in node_key.iter_enumerated() {
            ambiguous |= node_of_key.insert(key, id).is_some();
        }

        StableKeys {
            obj_key,
            value_key,
            inst_key,
            node_key,
            node_of_key,
            value_of_key,
            obj_of_key,
            ambiguous,
        }
    }

    /// `false` if any key table saw a duplicate (name clash or hash
    /// collision) — lookups are then unreliable and callers must not use
    /// this parse for incremental correspondence.
    pub fn is_unambiguous(&self) -> bool {
        !self.ambiguous
    }

    /// The node with stable key `key`, if any.
    pub fn node_of_key(&self, key: u64) -> Option<SvfgNodeId> {
        self.node_of_key.get(&key).copied()
    }

    /// The value with stable key `key`, if any.
    pub fn value_of_key(&self, key: u64) -> Option<ValueId> {
        self.value_of_key.get(&key).copied()
    }

    /// The object with stable key `key`, if any.
    pub fn obj_of_key(&self, key: u64) -> Option<ObjId> {
        self.obj_of_key.get(&key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = r#"
global @g

func @helper(%p, %q) {
entry:
  %h = alloc heap H
  store %h, %p
  %l = load %q
  ret %l
}

func @main() {
entry:
  %a = alloc stack A
  %b = alloc stack A
  store %a, @g
  %r = call @helper(%a, %b)
  ret
}
"#;

    fn build(src: &str) -> (Program, StableKeys) {
        let prog = vsfs_ir::parse_program(src).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let keys = StableKeys::build(&prog, &mssa, &svfg);
        (prog, keys)
    }

    #[test]
    fn keys_are_unambiguous_and_reparse_stable() {
        let (prog_a, a) = build(PROG);
        let (_, b) = build(PROG);
        assert!(a.is_unambiguous());
        assert_eq!(a.node_key, b.node_key);
        assert_eq!(a.value_key, b.value_key);
        assert_eq!(a.obj_key, b.obj_key);
        // Same-named allocations split by occurrence.
        let allocs: Vec<u64> = prog_a
            .objects
            .iter_enumerated()
            .filter(|(_, o)| o.name == "A")
            .map(|(id, _)| a.obj_key[id])
            .collect();
        assert_eq!(allocs.len(), 2);
        assert_ne!(allocs[0], allocs[1]);
    }

    #[test]
    fn unedited_function_keys_survive_an_edit_elsewhere() {
        let (prog_a, a) = build(PROG);
        // Replace main's body; helper is untouched.
        let edited = PROG.replace("%r = call @helper(%a, %b)", "%r = call @helper(%b, %a)");
        let (prog_b, b) = build(&edited);
        let helper_a = prog_a.function_by_name("helper").unwrap();
        let helper_b = prog_b.function_by_name("helper").unwrap();
        for (ia, ib) in prog_a.func_insts(helper_a).zip(prog_b.func_insts(helper_b)) {
            assert_eq!(a.inst_key[ia], b.inst_key[ib]);
        }
        // Looking up every old key in the new build must not panic;
        // keys from the edited function are allowed to miss.
        for (key, _) in a.node_of_key.iter() {
            let _ = b.node_of_key(*key);
        }
    }

    #[test]
    fn program_only_keys_match_the_staged_build() {
        let (prog, full) = build(PROG);
        let lean = StableKeys::build_program(&prog);
        assert!(lean.is_unambiguous());
        assert_eq!(lean.obj_key, full.obj_key);
        assert_eq!(lean.value_key, full.value_key);
        assert_eq!(lean.inst_key, full.inst_key);
        assert!(lean.node_key.is_empty());
    }

    #[test]
    fn lookup_round_trips() {
        let (_, keys) = build(PROG);
        for (id, &k) in keys.node_key.iter_enumerated() {
            assert_eq!(keys.node_of_key(k), Some(id));
        }
        for (id, &k) in keys.value_key.iter_enumerated() {
            assert_eq!(keys.value_of_key(k), Some(id));
        }
        for (id, &k) in keys.obj_key.iter_enumerated() {
            assert_eq!(keys.obj_of_key(k), Some(id));
        }
    }
}
