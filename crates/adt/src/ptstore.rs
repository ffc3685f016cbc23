//! Hash-consed points-to sets with a hierarchical shared-chunk
//! representation and memoized set algebra — the data level of the
//! multi-level deduplication engine (DESIGN.md §15).
//!
//! The MDE line of work (PAPERS.md) observes that a flow-sensitive
//! pointer analysis is dominated by *repetition*: most `(node, object)`
//! slots hold one of a few distinct sets, the same unions recur millions
//! of times, and near-identical large sets differ in a handful of
//! elements. This module deduplicates all three levels of that
//! repetition:
//!
//! * every distinct points-to set is *interned* once and referred to by a
//!   dense [`PtsId`] — equality and assignment become `u32` compares;
//! * each set is stored as a *spine* of fixed-width chunk handles
//!   (one chunk = one aligned 128-bit block), and the chunks themselves
//!   are interned in a shared chunk store — two large sets that differ in
//!   one chunk share the storage for all the others;
//! * the algebra over ids (`union`, `insert`, `subtract`, `intersect`)
//!   is memoized on id pairs, and the miss path operates chunk-wise:
//!   equal chunk handles short-circuit without touching bit data, and
//!   chunk-level unions are memoized on handle pairs.
//!
//! [`PtsStore::union_would_change`] answers the solvers' hottest
//! question — "would propagating `b` into `a` grow it?" — without
//! materialising the union.
//!
//! Ids are assigned in first-intern order, so any solver that performs
//! store operations in a deterministic order gets deterministic ids.
//!
//! # Examples
//!
//! ```
//! use vsfs_adt::{define_index, PtsStore, PointsToSet};
//!
//! define_index!(ObjId, "o");
//! let mut store = PtsStore::<ObjId>::new();
//! let a = store.insert(PtsStore::<ObjId>::EMPTY, ObjId::new(1));
//! let b = store.insert(PtsStore::<ObjId>::EMPTY, ObjId::new(2));
//! let ab = store.union(a, b);
//! assert_eq!(store.union(b, a), ab);          // memoized, order-insensitive
//! assert_eq!(store.union(ab, a), ab);         // absorption
//! assert!(!store.union_would_change(ab, b));  // subset: no growth
//! assert_eq!(store.set_len(ab), 2);
//! assert!(store.contains(ab, ObjId::new(1)));
//! ```

use crate::fxhash::FxHashMap;
use crate::index::Idx;
use crate::PointsToSet;
use std::marker::PhantomData;

crate::define_index!(
    /// A dense handle to an interned canonical points-to set.
    ///
    /// `PtsId(0)` is always the empty set ([`PtsStore::EMPTY`]).
    PtsId,
    "ps"
);

/// Bits covered by one chunk (one aligned sparse-bit-vector block).
const CHUNK_BITS: u32 = 128;
/// Physical bytes of one chunk in the flat representation: a 4-byte base
/// plus two 8-byte words, padded to 24 (`sbv::Block` layout).
const CHUNK_FLAT_BYTES: usize = 24;

/// One interned chunk: an aligned 128-bit block of the element space.
type Chunk = (u32, [u64; 2]);

/// A handle into the shared chunk store.
type ChunkId = u32;

/// Counters describing a [`PtsStore`]'s effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PtsStoreStats {
    /// Distinct canonical sets interned (including the empty set).
    pub unique_sets: usize,
    /// Heap bytes of the chunked payload: spine handles plus the shared
    /// chunk data (the dedup'd footprint the flat bytes compare against).
    pub unique_set_bytes: usize,
    /// Heap bytes the same canonical sets would occupy flat, one private
    /// 24-byte block per chunk instance (the pre-chunking footprint).
    pub flat_equiv_bytes: usize,
    /// Distinct chunks interned in the shared chunk store.
    pub unique_chunks: usize,
    /// Heap bytes of the shared chunk data alone.
    pub chunk_bytes: usize,
    /// Chunk-level unions answered without touching bit data: equal
    /// handles short-circuited or the chunk memo hit.
    pub chunk_union_hits: usize,
    /// Chunk-level unions that had to OR two chunks' words.
    pub chunk_union_misses: usize,
    /// `union` calls answered by an algebraic shortcut (`a ∪ a`,
    /// `a ∪ ∅`) without touching the memo or any set data.
    pub union_shortcuts: usize,
    /// `union` calls answered by the memo table.
    pub union_hits: usize,
    /// `union` calls that had to consult set data (subset test or a
    /// fresh union) — the memo misses.
    pub union_misses: usize,
    /// `insert` calls answered by the memo table or a containment check.
    pub insert_hits: usize,
    /// `insert` calls that materialised a new set.
    pub insert_misses: usize,
    /// `union_would_change` calls answered without touching set data
    /// (shortcut or memo).
    pub would_change_fast: usize,
    /// `union_would_change` calls that fell back to a subset test.
    pub would_change_slow: usize,
    /// `diff`/`subtract` calls answered by a shortcut or the memo table.
    pub diff_hits: usize,
    /// `diff`/`subtract` calls that had to consult set data.
    pub diff_misses: usize,
}

impl PtsStoreStats {
    /// Fraction of non-shortcut `union` calls served by the memo.
    pub fn union_hit_rate(&self) -> f64 {
        let total = self.union_hits + self.union_misses;
        if total == 0 {
            0.0
        } else {
            self.union_hits as f64 / total as f64
        }
    }

    /// Fraction of the flat footprint saved by the chunked
    /// representation: `1 - unique_set_bytes / flat_equiv_bytes`.
    pub fn payload_reduction(&self) -> f64 {
        if self.flat_equiv_bytes == 0 {
            0.0
        } else {
            1.0 - self.unique_set_bytes as f64 / self.flat_equiv_bytes as f64
        }
    }
}

/// Interns canonical points-to sets behind a shared chunk store and
/// memoizes the algebra over them.
///
/// One store is shared by every stage of a solver run: identical sets
/// across Andersen's `pts`/`prop`, SFS `IN`/`OUT` entries, VSFS version
/// slots, and top-level variables are stored once — and sets that are
/// merely *similar* share their common chunks.
#[derive(Debug, Clone, Default)]
pub struct PtsStore<I: Idx> {
    /// Interned chunk data, indexed by [`ChunkId`].
    chunks: Vec<Chunk>,
    chunk_ids: FxHashMap<Chunk, ChunkId>,
    /// Chunk-level union memo on unordered handle pairs (same base).
    chunk_union_memo: FxHashMap<(ChunkId, ChunkId), ChunkId>,
    /// Spine arena: each set's chunk handles, ascending by chunk base.
    spine_arena: Vec<ChunkId>,
    /// Per-set `(arena start, chunk count)`, indexed by [`PtsId`].
    sets: Vec<(u32, u32)>,
    /// Interning map from spine content to id.
    ids: FxHashMap<Box<[ChunkId]>, PtsId>,
    union_memo: FxHashMap<(PtsId, PtsId), PtsId>,
    insert_memo: FxHashMap<(PtsId, u32), PtsId>,
    diff_memo: FxHashMap<(PtsId, PtsId), PtsId>,
    intersect_memo: FxHashMap<(PtsId, PtsId), PtsId>,
    stats: PtsStoreStats,
    epoch: u64,
    _marker: PhantomData<I>,
}

impl<I: Idx> PtsStore<I> {
    /// The id of the empty set.
    pub const EMPTY: PtsId = PtsId::new(0);

    /// Creates a store pre-seeded with the empty set at id 0.
    pub fn new() -> Self {
        let mut s = PtsStore {
            chunks: Vec::new(),
            chunk_ids: FxHashMap::default(),
            chunk_union_memo: FxHashMap::default(),
            spine_arena: Vec::new(),
            sets: Vec::new(),
            ids: FxHashMap::default(),
            union_memo: FxHashMap::default(),
            insert_memo: FxHashMap::default(),
            diff_memo: FxHashMap::default(),
            intersect_memo: FxHashMap::default(),
            stats: PtsStoreStats::default(),
            epoch: 0,
            _marker: PhantomData,
        };
        let e = s.intern_spine(&[]);
        debug_assert_eq!(e, Self::EMPTY);
        s
    }

    /// The store's carry generation (0 for a fresh store).
    ///
    /// An incremental solver does not mutate a resident store in place:
    /// after an edit it starts from [`PtsStore::next_epoch`] and carries
    /// the surviving sets over with a [`PtsCarry`], so sets reachable only
    /// from invalidated state are dropped wholesale rather than leaked
    /// across requests.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// An empty successor store whose epoch is one past this store's.
    pub fn next_epoch(&self) -> PtsStore<I> {
        let mut s = PtsStore::new();
        s.epoch = self.epoch + 1;
        s
    }

    /// The spine (chunk handles) of `id`.
    fn spine(&self, id: PtsId) -> &[ChunkId] {
        let (start, len) = self.sets[id.index()];
        &self.spine_arena[start as usize..(start + len) as usize]
    }

    /// The `(start, len)` arena range of `id` — lets op loops read the
    /// arena positionally while mutating the chunk tables.
    fn spine_range(&self, id: PtsId) -> (usize, usize) {
        let (start, len) = self.sets[id.index()];
        (start as usize, len as usize)
    }

    /// Interns a chunk, returning its handle.
    fn intern_chunk(&mut self, chunk: Chunk) -> ChunkId {
        debug_assert!(chunk.1 != [0, 0], "empty chunks are never stored");
        if let Some(&c) = self.chunk_ids.get(&chunk) {
            return c;
        }
        let c = self.chunks.len() as ChunkId;
        self.chunks.push(chunk);
        self.chunk_ids.insert(chunk, c);
        c
    }

    /// Interns a spine (already sorted by chunk base), returning its id.
    fn intern_spine(&mut self, spine: &[ChunkId]) -> PtsId {
        if let Some(&id) = self.ids.get(spine) {
            return id;
        }
        let start = self.spine_arena.len() as u32;
        self.spine_arena.extend_from_slice(spine);
        let id = PtsId::from_index(self.sets.len());
        self.sets.push((start, spine.len() as u32));
        self.ids.insert(spine.into(), id);
        id
    }

    /// The union of two chunks with the same base, interned; memoized on
    /// the unordered handle pair.
    fn chunk_union(&mut self, x: ChunkId, y: ChunkId) -> ChunkId {
        if x == y {
            self.stats.chunk_union_hits += 1;
            return x;
        }
        let key = if x < y { (x, y) } else { (y, x) };
        if let Some(&r) = self.chunk_union_memo.get(&key) {
            self.stats.chunk_union_hits += 1;
            return r;
        }
        self.stats.chunk_union_misses += 1;
        let (base, xw) = self.chunks[x as usize];
        let (_, yw) = self.chunks[y as usize];
        let merged = [xw[0] | yw[0], xw[1] | yw[1]];
        let r = if merged == xw {
            x
        } else if merged == yw {
            y
        } else {
            self.intern_chunk((base, merged))
        };
        self.chunk_union_memo.insert(key, r);
        r
    }

    /// Returns the id for `set`, interning it if unseen.
    pub fn intern(&mut self, set: &PointsToSet<I>) -> PtsId {
        let mut spine: Vec<ChunkId> = Vec::with_capacity(set.raw().block_count());
        for chunk in set.raw().raw_blocks() {
            spine.push(self.intern_chunk(chunk));
        }
        self.intern_spine(&spine)
    }

    /// Looks up the id of `set` without interning it.
    pub fn lookup(&self, set: &PointsToSet<I>) -> Option<PtsId> {
        let mut spine: Vec<ChunkId> = Vec::with_capacity(set.raw().block_count());
        for chunk in set.raw().raw_blocks() {
            spine.push(*self.chunk_ids.get(&chunk)?);
        }
        self.ids.get(spine.as_slice()).copied()
    }

    /// Materialises the canonical set behind `id` as an owned flat set.
    ///
    /// This is the boundary API: solvers operate on ids and the
    /// element-level accessors ([`PtsStore::contains`],
    /// [`PtsStore::iter_set`], [`PtsStore::set_len`]); materialisation is
    /// for results leaving the store (printing, diffing, carrying).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this store.
    pub fn materialize(&self, id: PtsId) -> PointsToSet<I> {
        let blocks = self.spine(id).iter().map(|&c| self.chunks[c as usize]);
        PointsToSet::from_raw(crate::SparseBitVector::from_raw_blocks(blocks))
    }

    /// Returns `true` if `elem` is in the set behind `id`.
    pub fn contains(&self, id: PtsId, elem: I) -> bool {
        let e = elem.index() as u32;
        let base = e & !(CHUNK_BITS - 1);
        let (start, len) = self.spine_range(id);
        let spine = &self.spine_arena[start..start + len];
        match spine.binary_search_by_key(&base, |&c| self.chunks[c as usize].0) {
            Ok(i) => {
                let (_, words) = self.chunks[spine[i] as usize];
                words[((e - base) / 64) as usize] & (1u64 << (e % 64)) != 0
            }
            Err(_) => false,
        }
    }

    /// Number of elements in the set behind `id`.
    pub fn set_len(&self, id: PtsId) -> usize {
        self.spine(id)
            .iter()
            .map(|&c| {
                let (_, w) = self.chunks[c as usize];
                (w[0].count_ones() + w[1].count_ones()) as usize
            })
            .sum()
    }

    /// Returns `true` if `id` is the empty set (canonical, so this is an
    /// id compare).
    pub fn set_is_empty(&self, id: PtsId) -> bool {
        id == Self::EMPTY
    }

    /// If the set behind `id` holds exactly one element, returns it.
    pub fn as_singleton(&self, id: PtsId) -> Option<I> {
        let spine = self.spine(id);
        if spine.len() != 1 {
            return None;
        }
        let (base, w) = self.chunks[spine[0] as usize];
        if w[0].count_ones() + w[1].count_ones() != 1 {
            return None;
        }
        let bit = if w[0] != 0 { w[0].trailing_zeros() } else { 64 + w[1].trailing_zeros() };
        Some(I::from_index((base + bit) as usize))
    }

    /// Iterates the elements of the set behind `id`, ascending.
    pub fn iter_set(&self, id: PtsId) -> SetIter<'_, I> {
        let (start, len) = self.spine_range(id);
        SetIter {
            chunks: &self.chunks,
            spine: &self.spine_arena[start..start + len],
            pos: 0,
            word_idx: 0,
            word: 0,
            primed: false,
            _marker: PhantomData,
        }
    }

    /// Heap bytes the set behind `id` would occupy as a private flat
    /// bit vector — the logical (pre-dedup) footprint used by the
    /// delta-propagation byte counters.
    pub fn flat_bytes(&self, id: PtsId) -> usize {
        let (_, len) = self.sets[id.index()];
        len as usize * CHUNK_FLAT_BYTES
    }

    /// The set containing exactly `elem`.
    pub fn singleton(&mut self, elem: I) -> PtsId {
        self.insert(Self::EMPTY, elem)
    }

    /// The set `a ∪ {elem}`, memoized on `(a, elem)`.
    pub fn insert(&mut self, a: PtsId, elem: I) -> PtsId {
        let e = elem.index() as u32;
        let key = (a, e);
        if let Some(&r) = self.insert_memo.get(&key) {
            self.stats.insert_hits += 1;
            return r;
        }
        let r = if self.contains(a, elem) {
            self.stats.insert_hits += 1;
            a
        } else {
            self.stats.insert_misses += 1;
            let base = e & !(CHUNK_BITS - 1);
            let word = ((e - base) / 64) as usize;
            let bit = 1u64 << (e % 64);
            let (start, len) = self.spine_range(a);
            let mut spine: Vec<ChunkId> = self.spine_arena[start..start + len].to_vec();
            match spine.binary_search_by_key(&base, |&c| self.chunks[c as usize].0) {
                Ok(i) => {
                    let (_, mut w) = self.chunks[spine[i] as usize];
                    w[word] |= bit;
                    spine[i] = self.intern_chunk((base, w));
                }
                Err(i) => {
                    let mut w = [0u64; 2];
                    w[word] = bit;
                    let c = self.intern_chunk((base, w));
                    spine.insert(i, c);
                }
            }
            self.intern_spine(&spine)
        };
        self.insert_memo.insert(key, r);
        r
    }

    /// Chunk-wise subset test: every element of `b` is in `a`. Shared
    /// handles short-circuit whole chunks without touching bit data.
    fn spine_is_superset(&self, a: PtsId, b: PtsId) -> bool {
        let (astart, alen) = self.spine_range(a);
        let (bstart, blen) = self.spine_range(b);
        let mut i = 0;
        'outer: for jb in 0..blen {
            let bc = self.spine_arena[bstart + jb];
            let (bbase, bw) = self.chunks[bc as usize];
            while i < alen {
                let ac = self.spine_arena[astart + i];
                if ac == bc {
                    i += 1;
                    continue 'outer;
                }
                let (abase, aw) = self.chunks[ac as usize];
                if abase < bbase {
                    i += 1;
                } else if abase > bbase {
                    return false;
                } else {
                    if bw[0] & !aw[0] != 0 || bw[1] & !aw[1] != 0 {
                        return false;
                    }
                    i += 1;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    /// The set `a ∪ b`, memoized on the unordered id pair. The miss path
    /// is a chunk-wise merge: chunks present on only one side are shared
    /// by handle, and chunk-level unions are memoized.
    pub fn union(&mut self, a: PtsId, b: PtsId) -> PtsId {
        if a == b || b == Self::EMPTY {
            self.stats.union_shortcuts += 1;
            return a;
        }
        if a == Self::EMPTY {
            self.stats.union_shortcuts += 1;
            return b;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.union_memo.get(&key) {
            self.stats.union_hits += 1;
            return r;
        }
        self.stats.union_misses += 1;
        let (astart, alen) = self.spine_range(a);
        let (bstart, blen) = self.spine_range(b);
        let mut out: Vec<ChunkId> = Vec::with_capacity(alen.max(blen));
        let (mut i, mut j) = (0, 0);
        let mut same_a = true;
        let mut same_b = true;
        while i < alen && j < blen {
            let ac = self.spine_arena[astart + i];
            let bc = self.spine_arena[bstart + j];
            if ac == bc {
                self.stats.chunk_union_hits += 1;
                out.push(ac);
                i += 1;
                j += 1;
                continue;
            }
            let abase = self.chunks[ac as usize].0;
            let bbase = self.chunks[bc as usize].0;
            if abase < bbase {
                out.push(ac);
                same_b = false;
                i += 1;
            } else if abase > bbase {
                out.push(bc);
                same_a = false;
                j += 1;
            } else {
                let m = self.chunk_union(ac, bc);
                same_a &= m == ac;
                same_b &= m == bc;
                out.push(m);
                i += 1;
                j += 1;
            }
        }
        if i < alen {
            same_b = false;
            for k in i..alen {
                out.push(self.spine_arena[astart + k]);
            }
        }
        if j < blen {
            same_a = false;
            for k in j..blen {
                out.push(self.spine_arena[bstart + k]);
            }
        }
        let r = if same_a {
            a
        } else if same_b {
            b
        } else {
            self.intern_spine(&out)
        };
        self.union_memo.insert(key, r);
        r
    }

    /// Would `union(a, b)` differ from `a`? Answered from the memo when
    /// possible; falls back to one chunk-wise subset test (and records the
    /// memo on a negative answer) without ever materialising the union.
    pub fn union_would_change(&mut self, a: PtsId, b: PtsId) -> bool {
        if a == b || b == Self::EMPTY {
            self.stats.would_change_fast += 1;
            return false;
        }
        if a == Self::EMPTY {
            self.stats.would_change_fast += 1;
            return true;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.union_memo.get(&key) {
            self.stats.would_change_fast += 1;
            return r != a;
        }
        self.stats.would_change_slow += 1;
        if self.spine_is_superset(a, b) {
            // union(a, b) == a: remember it so the next ask is a hit.
            self.union_memo.insert(key, a);
            false
        } else {
            true
        }
    }

    /// The set `a \ b`, memoized on the ordered id pair.
    ///
    /// This is the difference-propagation primitive: a solver that
    /// remembers the id it last propagated along an edge (`b`) can ship
    /// only `diff(current, last)` on the next visit. Because edge values
    /// grow monotonically, the same `(a, b)` pairs recur across the
    /// frontier of every consumer of `a`, so the memo absorbs almost all
    /// repeat extractions.
    pub fn diff(&mut self, a: PtsId, b: PtsId) -> PtsId {
        self.subtract(a, b)
    }

    /// The set `a \ b`, memoized on the ordered id pair (see
    /// [`PtsStore::diff`]). Chunk-wise: shared handles vanish whole,
    /// chunks without a same-base counterpart are shared by handle.
    pub fn subtract(&mut self, a: PtsId, b: PtsId) -> PtsId {
        if a == Self::EMPTY || a == b {
            self.stats.diff_hits += 1;
            return Self::EMPTY;
        }
        if b == Self::EMPTY {
            self.stats.diff_hits += 1;
            return a;
        }
        if let Some(&r) = self.diff_memo.get(&(a, b)) {
            self.stats.diff_hits += 1;
            return r;
        }
        self.stats.diff_misses += 1;
        let (astart, alen) = self.spine_range(a);
        let (bstart, blen) = self.spine_range(b);
        let mut out: Vec<ChunkId> = Vec::with_capacity(alen);
        let (mut i, mut j) = (0, 0);
        let mut changed = false;
        while i < alen && j < blen {
            let ac = self.spine_arena[astart + i];
            let bc = self.spine_arena[bstart + j];
            if ac == bc {
                // Identical chunk: the whole chunk is removed.
                changed = true;
                i += 1;
                j += 1;
                continue;
            }
            let abase = self.chunks[ac as usize].0;
            let bbase = self.chunks[bc as usize].0;
            if abase < bbase {
                out.push(ac);
                i += 1;
            } else if abase > bbase {
                j += 1;
            } else {
                let aw = self.chunks[ac as usize].1;
                let bw = self.chunks[bc as usize].1;
                let dw = [aw[0] & !bw[0], aw[1] & !bw[1]];
                if dw == aw {
                    out.push(ac);
                } else {
                    changed = true;
                    if dw != [0, 0] {
                        let c = self.intern_chunk((abase, dw));
                        out.push(c);
                    }
                }
                i += 1;
                j += 1;
            }
        }
        for k in i..alen {
            out.push(self.spine_arena[astart + k]);
        }
        let r = if !changed { a } else { self.intern_spine(&out) };
        self.diff_memo.insert((a, b), r);
        r
    }

    /// The set `a ∩ b`, memoized on the unordered id pair.
    pub fn intersect(&mut self, a: PtsId, b: PtsId) -> PtsId {
        if a == b {
            return a;
        }
        if a == Self::EMPTY || b == Self::EMPTY {
            return Self::EMPTY;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.intersect_memo.get(&key) {
            return r;
        }
        let (astart, alen) = self.spine_range(a);
        let (bstart, blen) = self.spine_range(b);
        let mut out: Vec<ChunkId> = Vec::new();
        let (mut i, mut j) = (0, 0);
        let mut same_a = true;
        let mut same_b = true;
        while i < alen && j < blen {
            let ac = self.spine_arena[astart + i];
            let bc = self.spine_arena[bstart + j];
            if ac == bc {
                out.push(ac);
                i += 1;
                j += 1;
                continue;
            }
            let abase = self.chunks[ac as usize].0;
            let bbase = self.chunks[bc as usize].0;
            if abase < bbase {
                same_a = false;
                i += 1;
            } else if abase > bbase {
                same_b = false;
                j += 1;
            } else {
                let aw = self.chunks[ac as usize].1;
                let bw = self.chunks[bc as usize].1;
                let mw = [aw[0] & bw[0], aw[1] & bw[1]];
                same_a &= mw == aw;
                same_b &= mw == bw;
                if mw != [0, 0] {
                    let c = self.intern_chunk((abase, mw));
                    out.push(c);
                }
                i += 1;
                j += 1;
            }
        }
        same_a &= i == alen;
        same_b &= j == blen;
        let r = if same_a {
            a
        } else if same_b {
            b
        } else {
            self.intern_spine(&out)
        };
        self.intersect_memo.insert(key, r);
        r
    }

    /// Number of distinct sets interned (including the empty one).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Returns `true` if only the empty set has been interned.
    pub fn is_empty(&self) -> bool {
        self.sets.len() <= 1
    }

    /// A snapshot of the store's counters, with the payload fields filled
    /// in from the current contents: `unique_set_bytes` is the chunked
    /// footprint (spine handles + shared chunk data), `flat_equiv_bytes`
    /// what the same sets would cost flat.
    pub fn stats(&self) -> PtsStoreStats {
        let mut s = self.stats;
        s.unique_sets = self.sets.len();
        s.unique_chunks = self.chunks.len();
        s.chunk_bytes = self.chunks.len() * CHUNK_FLAT_BYTES;
        s.unique_set_bytes =
            self.spine_arena.len() * std::mem::size_of::<ChunkId>() + s.chunk_bytes;
        s.flat_equiv_bytes = self.spine_arena.len() * CHUNK_FLAT_BYTES;
        s
    }
}

/// Iterator over the elements of an interned set, ascending.
pub struct SetIter<'s, I> {
    chunks: &'s [Chunk],
    spine: &'s [ChunkId],
    pos: usize,
    word_idx: usize,
    word: u64,
    primed: bool,
    _marker: PhantomData<I>,
}

impl<I: Idx> Iterator for SetIter<'_, I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        loop {
            if !self.primed {
                if self.pos >= self.spine.len() {
                    return None;
                }
                self.word = self.chunks[self.spine[self.pos] as usize].1[0];
                self.word_idx = 0;
                self.primed = true;
            }
            if self.word != 0 {
                let bit = self.word.trailing_zeros();
                self.word &= self.word - 1;
                let base = self.chunks[self.spine[self.pos] as usize].0;
                return Some(I::from_index((base + self.word_idx as u32 * 64 + bit) as usize));
            }
            if self.word_idx == 0 {
                self.word_idx = 1;
                self.word = self.chunks[self.spine[self.pos] as usize].1[1];
            } else {
                self.pos += 1;
                self.primed = false;
            }
        }
    }
}

/// A flat read-back cache over the ids a finished result exposes.
///
/// Results hand out `&PointsToSet` at their API boundary; the chunked
/// store has no flat sets to lend. A `FlatReader` materialises each
/// distinct exposed id exactly once (ids sharing a canonical set share
/// the materialisation) and serves references from then on.
#[derive(Debug, Clone, Default)]
pub struct FlatReader<I: Idx> {
    map: FxHashMap<PtsId, PointsToSet<I>>,
}

impl<I: Idx> FlatReader<I> {
    /// Materialises each distinct id in `ids` from `store`.
    pub fn new(store: &PtsStore<I>, ids: impl IntoIterator<Item = PtsId>) -> Self {
        let mut map = FxHashMap::default();
        for id in ids {
            map.entry(id).or_insert_with(|| store.materialize(id));
        }
        FlatReader { map }
    }

    /// The flat set behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not in the set of ids the reader was built
    /// over.
    pub fn get(&self, id: PtsId) -> &PointsToSet<I> {
        &self.map[&id]
    }

    /// Heap bytes of the materialised flat sets.
    pub fn heap_bytes(&self) -> usize {
        self.map.values().map(|s| s.heap_bytes()).sum()
    }
}

/// Counters for one carry generation (see [`PtsCarry`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarryStats {
    /// `carry` calls answered by the per-generation memo.
    pub memo_hits: usize,
    /// Sets materialised in the successor store.
    pub carried_sets: usize,
    /// Elements dropped because the element remap declined them.
    pub dropped_elems: usize,
}

/// Carries interned sets from one store into its successor epoch.
///
/// The element remap translates ids of the old index space into the new
/// one (or `None` to drop an element whose referent no longer exists).
/// Translations are memoized per carry generation, so state that shares
/// ids in the old store keeps sharing them in the successor. Set ids are
/// dense, so the memo is a vector indexed by the old id: a hit costs one
/// load, which matters when every entry of a large warm table is carried.
#[derive(Debug, Default)]
pub struct PtsCarry {
    /// Image of each old set id, [`PtsCarry::UNCARRIED`] until carried.
    memo: Vec<PtsId>,
    /// Counters for this carry generation.
    pub stats: CarryStats,
}

impl PtsCarry {
    /// Memo marker of an old id not carried yet.
    const UNCARRIED: PtsId = PtsId::new(u32::MAX);

    /// Creates an empty carry for one old-store → new-store generation.
    pub fn new() -> Self {
        PtsCarry::default()
    }

    /// Interns the image of `old`'s set `id` under `map` into `into`.
    pub fn carry<I: Idx, J: Idx>(
        &mut self,
        old: &PtsStore<I>,
        into: &mut PtsStore<J>,
        id: PtsId,
        mut map: impl FnMut(I) -> Option<J>,
    ) -> PtsId {
        if self.memo.len() < old.len() {
            self.memo.resize(old.len(), Self::UNCARRIED);
        }
        let r = self.memo[id.index()];
        if r != Self::UNCARRIED {
            self.stats.memo_hits += 1;
            return r;
        }
        let mut set = PointsToSet::new();
        for elem in old.iter_set(id) {
            match map(elem) {
                Some(e) => {
                    set.insert(e);
                }
                None => self.stats.dropped_elems += 1,
            }
        }
        let r = into.intern(&set);
        self.stats.carried_sets += 1;
        self.memo[id.index()] = r;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_testkit::gen;

    crate::define_index!(TObj, "t");

    fn sing(store: &mut PtsStore<TObj>, e: u32) -> PtsId {
        store.singleton(TObj::new(e))
    }

    #[test]
    fn identity_and_idempotence() {
        let mut s = PtsStore::<TObj>::new();
        let a = sing(&mut s, 7);
        assert_eq!(s.union(a, a), a);
        assert_eq!(s.union(a, PtsStore::<TObj>::EMPTY), a);
        assert_eq!(s.union(PtsStore::<TObj>::EMPTY, a), a);
        assert_eq!(
            s.union(PtsStore::<TObj>::EMPTY, PtsStore::<TObj>::EMPTY),
            PtsStore::<TObj>::EMPTY
        );
        assert_eq!(s.stats().union_shortcuts, 4);
    }

    #[test]
    fn union_memoizes_and_shortcuts() {
        let mut s = PtsStore::<TObj>::new();
        let a = sing(&mut s, 1);
        let b = sing(&mut s, 2);
        let ab = s.union(a, b);
        assert_eq!(s.stats().union_misses, 1);
        assert_eq!(s.union(b, a), ab, "commutative via unordered key");
        assert_eq!(s.stats().union_hits, 1, "second union hit the memo");
        assert_eq!(s.union(ab, b), ab, "superset short-circuits to a");
        assert_eq!(s.len(), 4); // ∅, {1}, {2}, {1,2}
    }

    #[test]
    fn insert_memoizes() {
        let mut s = PtsStore::<TObj>::new();
        let a = sing(&mut s, 3);
        let a5 = s.insert(a, TObj::new(5));
        assert!(s.contains(a5, TObj::new(5)) && s.contains(a5, TObj::new(3)));
        assert_eq!(s.insert(a, TObj::new(5)), a5);
        assert_eq!(s.insert(a5, TObj::new(5)), a5, "already present");
        let st = s.stats();
        assert!(st.insert_hits >= 2);
    }

    #[test]
    fn would_change_agrees_with_union() {
        let mut s = PtsStore::<TObj>::new();
        let a = sing(&mut s, 1);
        let b = sing(&mut s, 2);
        let ab = s.union(a, b);
        assert!(!s.union_would_change(ab, a));
        assert!(!s.union_would_change(ab, b));
        assert!(s.union_would_change(a, b));
        assert!(!s.union_would_change(a, PtsStore::<TObj>::EMPTY));
        assert!(s.union_would_change(PtsStore::<TObj>::EMPTY, a));
        // The negative answer was memoized as union(ab, a) == ab.
        assert_eq!(s.union(ab, a), ab);
    }

    #[test]
    fn subtract_and_intersect() {
        let mut s = PtsStore::<TObj>::new();
        let a = sing(&mut s, 1);
        let b = sing(&mut s, 2);
        let ab = s.union(a, b);
        assert_eq!(s.subtract(ab, a), b);
        assert_eq!(s.subtract(ab, b), a);
        assert_eq!(s.subtract(a, ab), PtsStore::<TObj>::EMPTY);
        assert_eq!(s.subtract(a, b), a, "disjoint: a is unchanged");
        assert_eq!(s.intersect(ab, a), a);
        assert_eq!(s.intersect(a, b), PtsStore::<TObj>::EMPTY);
        assert_eq!(s.intersect(ab, ab), ab);
    }

    #[test]
    fn chunk_sharing_across_similar_sets() {
        let mut s = PtsStore::<TObj>::new();
        // Two large sets sharing their first chunk exactly.
        let mut x = PointsToSet::new();
        let mut y = PointsToSet::new();
        for e in 0..100 {
            x.insert(TObj::new(e));
            y.insert(TObj::new(e));
        }
        x.insert(TObj::new(200));
        y.insert(TObj::new(300));
        let ix = s.intern(&x);
        let iy = s.intern(&y);
        assert_ne!(ix, iy);
        let st = s.stats();
        // 4 chunk instances (2 spines x 2 chunks) but only 3 distinct
        // chunks: the dense low chunk is shared.
        assert_eq!(st.flat_equiv_bytes, 4 * 24);
        assert_eq!(st.unique_chunks, 3);
        assert!(st.unique_set_bytes < st.flat_equiv_bytes);
        // Union of the two shares the low chunk by handle.
        let before = s.stats().chunk_union_hits;
        let u = s.union(ix, iy);
        assert_eq!(s.set_len(u), 102);
        assert!(s.stats().chunk_union_hits > before, "shared handle short-circuited");
    }

    #[test]
    fn accessors_match_materialize() {
        let mut s = PtsStore::<TObj>::new();
        let elems = [0u32, 1, 63, 64, 127, 128, 200, 1000];
        let set: PointsToSet<TObj> = elems.iter().map(|&e| TObj::new(e)).collect();
        let id = s.intern(&set);
        assert_eq!(s.materialize(id), set);
        assert_eq!(s.set_len(id), elems.len());
        assert_eq!(
            s.iter_set(id).collect::<Vec<_>>(),
            elems.iter().map(|&e| TObj::new(e)).collect::<Vec<_>>()
        );
        for &e in &elems {
            assert!(s.contains(id, TObj::new(e)));
        }
        assert!(!s.contains(id, TObj::new(2)));
        assert!(!s.contains(id, TObj::new(129)));
        assert_eq!(s.as_singleton(id), None);
        let one = s.singleton(TObj::new(77));
        assert_eq!(s.as_singleton(one), Some(TObj::new(77)));
        assert_eq!(s.flat_bytes(id), set.raw().block_count() * 24);
        assert_eq!(s.lookup(&set), Some(id));
        assert_eq!(s.lookup(&PointsToSet::singleton(TObj::new(9999))), None);
    }

    #[test]
    fn carry_remaps_and_memoizes_across_epochs() {
        let mut old = PtsStore::<TObj>::new();
        let a = sing(&mut old, 1);
        let b = sing(&mut old, 2);
        let ab = old.union(a, b);
        assert_eq!(old.epoch(), 0);

        let mut new = old.next_epoch();
        assert_eq!(new.epoch(), 1);
        let mut carry = PtsCarry::new();
        // Shift element 1 → 5, drop element 2.
        let map = |e: TObj| match e.index() {
            1 => Some(TObj::new(5)),
            _ => None,
        };
        let a2 = carry.carry(&old, &mut new, a, map);
        let ab2 = carry.carry(&old, &mut new, ab, map);
        assert_eq!(new.iter_set(a2).collect::<Vec<_>>(), vec![TObj::new(5)]);
        assert_eq!(ab2, a2, "dropped element collapses {{1,2}} onto {{5}}");
        assert_eq!(carry.carry(&old, &mut new, a, map), a2, "memo hit");
        assert_eq!(carry.stats.memo_hits, 1);
        assert_eq!(carry.stats.carried_sets, 2);
        assert_eq!(carry.stats.dropped_elems, 1);
        // EMPTY is id 0 in every epoch.
        let e = carry.carry(&old, &mut new, PtsStore::<TObj>::EMPTY, map);
        assert_eq!(e, PtsStore::<TObj>::EMPTY);
    }

    /// The memoized chunked algebra agrees with direct flat set
    /// operations — the extensional-equality property suite.
    #[test]
    fn matches_direct_set_ops() {
        vsfs_testkit::check("ptstore::matches_direct_set_ops", |rng| {
            let ops = gen::vec_with(rng, 1..48, |r| {
                (
                    r.gen_range(0u32..600),
                    r.gen_range(0usize..8),
                    r.gen_range(0usize..8),
                    r.gen_range(0u32..4),
                )
            });
            let mut store = PtsStore::<TObj>::new();
            let mut ids: Vec<PtsId> = vec![PtsStore::<TObj>::EMPTY];
            let mut sets: Vec<PointsToSet<TObj>> = vec![PointsToSet::new()];
            for (elem, i, j, op) in ops {
                let (i, j) = (i % ids.len(), j % ids.len());
                let (id, set) = match op {
                    0 => {
                        let mut u = sets[i].clone();
                        u.union_with(&sets[j]);
                        (store.union(ids[i], ids[j]), u)
                    }
                    1 => {
                        let mut u = sets[i].clone();
                        u.insert(TObj::new(elem));
                        (store.insert(ids[i], TObj::new(elem)), u)
                    }
                    2 => {
                        let mut d = sets[i].clone();
                        d.subtract(&sets[j]);
                        (store.subtract(ids[i], ids[j]), d)
                    }
                    _ => {
                        let mut x = sets[i].clone();
                        x.intersect_with(&sets[j]);
                        (store.intersect(ids[i], ids[j]), x)
                    }
                };
                assert_eq!(store.materialize(id), set);
                assert_eq!(store.set_len(id), set.len());
                assert_eq!(store.iter_set(id).collect::<Vec<_>>(), set.iter().collect::<Vec<_>>());
                assert_eq!(store.as_singleton(id), set.as_singleton());
                assert!(store.contains(id, TObj::new(elem)) == set.contains(TObj::new(elem)));
                // would_change must agree with the realised union.
                let grown = store.union(ids[i], ids[j]) != ids[i];
                assert_eq!(store.union_would_change(ids[i], ids[j]), grown);
                ids.push(id);
                sets.push(set);
            }
            // Canonical: equal sets share an id.
            for (id, set) in ids.iter().zip(&sets) {
                assert_eq!(store.lookup(set), Some(*id));
            }
        });
    }
}
