//! Ablation of a design choice called out in `DESIGN.md`: the
//! **meld-label representation** — sparse bit vectors (the paper uses
//! LLVM's `SparseBitVector`) versus ordered sets, on the generic meld
//! labelling of Section IV-B. The paper's Section V-B remarks that a
//! purpose-built structure might do even better; this quantifies the
//! off-the-shelf alternatives.

use std::collections::BTreeSet;
use vsfs_adt::{MeldPool, SparseBitVector};
use vsfs_bench::timing::{black_box, Harness};
use vsfs_graph::{meld_label, DiGraph, MeldLabel};

/// Ordered-set meld labels, the naive alternative to sparse bit vectors.
#[derive(Clone, PartialEq, Default)]
struct TreeLabel(BTreeSet<u32>);

impl MeldLabel for TreeLabel {
    fn identity() -> Self {
        TreeLabel(BTreeSet::new())
    }
    fn meld_with(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().copied());
        self.0.len() != before
    }
    fn is_identity(&self) -> bool {
        self.0.is_empty()
    }
}

/// A layered random DAG with `n` nodes and prelabels on the first layer.
fn meld_input(n: usize) -> (DiGraph<u32>, Vec<u32>) {
    let mut g: DiGraph<u32> = DiGraph::with_nodes(n);
    let mut pre = Vec::new();
    for i in 0..n {
        // Edges to a few later nodes (deterministic pseudo-random).
        for k in 1..=3usize {
            let t = i + (i * 7 + k * 13) % 23 + 1;
            if t < n {
                g.add_edge(i as u32, t as u32);
            }
        }
        if i % 11 == 0 {
            pre.push(i as u32);
        }
    }
    (g, pre)
}

fn meld_representation(h: &mut Harness) {
    let (g, pre_nodes) = meld_input(4000);
    h.bench("ablation/meld_label_representation/sparse_bit_vector", || {
        let mut pre = vec![SparseBitVector::new(); g.node_count()];
        for (i, &n) in pre_nodes.iter().enumerate() {
            pre[n as usize].insert(i as u32);
        }
        black_box(meld_label(&g, pre, |_| false))
    });
    h.bench("ablation/meld_label_representation/btree_set", || {
        let mut pre = vec![TreeLabel::identity(); g.node_count()];
        for (i, &n) in pre_nodes.iter().enumerate() {
            pre[n as usize].0.insert(i as u32);
        }
        black_box(meld_label(&g, pre, |_| false))
    });
    // The paper's §V-B future-work idea: a purpose-built structure.
    // Hash-consed labels with memoized melds turn repeated unions of the
    // same operands into O(1) id lookups.
    h.bench("ablation/meld_label_representation/memoized_meld_pool", || {
        let mut pool = MeldPool::new();
        let mut labels = vec![MeldPool::EMPTY; g.node_count()];
        for (i, &n) in pre_nodes.iter().enumerate() {
            labels[n as usize] = pool.singleton(i as u32);
        }
        // Same chaotic-iteration fixpoint as meld_label, over ids.
        let mut work: std::collections::VecDeque<u32> = g.nodes().collect();
        let mut queued = vec![true; g.node_count()];
        while let Some(v) = work.pop_front() {
            queued[v as usize] = false;
            let lv = labels[v as usize];
            if lv == MeldPool::EMPTY {
                continue;
            }
            for &s in g.successors(v) {
                if s == v {
                    continue;
                }
                let merged = pool.meld(labels[s as usize], lv);
                if merged != labels[s as usize] {
                    labels[s as usize] = merged;
                    if !queued[s as usize] {
                        queued[s as usize] = true;
                        work.push_back(s);
                    }
                }
            }
        }
        black_box(labels)
    });
}

fn main() {
    let mut h = Harness::from_env();
    meld_representation(&mut h);
}
