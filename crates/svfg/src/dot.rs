//! Graphviz (DOT) rendering of an SVFG — used by the `svfg_dot` example
//! and handy when debugging analyses.
//!
//! [`Svfg::to_dot_annotated`] additionally takes per-node presentation
//! data ([`DotAnnotations`]) supplied by the caller: extra label lines
//! (e.g. the object versions VSFS assigned, which live downstream in
//! `vsfs-core` and so cannot be referenced here) and checker
//! source/sink highlighting.

use crate::{Svfg, SvfgNodeId, SvfgNodeKind};
use std::fmt::Write as _;
use vsfs_adt::FxHashMap;
use vsfs_ir::Program;

/// How a node should be highlighted in the rendered graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DotRole {
    /// A checker source (e.g. a `FREE` seeding freed-memory taint).
    Source,
    /// A checker sink (e.g. a flagged `LOAD`).
    Sink,
}

/// Caller-supplied per-node extras for [`Svfg::to_dot_annotated`].
#[derive(Debug, Clone, Default)]
pub struct DotAnnotations {
    /// Extra label lines appended under a node's base label.
    pub extra_lines: FxHashMap<SvfgNodeId, Vec<String>>,
    /// Fill highlighting. Sources render salmon, sinks gold; a node that
    /// is both keeps the role set here (callers decide precedence).
    pub roles: FxHashMap<SvfgNodeId, DotRole>,
}

impl Svfg {
    /// Renders the SVFG as a Graphviz `digraph`.
    ///
    /// Direct edges are solid; indirect edges are dashed and labelled with
    /// their object's name; δ nodes are drawn with doubled borders.
    pub fn to_dot(&self, prog: &Program) -> String {
        self.to_dot_annotated(prog, &DotAnnotations::default())
    }

    /// [`Svfg::to_dot`] with per-node extra label lines and source/sink
    /// highlighting.
    pub fn to_dot_annotated(&self, prog: &Program, ann: &DotAnnotations) -> String {
        let mut out = String::from("digraph svfg {\n  node [shape=box, fontsize=10];\n");
        for n in self.node_ids() {
            let mut label = match self.kind(n) {
                SvfgNodeKind::Inst(i) => {
                    format!("{}: {}", n, prog.inst_location(i).replace('"', "'"))
                }
                SvfgNodeKind::CallRet(i) => format!("{}: ret-side of {}", n, i),
                SvfgNodeKind::MemPhi(p) => format!("{}: memphi {}", n, p),
            };
            if let Some(lines) = ann.extra_lines.get(&n) {
                for l in lines {
                    label.push_str("\\n");
                    label.push_str(&l.replace('"', "'"));
                }
            }
            let peripheries = if self.is_delta(n) { 2 } else { 1 };
            let fill = match ann.roles.get(&n) {
                Some(DotRole::Source) => ", style=filled, fillcolor=salmon",
                Some(DotRole::Sink) => ", style=filled, fillcolor=gold",
                None => "",
            };
            let _ = writeln!(
                out,
                "  {} [label=\"{}\", peripheries={}{}];",
                n.raw(),
                label,
                peripheries,
                fill
            );
        }
        for n in self.node_ids() {
            for &t in self.direct_succs(n) {
                let _ = writeln!(out, "  {} -> {};", n.raw(), t.raw());
            }
            for &(t, s) in self.indirect_succs(n) {
                let labels: Vec<String> = self
                    .obj_set(s)
                    .iter()
                    .map(|&o| prog.objects[o].name.replace('"', "'"))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {} -> {} [style=dashed, label=\"{}\"];",
                    n.raw(),
                    t.raw(),
                    labels.join(",")
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{DotAnnotations, DotRole, Svfg};
    use vsfs_ir::parse_program;

    #[test]
    fn renders_nodes_and_edge_styles() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q = alloc heap H
              store %q, %p
              %r = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let dot = svfg.to_dot(&prog);
        assert!(dot.starts_with("digraph svfg {"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("label=\"A\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn annotations_add_label_lines_and_highlighting() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc heap H
              free %p
              %r = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let free_node = svfg
            .node_ids()
            .find(|&n| {
                matches!(svfg.kind(n), crate::SvfgNodeKind::Inst(i)
                if matches!(prog.insts[i].kind, vsfs_ir::InstKind::Free { .. }))
            })
            .expect("free node exists");
        let load_node = svfg
            .node_ids()
            .find(|&n| {
                matches!(svfg.kind(n), crate::SvfgNodeKind::Inst(i)
                if matches!(prog.insts[i].kind, vsfs_ir::InstKind::Load { .. }))
            })
            .expect("load node exists");
        let mut ann = DotAnnotations::default();
        ann.extra_lines.insert(free_node, vec!["consume H@v1".into(), "yield H@v2".into()]);
        ann.roles.insert(free_node, DotRole::Source);
        ann.roles.insert(load_node, DotRole::Sink);
        let dot = svfg.to_dot_annotated(&prog, &ann);
        assert!(dot.contains("consume H@v1\\nyield H@v2"));
        assert!(dot.contains("fillcolor=salmon"));
        assert!(dot.contains("fillcolor=gold"));
        // The plain export is the annotated export with no annotations.
        assert_eq!(svfg.to_dot(&prog), svfg.to_dot_annotated(&prog, &DotAnnotations::default()));
    }
}
