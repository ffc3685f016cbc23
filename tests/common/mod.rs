//! Helpers shared by the integration suites.

use vsfs_core::WarmExport;

type Row = (u64, Vec<(u64, u32)>);

/// Asserts that two exports hold the same warm `IN` and `OUT` tables:
/// the same rows by node key, the same entries by object key, and equal
/// set contents entry for entry. Set indices may differ.
pub fn assert_same_tables(label: &str, want: &WarmExport, got: &WarmExport) {
    assert_same_table(label, "IN", &want.ins, want, &got.ins, got);
    assert_same_table(label, "OUT", &want.outs, want, &got.outs, got);
}

fn assert_same_table(
    label: &str,
    table: &str,
    want_rows: &[Row],
    want: &WarmExport,
    got_rows: &[Row],
    got: &WarmExport,
) {
    for (i, (w, g)) in want_rows.iter().zip(got_rows).enumerate() {
        assert_eq!(w.0, g.0, "{label}: {table} row {i} is for another node");
        assert_eq!(w.1.len(), g.1.len(), "{label}: {table} of node {:016x} differs in size", w.0);
        for (&(wo, wi), &(go, gi)) in w.1.iter().zip(&g.1) {
            assert_eq!(wo, go, "{label}: {table} of node {:016x} differs in objects", w.0);
            assert_eq!(
                want.sets[wi as usize], got.sets[gi as usize],
                "{label}: {table}[{:016x}][{wo:016x}] differs",
                w.0
            );
        }
    }
    assert_eq!(want_rows.len(), got_rows.len(), "{label}: {table} row counts differ");
}
