//! The storage-engine workload measured by the `space_ops` criterion
//! bench: the same tuples and templates loaded into the indexed
//! `SequentialSpace` and the `ScanSpace` reference oracle, so the two
//! engines are timed on identical contents.

use peats_tuplespace::{Field, ScanSpace, SequentialSpace, Template, Tuple, Value};

/// Channels (distinct leading tags) the workload spreads tuples over.
pub const CHANNELS: usize = 64;

/// The `i`-th workload tuple: `<"chanNN", i, 42>` with `NN = i mod CHANNELS`.
pub fn entry(i: usize) -> Tuple {
    Tuple::new(vec![
        Value::from(format!("chan{:02}", i % CHANNELS)),
        Value::Int(i as i64),
        Value::Int(42),
    ])
}

/// Template for one channel, other fields wildcarded.
pub fn chan_template(c: usize) -> Template {
    Template::new(vec![
        Field::exact(format!("chan{c:02}")),
        Field::any(),
        Field::any(),
    ])
}

/// An indexed space holding the first `size` workload tuples.
pub fn indexed_space(size: usize) -> SequentialSpace {
    let mut ts = SequentialSpace::new();
    for i in 0..size {
        ts.out(entry(i));
    }
    ts
}

/// A scan-oracle space holding the first `size` workload tuples.
pub fn scan_space(size: usize) -> ScanSpace {
    let mut ts = ScanSpace::new();
    for i in 0..size {
        ts.out(entry(i));
    }
    ts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_engines_load_the_same_workload() {
        let idx = indexed_space(200);
        let scan = scan_space(200);
        assert_eq!(idx.len(), scan.len());
        let t̄ = chan_template(7);
        assert_eq!(idx.count(&t̄), scan.count(&t̄));
        assert!(idx.count(&t̄) > 0);
    }
}
