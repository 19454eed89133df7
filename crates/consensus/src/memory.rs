//! Shared-memory cost models (§5.2 and its footnotes 3–4; §7).
//!
//! The paper's only quantitative comparison is analytic: the number of
//! shared-memory bits the PEATS strong consensus needs versus the sticky-bit
//! constructions of Alon et al. \[9\] and Malkhi et al. \[11\]. These functions
//! evaluate those formulas; experiment E6 prints the comparison table and
//! checks the paper's spot values (68 bits vs 1,764 sticky bits at
//! `n = 13, t = 4`).

/// `⌈log₂ n⌉` — bits to name one of `n` processes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ceil_log2(n: u64) -> u32 {
    assert!(n > 0, "log of zero");
    64 - (n - 1).leading_zeros()
}

/// Exact bit count of the PEATS strong binary consensus (§5.2):
/// `n(⌈log n⌉ + 1) + (1 + (t+1)⌈log n⌉)` — `n` PROPOSE tuples (id + bit)
/// plus one DECISION tuple (bit + justification set of `t+1` ids).
pub fn peats_strong_bits_exact(n: u64, t: u64) -> u64 {
    let lg = u64::from(ceil_log2(n));
    n * (lg + 1) + 1 + (t + 1) * lg
}

/// The `O((n+t) log n)` form the paper's footnote 3 evaluates:
/// `(n + t) · ⌈log₂ n⌉`. At `n = 13, t = 4` this gives the paper's
/// "only 68 bits".
pub fn peats_strong_bits_o_form(n: u64, t: u64) -> u64 {
    (n + t) * u64::from(ceil_log2(n))
}

/// Bit count of the PEATS strong k-valued consensus
/// (§5.3: `O(n(log n + log |V|))`): `n` PROPOSE tuples of
/// `⌈log n⌉ + ⌈log k⌉` bits plus one DECISION tuple.
pub fn peats_kvalued_bits_exact(n: u64, t: u64, k: u64) -> u64 {
    let lg_n = u64::from(ceil_log2(n));
    let lg_k = u64::from(ceil_log2(k));
    n * (lg_n + lg_k) + lg_k + (t + 1) * lg_n
}

/// Binomial coefficient `C(n, k)` (exact, u128 to avoid overflow in the
/// exponential sticky-bit counts).
///
/// # Panics
///
/// Panics on internal overflow for astronomically large inputs (not
/// reachable for the paper's parameter ranges).
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc
            .checked_mul(u128::from(n - i))
            .expect("binomial overflow")
            / u128::from(i + 1);
    }
    acc
}

/// Sticky bits required by the optimal-resilience algorithm of Alon et
/// al. \[9\]: `(n + 1) · C(2t+1, t)` (the paper's §5.2 and footnote 4 —
/// 1,764 sticky bits at `n = 13, t = 4`).
pub fn alon_sticky_bits(n: u64, t: u64) -> u128 {
    u128::from(n + 1) * binomial(2 * t + 1, t)
}

/// Requirements of the Malkhi et al. \[11\] strong consensus (§7):
/// `2t+1` sticky bits but `n ≥ (t+1)(2t+1)` processes.
/// Returns `(min_processes, sticky_bits)`.
pub fn mmrt_requirements(t: u64) -> (u64, u64) {
    ((t + 1) * (2 * t + 1), 2 * t + 1)
}

/// One row of the E6 comparison table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryRow {
    /// Fault bound.
    pub t: u64,
    /// Smallest PEATS system size (`3t + 1`).
    pub n: u64,
    /// Exact PEATS bits ([`peats_strong_bits_exact`]).
    pub peats_bits_exact: u64,
    /// Paper footnote-3 form ([`peats_strong_bits_o_form`]).
    pub peats_bits_o_form: u64,
    /// Alon et al. sticky bits at the same `(n, t)`.
    pub alon_sticky_bits: u128,
    /// MMRT processes needed for the same `t`.
    pub mmrt_processes: u64,
    /// MMRT sticky bits.
    pub mmrt_sticky_bits: u64,
}

/// Builds the E6 table for `t = 1..=t_max` at optimal PEATS resilience
/// `n = 3t + 1`.
pub fn memory_table(t_max: u64) -> Vec<MemoryRow> {
    (1..=t_max)
        .map(|t| {
            let n = 3 * t + 1;
            let (mmrt_processes, mmrt_sticky_bits) = mmrt_requirements(t);
            MemoryRow {
                t,
                n,
                peats_bits_exact: peats_strong_bits_exact(n, t),
                peats_bits_o_form: peats_strong_bits_o_form(n, t),
                alon_sticky_bits: alon_sticky_bits(n, t),
                mmrt_processes,
                mmrt_sticky_bits,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(13), 4);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
    }

    #[test]
    fn paper_footnote_3_spot_value() {
        // "only 68 bits are needed for t = 4 and n = 13": matches the
        // O((n+t) log n) form — (13+4)·⌈log₂13⌉ = 17·4 = 68.
        assert_eq!(peats_strong_bits_o_form(13, 4), 68);
    }

    #[test]
    fn paper_footnote_4_spot_value() {
        // "if we want to tolerate t = 4 ... we need at least n = 13
        // processes and 1,764 sticky bits": (13+1)·C(9,4) = 14·126.
        assert_eq!(alon_sticky_bits(13, 4), 1764);
        assert_eq!(binomial(9, 4), 126);
    }

    #[test]
    fn exact_form_dominates_o_form_slightly() {
        // The exact tuple accounting is the O-form plus bookkeeping; both
        // are polylogarithmic, unlike the exponential baseline.
        for t in 1..10 {
            let n = 3 * t + 1;
            let exact = peats_strong_bits_exact(n, t);
            let alon = alon_sticky_bits(n, t);
            assert!(
                u128::from(exact) < alon || t < 2,
                "PEATS ({exact}) should beat sticky bits ({alon}) at t={t}"
            );
        }
    }

    #[test]
    fn binomial_edges() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(60, 30), 118_264_581_564_861_424);
    }

    #[test]
    fn mmrt_parameters() {
        assert_eq!(mmrt_requirements(1), (6, 3));
        assert_eq!(mmrt_requirements(4), (45, 9));
    }

    #[test]
    fn table_is_monotone_in_t() {
        let rows = memory_table(8);
        assert_eq!(rows.len(), 8);
        for w in rows.windows(2) {
            assert!(w[1].peats_bits_exact > w[0].peats_bits_exact);
            assert!(w[1].alon_sticky_bits > w[0].alon_sticky_bits);
        }
        // The gap grows: exponential vs O(n log n).
        let last = rows.last().unwrap();
        assert!(last.alon_sticky_bits > 100 * u128::from(last.peats_bits_exact));
    }

    #[test]
    fn kvalued_bits_grow_with_k() {
        assert!(peats_kvalued_bits_exact(9, 2, 4) > peats_kvalued_bits_exact(9, 2, 2));
    }
}
