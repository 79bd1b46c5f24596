//! Dispatch-layer spine: differential tests pinning the runtime-dispatched
//! kernel-v2 paths to each other and to the scalar DPU oracle.
//!
//! The contract under test (see `leopard_accel::kernel_v2`):
//!
//! * **Path identity** — forcing [`KernelPath::Portable`] (the scalar-word
//!   path) produces a `HeadSimResult` byte-identical to the requested
//!   [`KernelPath::Wide`] path on the same inputs, for every preset and
//!   every `bits_per_cycle` granularity 1..=4. On machines without the
//!   wide feature set the wide request resolves to portable, so the
//!   property degenerates to reflexivity rather than failing.
//! * **Oracle identity** — both paths equal the scalar per-element DPU
//!   reference (`simulate_head_reference`) exactly: cycles, stalls,
//!   utilization, histograms, events.
//! * **Tail-word hygiene** — sequence lengths straddling the 64-column
//!   word boundary (`s = 23`, `63`, `64`, `65`) are pinned explicitly so
//!   garbage bits beyond the tail mask can never leak into an alive-lane
//!   popcount.
//!
//! * **Early termination prunes exactly the full-precision set** — on the
//!   scalar oracle, a score is early-terminated or pruned at the last cycle
//!   if and only if its exact dot product lies below the threshold. The
//!   simulator's functional pass relies on it: the pruning-only outcomes are
//!   read off the early-termination table instead of a second kernel sweep.
//!
//! The property tests use `ProptestConfig::default()`, so CI's
//! `PROPTEST_CASES`-bumped differential job widens their coverage without
//! code changes.

use leopard_accel::config::TileConfig;
use leopard_accel::dpu::QkDpu;
use leopard_accel::kernel_v2::KernelPath;
use leopard_accel::sim::{simulate_head_reference, simulate_head_with_path, HeadWorkload};
use leopard_quant::bitserial::BitSerialVector;
use proptest::prelude::*;

/// The four studied tile configurations, in `SimUnitKind` order.
fn presets() -> [TileConfig; 4] {
    [
        TileConfig::baseline(),
        TileConfig::ae_leopard(),
        TileConfig::hp_leopard(),
        TileConfig::pruning_only(),
    ]
}

/// Builds a deterministic workload of `s` K-columns × `d` dimensions from
/// a seed, covering the full signed 12-bit code range including zeros.
fn workload(s: usize, d: usize, threshold: i64, seed: i32) -> HeadWorkload {
    let code = |r: usize, c: usize, salt: i32| -> i32 {
        (r as i32 * 131 + c as i32 * 37 + salt)
            .wrapping_mul(2_654_435_761u32 as i32)
            .wrapping_add(seed)
            % 2047
    };
    let q_codes: Vec<Vec<i32>> = (0..s)
        .map(|r| (0..d).map(|c| code(r, c, 17)).collect())
        .collect();
    let k_codes: Vec<Vec<i32>> = (0..s)
        .map(|r| (0..d).map(|c| code(r, c, 29)).collect())
        .collect();
    HeadWorkload::from_codes(q_codes, k_codes, threshold, d, 12)
}

/// Asserts the full dispatch contract on one workload/config pair: wide,
/// portable, and the scalar reference all produce byte-identical
/// `HeadSimResult`s.
fn assert_paths_agree(w: &HeadWorkload, config: &TileConfig) {
    let reference = simulate_head_reference(w, config);
    let wide = simulate_head_with_path(w, config, KernelPath::Wide);
    let portable = simulate_head_with_path(w, config, KernelPath::Portable);
    assert_eq!(wide, portable, "wide and portable paths diverged");
    assert_eq!(
        portable, reference,
        "portable path diverged from DPU reference"
    );
}

#[test]
fn boundary_column_counts_agree_across_paths() {
    // s=23 and s=65 are the issue-pinned tail-word boundaries: a single
    // partial word, and one full word plus a one-bit tail. 63/64 round
    // out the straddle. Every preset runs at every length.
    for s in [23, 63, 64, 65] {
        let w = workload(s, 33, 40_000, s as i32);
        for config in presets() {
            assert_paths_agree(&w, &config);
        }
    }
}

#[test]
fn granularity_sweep_agrees_across_paths() {
    // bits_per_cycle 1..=4 over a mid-threshold workload: every reveal
    // granularity must schedule identical outcomes on both paths.
    let w = workload(50, 16, 30_000, 7);
    for bits in 1..=4 {
        let config = TileConfig::ae_leopard().with_serial_bits(bits);
        assert_paths_agree(&w, &config);
    }
}

proptest! {
    /// The headline dispatch property: for arbitrary workloads, thresholds,
    /// and reveal granularities, the forced-portable path is
    /// byte-identical to the wide path — and both match the scalar DPU
    /// reference.
    #[test]
    fn prop_portable_and_wide_paths_are_byte_identical(
        s in 1usize..70,
        d in 1usize..20,
        threshold in -200_000i64..200_000,
        bits in 1u32..=4,
        seed in 0i32..1000,
    ) {
        let w = workload(s, d, threshold, seed);
        for preset in presets() {
            assert_paths_agree(&w, &preset.with_serial_bits(bits));
        }
    }
}

/// Operand widths the pruned-set property covers: the paper's 12 bits and
/// narrowed `with_qk_bits` plans down to the 4-bit minimum.
const QK_BITS: [u32; 5] = [12, 16, 9, 6, 4];

/// `n` pseudo-random signed codes within `±max`, zeros included.
fn codes(n: usize, max: i32, seed: u64, salt: u64) -> Vec<i32> {
    (0..n as u64)
        .map(|i| {
            let h = (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(i)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((h >> 33) % (2 * max as u64 + 1)) as i32 - max
        })
        .collect()
}

/// Checks, for every column of one Q row, that the early-termination DPU
/// prunes exactly when the exact product is below the threshold, and that
/// the pruning-only DPU (no early termination) agrees.
fn assert_pruned_sets_match(
    q: &[i32],
    k_columns: &[Vec<i32>],
    threshold: i64,
    qk_bits: u32,
    bits_per_cycle: u32,
) {
    let early = TileConfig::ae_leopard()
        .with_qk_bits(qk_bits)
        .with_serial_bits(bits_per_cycle.min(qk_bits));
    let full = TileConfig {
        early_termination: false,
        ..early
    };
    let plan = early.bit_serial_plan();
    let (early_dpu, full_dpu) = (QkDpu::new(early), QkDpu::new(full));
    for (j, k_codes) in k_columns.iter().enumerate() {
        let k = BitSerialVector::new(k_codes, plan);
        let exact_pruned = k.full_dot(q) < threshold;
        let et = early_dpu.compute(q, &k, threshold);
        assert_eq!(
            et.pruned, exact_pruned,
            "column {j}: early termination disagrees with the exact product \
             (qk_bits={qk_bits}, B={bits_per_cycle}, threshold={threshold})"
        );
        assert_eq!(full_dpu.compute(q, &k, threshold).pruned, exact_pruned);
    }
}

#[test]
fn early_termination_prunes_the_full_precision_set_at_boundaries() {
    for (qk_bits, seed) in QK_BITS.iter().zip(1u64..) {
        let max = (1i32 << (qk_bits - 1)) - 1;
        for s in [1usize, 63, 64, 65] {
            for d in [1usize, 63, 64, 65] {
                let q = codes(d, max, seed, s as u64);
                let k: Vec<Vec<i32>> = (0..s)
                    .map(|j| codes(d, max, seed, 1_000 + j as u64))
                    .collect();
                // A threshold at the first column's exact product puts one
                // score exactly on the boundary.
                let on_boundary = BitSerialVector::new(
                    &k[0],
                    TileConfig::ae_leopard()
                        .with_qk_bits(*qk_bits)
                        .bit_serial_plan(),
                )
                .full_dot(&q);
                for threshold in [
                    i64::MIN,
                    -1_000_000,
                    -1,
                    0,
                    1,
                    on_boundary,
                    on_boundary + 1,
                    1_000_000,
                    i64::MAX,
                ] {
                    for bits_per_cycle in 1..=4 {
                        assert_pruned_sets_match(&q, &k, threshold, *qk_bits, bits_per_cycle);
                    }
                }
            }
        }
    }
}

proptest! {
    /// The property the functional pass derives pruning-only from: on the
    /// scalar oracle, the early-terminated-or-pruned set equals the set of
    /// scores whose exact product is below the threshold, for any operand
    /// width, reveal granularity, shape and threshold (negative, zero,
    /// within the scores' range, on a score, or beyond any reachable
    /// product).
    #[test]
    fn prop_early_termination_prunes_exactly_the_full_precision_set(
        s in 1usize..70,
        d in 1usize..70,
        width in 0usize..5,
        bits_per_cycle in 1u32..=4,
        threshold_kind in 0u32..5,
        draw in -3_000_000i64..3_000_000,
        seed in 0u64..1_000_000,
    ) {
        let qk_bits = QK_BITS[width];
        let max = (1i32 << (qk_bits - 1)) - 1;
        let q = codes(d, max, seed, 7);
        let k: Vec<Vec<i32>> = (0..s).map(|j| codes(d, max, seed, 100 + j as u64)).collect();
        let threshold = match threshold_kind {
            // Anywhere within the reachable range of scores.
            0 => draw % (d as i64 * i64::from(max) * i64::from(max) / 4 + 1),
            // On a score, or one off it.
            1 => {
                let plan = TileConfig::ae_leopard().with_qk_bits(qk_bits).bit_serial_plan();
                let column = &k[draw.unsigned_abs() as usize % s];
                BitSerialVector::new(column, plan).full_dot(&q) + draw % 2
            }
            2 => 0,
            3 => i64::MAX,
            _ => i64::MIN,
        };
        assert_pruned_sets_match(&q, &k, threshold, qk_bits, bits_per_cycle);
    }
}
