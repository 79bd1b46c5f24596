//! Cycle-level tile simulation.
//!
//! The simulator models one attention head flowing through a LeOPArd tile:
//! every Q row is broadcast to the `N_QK` bit-serial DPUs, each DPU works
//! through its share of the K columns (terminating early where the margin
//! allows), surviving scores and their indices are pushed into the
//! Score/IDX FIFOs, and the single back-end V-PU consumes them — one softmax
//! evaluation plus one 64-wide `·V` MAC operation per surviving score. The
//! front-end of the *next* Q row overlaps with the back-end of the current
//! one; when the back-end is still busy the front-end stalls (Section 4.1).
//!
//! The simulator's outputs are cycle counts, event counts (for the energy
//! model), per-row utilization, and the bit-profile histogram behind Figure 8.
//!
//! Simulation runs in two passes, following the hardware's own
//! front-end/back-end split:
//!
//! 1. The **functional pass** ([`crate::outcomes`]) decides every (Q row, K
//!    column) pair's outcome — cycles spent and pruned or not — into an
//!    [`OutcomeTable`]. Outcomes depend only on the workload, the
//!    bit-serial plan and the pruning flags, never on `N_QK`, so
//!    [`simulate_head`] runs the batched kernel ([`crate::kernel_v2`]) once
//!    per `(head, plan)` with early termination on and caches the table on
//!    the [`HeadWorkload`]. Every configuration sharing the plan (AE, HP,
//!    pruning-only, every `N_QK` design point) reuses it, and the unpruned
//!    baseline needs no table at all: its outcomes are analytic.
//!    [`simulate_head_reference`] fills the same table from the scalar
//!    per-element DPU ([`crate::dpu`]), the single oracle, under each
//!    configuration's own flags.
//! 2. The **timing pass** ([`timing_pass`]) deals each row's pair cycles
//!    round-robin over the configuration's `N_QK` DPUs, takes the busiest
//!    DPU as the row's front-end time, and runs the pipeline recurrence.
//!    One timing pass serves the kernel and the reference alike, so kernel
//!    ≡ reference is a statement about outcomes only.
//!
//! The timing pass operates at **shard** granularity: a contiguous range of
//! Q rows yields a [`TileShardSim`], and [`merge_shards`] reconstructs the
//! exact single-tile [`HeadSimResult`] from any contiguous shard
//! decomposition — the mechanism behind the multi-tile scheduler in
//! [`crate::schedule`] and its determinism contract (partitioning never
//! changes merged results).

use crate::config::TileConfig;
use crate::kernel_v2::{fits_i16_operand, KernelPath, PackedKeys};
use crate::outcomes::{OutcomeTable, PruningMode, CYCLES_MASK};
use leopard_quant::bitserial::BitSerialPlan;
use leopard_quant::fixed::QuantParams;
use leopard_tensor::Matrix;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A quantized attention-head workload ready for simulation.
#[derive(Debug, Clone)]
pub struct HeadWorkload {
    /// Quantized Q codes, one row per query token (`s x d`).
    pub q_codes: Vec<Vec<i32>>,
    /// Quantized K codes, one row per key token (`s x d`).
    pub k_codes: Vec<Vec<i32>>,
    /// Pruning threshold in the integer product domain.
    pub threshold_int: i64,
    /// Head dimension `d`.
    pub head_dim: usize,
    /// Lazily-built functional-pass [`OutcomeTable`]s of this head, one per
    /// bit-serial plan, shared across simulation units and design points.
    /// Cloning a workload keeps the cache warm (the entries are
    /// `Arc`-shared).
    ///
    /// Invariant: the cache must stay in sync with `q_codes` and `k_codes`
    /// — build workloads through [`HeadWorkload::from_codes`] /
    /// [`HeadWorkload::from_float`] rather than mutating the codes in
    /// place. Entries are keyed by `threshold_int` too, so a copy with a
    /// different threshold never reads a stale table. A struct literal may
    /// start it empty ([`OutcomeCache::default`]); entries are built on
    /// first use.
    pub outcome_cache: OutcomeCache,
}

/// The per-workload cache behind [`HeadWorkload::outcome_table`]:
/// early-termination outcome tables keyed by `(threshold, magnitude bits,
/// bits per cycle)` behind `Arc`, so concurrent simulation units share one
/// functional pass. It holds tables only: the kernel's packed operands are
/// transient.
#[derive(Debug, Default)]
pub struct OutcomeCache {
    tables: Mutex<BTreeMap<(i64, u32, u32), Arc<OutcomeTable>>>,
}

impl OutcomeCache {
    /// The resident tables, in key order.
    pub fn tables(&self) -> Vec<Arc<OutcomeTable>> {
        // lint:allow(panic-in-library, reason = "mutex poisoning requires a prior panic while holding the lock; the guarded sections only run the functional pass and insert, so propagating the poison panic is the correct failure mode")
        self.tables.lock().unwrap().values().cloned().collect()
    }
}

impl Clone for OutcomeCache {
    /// Clones the cache *contents* (cheap `Arc` clones), so a cloned
    /// workload starts warm instead of re-running the functional pass.
    fn clone(&self) -> Self {
        // lint:allow(panic-in-library, reason = "mutex poisoning requires a prior panic while holding the lock; the guarded sections only run the functional pass and insert, so propagating the poison panic is the correct failure mode")
        let tables = self.tables.lock().unwrap().clone();
        Self {
            tables: Mutex::new(tables),
        }
    }
}

impl HeadWorkload {
    /// Builds a workload from float Q/K matrices and a float threshold
    /// (expressed in the scaled score domain, i.e. after the `1/sqrt(d)`
    /// factor), quantizing both operands to `qk_bits`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `q` and `k` differ, or on any
    /// [`HeadWorkload::from_codes`] precondition — in particular `qk_bits`
    /// above 16, whose Q codes leave the kernel's `i16` operand range.
    pub fn from_float(q: &Matrix, k: &Matrix, threshold: f32, qk_bits: u32) -> Self {
        assert_eq!(q.shape(), k.shape(), "Q and K must share shape");
        let d = q.cols();
        let qp = QuantParams::calibrate(qk_bits, q);
        let kp = QuantParams::calibrate(qk_bits, k);
        let qq = qp.quantize_matrix(q);
        let kq = kp.quantize_matrix(k);
        // real_score = int_dot * product_scale / sqrt(d) ⇒ threshold_int.
        let score_scale = qq.product_scale(&kq) / (d as f32).sqrt();
        let threshold_int = (threshold / score_scale).round() as i64;
        Self::from_codes(
            (0..q.rows()).map(|r| qq.row(r).to_vec()).collect(),
            (0..k.rows()).map(|r| kq.row(r).to_vec()).collect(),
            threshold_int,
            d,
            qk_bits,
        )
    }

    /// Builds a workload from already-quantized `qk_bits`-wide codes.
    ///
    /// # Panics
    ///
    /// Panics if `qk_bits` is not in `2..=32`, any K magnitude does not fit
    /// in the `qk_bits - 1` magnitude bits of the operand width, or any Q
    /// code lies outside the kernel's `i16` operand range `±i16::MAX`.
    pub fn from_codes(
        q_codes: Vec<Vec<i32>>,
        k_codes: Vec<Vec<i32>>,
        threshold_int: i64,
        head_dim: usize,
        qk_bits: u32,
    ) -> Self {
        assert!((2..=32).contains(&qk_bits), "qk_bits must be in 2..=32");
        let max_magnitude = (1u32 << (qk_bits - 1)) - 1;
        for &code in k_codes.iter().flatten() {
            assert!(
                code.unsigned_abs() <= max_magnitude,
                "K magnitude {} does not fit in {} bits",
                code.unsigned_abs(),
                qk_bits - 1
            );
        }
        assert!(
            q_codes.iter().flatten().all(|&q| fits_i16_operand(q)),
            "Q code outside the i16 operand range ±{}",
            i16::MAX
        );
        Self {
            q_codes,
            k_codes,
            threshold_int,
            head_dim,
            outcome_cache: OutcomeCache::default(),
        }
    }

    /// Sequence length of the workload.
    pub fn seq_len(&self) -> usize {
        self.q_codes.len()
    }

    /// The functional pass for a bit-serial plan: the early-termination
    /// [`OutcomeTable`] of every Q row, computed on the batched kernel at
    /// most once per `(threshold, plan)` per workload and shared behind an
    /// `Arc` — every shard, configuration and repeated simulation of this
    /// head under the plan reuses one kernel sweep.
    pub fn outcome_table(&self, plan: BitSerialPlan) -> Arc<OutcomeTable> {
        let key = (self.threshold_int, plan.magnitude_bits, plan.bits_per_cycle);
        // lint:allow(panic-in-library, reason = "mutex poisoning requires a prior panic while holding the lock; the guarded section only runs the functional pass and inserts, so propagating the poison panic is the correct failure mode")
        let mut tables = self.outcome_cache.tables.lock().unwrap();
        if let Some(hit) = tables.get(&key) {
            return Arc::clone(hit);
        }
        // The pack lives only as long as the pass: the cache keeps tables.
        let packed = PackedKeys::pack(&self.k_codes, plan);
        let built = Arc::new(OutcomeTable::from_kernel(
            self,
            &packed,
            0..self.seq_len(),
            KernelPath::detect(),
        ));
        tables.insert(key, Arc::clone(&built));
        built
    }
}

/// Raw event counts accumulated while simulating a head. These feed the
/// energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// DPU execution cycles summed over all DPUs (each cycle is one
    /// `d`-tap x `B`-bit MAC operation against the key buffer).
    pub qk_dpu_cycles: u64,
    /// Key-buffer read events (one per DPU cycle — the buffer streams `B`
    /// bits of each of the `d` K elements per cycle).
    pub key_buffer_reads: u64,
    /// Softmax evaluations (one per surviving score).
    pub softmax_ops: u64,
    /// Back-end `·V` MAC-array operations (one 64-wide operation per
    /// surviving score).
    pub v_mac_ops: u64,
    /// Value-buffer read events (one row of V per surviving score).
    pub value_buffer_reads: u64,
    /// Scores pushed into the Score/IDX FIFOs.
    pub fifo_pushes: u64,
}

/// Result of simulating one attention head.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadSimResult {
    /// Total cycles to drain the head (front-end and back-end overlapped).
    pub total_cycles: u64,
    /// Cycles the front-end (QK-PU) was busy.
    pub frontend_busy_cycles: u64,
    /// Cycles of useful back-end (V-PU) work.
    pub backend_busy_cycles: u64,
    /// Cycles the front-end spent stalled waiting for the back-end.
    pub frontend_stall_cycles: u64,
    /// Back-end utilization: useful V-PU cycles over total cycles. Values
    /// above 1.0 cannot occur here; the Figure 13 sweep instead reports
    /// *demand* utilization which can exceed 1.0 when the V-PU is
    /// oversubscribed.
    pub vpu_utilization: f64,
    /// Demand placed on the V-PU relative to the front-end's unstalled
    /// completion time (can exceed 1.0; the quantity swept in Figure 13).
    pub vpu_demand: f64,
    /// Number of scores pruned (early-terminated or full-precision pruned).
    pub pruned_scores: u64,
    /// Number of scores that survived to the back-end.
    pub surviving_scores: u64,
    /// Histogram over K magnitude bits processed: entry `b` counts dot
    /// products that stopped after exactly `b` bits (index 0 unused).
    pub bits_histogram: Vec<u64>,
    /// Histogram over K magnitude bits processed for *pruned* scores only,
    /// used by the Figure 8 cumulative-pruning curve.
    pub pruned_bits_histogram: Vec<u64>,
    /// Event counts for the energy model.
    pub events: EventCounts,
}

impl HeadSimResult {
    /// Fraction of scores pruned.
    pub fn pruning_rate(&self) -> f64 {
        let total = self.pruned_scores + self.surviving_scores;
        if total == 0 {
            0.0
        } else {
            self.pruned_scores as f64 / total as f64
        }
    }

    /// Mean number of K magnitude bits processed per score.
    pub fn mean_bits_processed(&self) -> f64 {
        let total: u64 = self.bits_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .bits_histogram
            .iter()
            .enumerate()
            .map(|(bits, &count)| bits as u64 * count)
            .sum();
        weighted as f64 / total as f64
    }

    /// How the head's dot products left the reveal window — see
    /// [`TileShardSim::outcome_mix`].
    pub fn outcome_mix(&self) -> OutcomeMix {
        OutcomeMix::from_counts(
            self.pruned_scores,
            self.surviving_scores,
            &self.pruned_bits_histogram,
        )
    }

    /// Cumulative fraction of scores already pruned once `bits` magnitude
    /// bits have been processed (the Figure 8 curve). Scores that were never
    /// pruned do not contribute.
    pub fn cumulative_pruning_by_bits(&self, bits: usize) -> f64 {
        let total = self.pruned_scores + self.surviving_scores;
        if total == 0 {
            return 0.0;
        }
        let pruned_by_now: u64 = self
            .pruned_bits_histogram
            .iter()
            .take(bits.saturating_add(1))
            .sum();
        pruned_by_now as f64 / total as f64
    }
}

/// Simulates one attention head on a tile: the functional pass on the
/// batched bit-parallel kernel ([`HeadWorkload::outcome_table`], cached per
/// plan) with the best dispatch path this machine supports, then the timing
/// pass. Results are **bit-identical** to [`simulate_head_reference`] — the
/// kernel ≡ reference contract enforced by the differential tests.
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload is degenerate
/// (zero-length sequence).
pub fn simulate_head(workload: &HeadWorkload, config: &TileConfig) -> HeadSimResult {
    assert!(
        workload.seq_len() > 0,
        "workload must contain at least one query"
    );
    merge_shards(&[simulate_head_shard(workload, config, 0..workload.seq_len())])
}

/// [`simulate_head`] on an explicitly requested dispatch path (resolved
/// against the machine — see [`KernelPath::resolve`]). The functional pass
/// runs afresh on that path instead of reading the workload's cache, so the
/// dispatch-layer differential tests pin the wide and portable paths
/// byte-identical on the same inputs.
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload is degenerate
/// (zero-length sequence).
pub fn simulate_head_with_path(
    workload: &HeadWorkload,
    config: &TileConfig,
    path: KernelPath,
) -> HeadSimResult {
    assert!(
        workload.seq_len() > 0,
        "workload must contain at least one query"
    );
    merge_shards(&[simulate_head_shard_with_path(
        workload,
        config,
        0..workload.seq_len(),
        path,
    )])
}

/// Simulates one contiguous shard of a head's Q rows — the unit of
/// tile-level parallelism. Every row still sees all K columns (only the Q
/// dimension is partitioned across tiles), so per-row accounting is
/// identical to the whole-head paths; the shard additionally records the
/// boundary timing terms ([`merge_shards`] needs) that make the merge of
/// contiguous shards bit-identical to simulating the head in one piece.
///
/// Pruning configurations read the workload's cached functional pass, so
/// only the first shard of a `(head, plan)` runs the kernel and the rest
/// are timing-only; the baseline's outcomes are analytic. An empty `rows`
/// range yields the identity shard (all-zero accounting).
///
/// # Panics
///
/// Panics if the configuration is invalid or `rows` does not lie within
/// the workload's sequence.
pub fn simulate_head_shard(
    workload: &HeadWorkload,
    config: &TileConfig,
    rows: Range<usize>,
) -> TileShardSim {
    simulate_shard_on(workload, config, rows, |plan| workload.outcome_table(plan))
}

/// [`simulate_head_shard`] on an explicitly requested dispatch path — the
/// shard-granular counterpart of [`simulate_head_with_path`]. The
/// functional pass covers just `rows` and bypasses the workload's cache.
///
/// # Panics
///
/// Panics if the configuration is invalid or `rows` does not lie within
/// the workload's sequence.
pub fn simulate_head_shard_with_path(
    workload: &HeadWorkload,
    config: &TileConfig,
    rows: Range<usize>,
    path: KernelPath,
) -> TileShardSim {
    simulate_shard_on(workload, config, rows.clone(), |plan| {
        let packed = PackedKeys::pack(&workload.k_codes, plan);
        Arc::new(OutcomeTable::from_kernel(workload, &packed, rows, path))
    })
}

/// [`simulate_head_shard`] on the scalar per-pair reference DPU — the
/// shard-granular counterpart of [`simulate_head_reference`], used by the
/// tile-conformance tests to pin the partitioned path to the reference on
/// both axes (inner loop *and* partitioning) at once. The DPU runs under
/// the configuration's own flags, with no derivation shortcuts.
///
/// # Panics
///
/// Panics if the configuration is invalid or `rows` does not lie within
/// the workload's sequence.
pub fn simulate_head_shard_reference(
    workload: &HeadWorkload,
    config: &TileConfig,
    rows: Range<usize>,
) -> TileShardSim {
    let table = OutcomeTable::from_reference(workload, config, rows.clone());
    timing_pass(&table, config, rows)
}

/// Simulates one attention head with the scalar per-pair [`QkDpu`] — the
/// reference implementation the kernel path is differentially tested (and
/// benchmarked) against. Same timing pass, same results, no incremental
/// arithmetic.
///
/// [`QkDpu`]: crate::dpu::QkDpu
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload is degenerate
/// (zero-length sequence).
pub fn simulate_head_reference(workload: &HeadWorkload, config: &TileConfig) -> HeadSimResult {
    assert!(
        workload.seq_len() > 0,
        "workload must contain at least one query"
    );
    merge_shards(&[simulate_head_shard_reference(
        workload,
        config,
        0..workload.seq_len(),
    )])
}

/// The kernel side of a shard simulation: pruning configurations time the
/// functional table `table` yields for their plan; the unpruned baseline
/// times its analytic table and never calls the kernel.
fn simulate_shard_on(
    workload: &HeadWorkload,
    config: &TileConfig,
    rows: Range<usize>,
    table: impl FnOnce(BitSerialPlan) -> Arc<OutcomeTable>,
) -> TileShardSim {
    assert_valid(config);
    assert!(
        rows.start <= rows.end && rows.end <= workload.seq_len(),
        "shard rows {rows:?} outside the workload's {} queries",
        workload.seq_len()
    );
    let plan = config.bit_serial_plan();
    if config.pruning_enabled {
        timing_pass(&table(plan), config, rows)
    } else {
        let analytic = OutcomeTable::unpruned(plan, rows.clone(), workload.k_codes.len());
        timing_pass(&analytic, config, rows)
    }
}

fn assert_valid(config: &TileConfig) {
    config
        .validate()
        // lint:allow(panic-in-library, reason = "simulation entry points document invalid configurations under # Panics; configs are validated at parse time and invalid ones here are programmer errors")
        .unwrap_or_else(|e| panic!("invalid tile config: {e}"));
}

/// Softmax pipeline overhead per surviving score in the back-end (exponent
/// lookup + accumulate + weighted MAC) — one score per cycle, matching the
/// 1-D MAC array that consumes scores sequentially.
const BACKEND_CYCLES_PER_SCORE: u64 = 1;

/// Cycle/event accounting of one contiguous shard of a head's Q rows.
///
/// The per-row pipeline timing of [`HeadSimResult`] follows the recurrence
/// "front-end advance of row `i` = `max(fe_i, be_{i-1})`" (the front-end of
/// row `i` overlaps the back-end of row `i-1` and stalls when the back-end
/// is slower). The only state that crosses a row boundary is the previous
/// row's back-end cycles, so a contiguous shard can be summarized exactly
/// by its interior advance plus two boundary terms
/// ([`first_row_frontend_cycles`](Self::first_row_frontend_cycles) and
/// [`last_row_backend_cycles`](Self::last_row_backend_cycles)) — which is
/// what lets [`merge_shards`] reconstruct the single-tile result
/// bit-identically from independently-simulated shards, in any execution
/// order. All counter fields are plain sums over the shard's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileShardSim {
    /// The contiguous Q-row range this shard covers (empty ranges are
    /// legal: a tile left without rows contributes the identity shard).
    pub rows: Range<usize>,
    /// Σ per-row front-end cycles (the busiest DPU's cycles, per row).
    pub frontend_busy_cycles: u64,
    /// Σ per-row back-end cycles (one per surviving score).
    pub backend_busy_cycles: u64,
    /// Event counts over the shard's rows.
    pub events: EventCounts,
    /// Scores pruned within the shard.
    pub pruned_scores: u64,
    /// Scores surviving within the shard.
    pub surviving_scores: u64,
    /// Histogram over K magnitude bits processed (see
    /// [`HeadSimResult::bits_histogram`]).
    pub bits_histogram: Vec<u64>,
    /// Histogram over K magnitude bits processed for pruned scores only.
    pub pruned_bits_histogram: Vec<u64>,
    /// Front-end cycles of the shard's first row (0 when empty) — the term
    /// that interacts with the previous shard's trailing back-end work.
    pub first_row_frontend_cycles: u64,
    /// Back-end cycles of the shard's last row (0 when empty) — the term
    /// the next shard's first row overlaps with.
    pub last_row_backend_cycles: u64,
    /// Σ over the shard's rows *after the first* of
    /// `max(fe_i, be_{i-1})` — the front-end advance of the interior rows
    /// under the pipeline recurrence.
    pub interior_advance_cycles: u64,
}

impl TileShardSim {
    /// Whether the shard covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Pipeline cycles this shard needs when it runs *alone* on one tile
    /// from cycle 0 — the quantity whose maximum over a head's shards is
    /// the multi-tile makespan. Zero for an empty shard; matches
    /// [`HeadSimResult::total_cycles`] exactly when the shard covers the
    /// whole head.
    pub fn standalone_cycles(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.first_row_frontend_cycles
                + self.interior_advance_cycles
                + self.last_row_backend_cycles)
                .max(1)
        }
    }

    /// How the shard's dot products left the bit-serial reveal window,
    /// split by where the reveal loop stopped: pruned strictly before the
    /// full magnitude width (the early-termination win), pruned only once
    /// every magnitude bit was revealed, or surviving to the back-end.
    /// The three classes partition `pruned_scores + surviving_scores`.
    pub fn outcome_mix(&self) -> OutcomeMix {
        OutcomeMix::from_counts(
            self.pruned_scores,
            self.surviving_scores,
            &self.pruned_bits_histogram,
        )
    }
}

/// Reveal-window outcome mix of a shard's dot products — see
/// [`TileShardSim::outcome_mix`]. Exported as telemetry counters by the
/// runtime so the pruning behaviour behind a speedup number is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeMix {
    /// Scores pruned before the full magnitude width was revealed.
    pub early_terminated: u64,
    /// Scores pruned only at the full magnitude width.
    pub full_precision_pruned: u64,
    /// Scores that survived the threshold and reached the back-end.
    pub surviving: u64,
}

impl OutcomeMix {
    fn from_counts(pruned: u64, surviving: u64, pruned_bits_histogram: &[u64]) -> Self {
        let full_precision_pruned = pruned_bits_histogram.last().copied().unwrap_or(0);
        Self {
            early_terminated: pruned - full_precision_pruned,
            full_precision_pruned,
            surviving,
        }
    }

    /// Total scores across the three classes.
    pub fn total(&self) -> u64 {
        self.early_terminated + self.full_precision_pruned + self.surviving
    }
}

/// Merges contiguous shard accountings into the **exact** single-tile
/// [`HeadSimResult`]: the result is bit-identical — every field, including
/// cycle totals, stalls, and utilization — to simulating the same rows in
/// one piece. Counters and histograms are sums; the timing fields replay
/// the pipeline recurrence across the shard boundaries (see
/// [`TileShardSim`]). Empty shards are identities and may appear anywhere.
///
/// This is the merge/determinism contract of the tile scheduler
/// (`crate::schedule`): partitioning a head across tiles changes *where*
/// rows execute and what the per-tile makespan is, never the merged
/// result.
///
/// # Panics
///
/// Panics if no shard covers any row, if the non-empty shards are not
/// contiguous in ascending row order, or if histogram widths disagree
/// (shards simulated under different tile configurations).
pub fn merge_shards(shards: &[TileShardSim]) -> HeadSimResult {
    let mut events = EventCounts::default();
    let mut pruned_scores = 0u64;
    let mut surviving_scores = 0u64;
    let mut bits_histogram: Vec<u64> = Vec::new();
    let mut pruned_bits_histogram: Vec<u64> = Vec::new();
    let mut frontend_busy = 0u64;
    let mut backend_busy = 0u64;
    // The pipeline state the recurrence threads across rows: the front-end
    // hand-off clock and the previous row's back-end cycles.
    let mut frontend_free = 0u64;
    let mut prev_backend = 0u64;
    let mut rows_merged = 0usize;
    let mut expected_start: Option<usize> = None;

    for shard in shards {
        if bits_histogram.is_empty() {
            bits_histogram = vec![0; shard.bits_histogram.len()];
            pruned_bits_histogram = vec![0; shard.pruned_bits_histogram.len()];
        }
        assert_eq!(
            shard.bits_histogram.len(),
            bits_histogram.len(),
            "shards were simulated under different bit-serial plans"
        );
        for (slot, &count) in bits_histogram.iter_mut().zip(&shard.bits_histogram) {
            *slot += count;
        }
        for (slot, &count) in pruned_bits_histogram
            .iter_mut()
            .zip(&shard.pruned_bits_histogram)
        {
            *slot += count;
        }
        events.qk_dpu_cycles += shard.events.qk_dpu_cycles;
        events.key_buffer_reads += shard.events.key_buffer_reads;
        events.softmax_ops += shard.events.softmax_ops;
        events.v_mac_ops += shard.events.v_mac_ops;
        events.value_buffer_reads += shard.events.value_buffer_reads;
        events.fifo_pushes += shard.events.fifo_pushes;
        pruned_scores += shard.pruned_scores;
        surviving_scores += shard.surviving_scores;
        frontend_busy += shard.frontend_busy_cycles;
        backend_busy += shard.backend_busy_cycles;

        if shard.is_empty() {
            continue;
        }
        if let Some(expected) = expected_start {
            assert_eq!(
                shard.rows.start, expected,
                "tile shards must be contiguous in ascending row order"
            );
        }
        expected_start = Some(shard.rows.end);
        rows_merged += shard.rows.len();
        // The shard's first row overlaps the previous shard's trailing
        // back-end work; its interior rows already carry their advance.
        frontend_free +=
            shard.first_row_frontend_cycles.max(prev_backend) + shard.interior_advance_cycles;
        prev_backend = shard.last_row_backend_cycles;
    }

    assert!(rows_merged > 0, "merge requires at least one simulated row");
    let total_cycles = (frontend_free + prev_backend).max(1);
    let frontend_unstalled = frontend_busy.max(1);
    HeadSimResult {
        total_cycles,
        frontend_busy_cycles: frontend_busy,
        backend_busy_cycles: backend_busy,
        // The front-end clock advances by fe_i + stall_i per row, so the
        // total stall is the advance beyond the busy time.
        frontend_stall_cycles: frontend_free - frontend_busy,
        vpu_utilization: backend_busy as f64 / total_cycles as f64,
        vpu_demand: backend_busy as f64 / frontend_unstalled as f64,
        pruned_scores,
        surviving_scores,
        bits_histogram,
        pruned_bits_histogram,
        events,
    }
}

/// The timing pass: turns a functional [`OutcomeTable`] into the cycle
/// timing, event counts and histograms of the shard `rows` under `config`.
///
/// Each row's pair cycles are dealt round-robin over the configuration's
/// `N_QK` DPUs (pair `j` to DPU `j mod N_QK`, folded in chunks of `N_QK`);
/// the busiest DPU sets the row's front-end time, and the row's back-end
/// time is one cycle per surviving score. Counters come from the table's
/// per-row counts, which do not depend on `N_QK`. The table is read through
/// [`OutcomeTable::for_mode`], so an early-termination table also serves
/// the pruning-only and unpruned modes of the same plan.
///
/// This is the single accounting loop behind every simulation path: the
/// kernel ≡ reference equivalence is a statement about tables only, and the
/// tile ≡ single-tile equivalence a statement about [`merge_shards`] only.
///
/// # Panics
///
/// Panics if the configuration is invalid, its bit-serial plan differs from
/// the table's, the table cannot stand in for its pruning mode, or `rows`
/// does not lie within the table's rows.
pub fn timing_pass(table: &OutcomeTable, config: &TileConfig, rows: Range<usize>) -> TileShardSim {
    assert_valid(config);
    let plan = config.bit_serial_plan();
    assert_eq!(
        table.plan(),
        plan,
        "outcomes recorded under a different bit-serial plan"
    );
    let covered = table.rows();
    assert!(
        covered.start <= rows.start && rows.start <= rows.end && rows.end <= covered.end,
        "shard rows {rows:?} outside the table's rows {covered:?}"
    );
    let table = table.for_mode(PruningMode::of(config));
    let max_bits = plan.magnitude_bits as usize;
    let cols = table.cols() as u64;
    // Without per-pair cycles every pair costs the full window, and DPU 0
    // holds the most pairs: ⌈cols / N_QK⌉.
    let full_window_frontend = cols.div_ceil(config.n_qk_dpu as u64) * table.total_cycles() as u64;
    let mut shard = TileShardSim {
        rows: rows.clone(),
        frontend_busy_cycles: 0,
        backend_busy_cycles: 0,
        events: EventCounts::default(),
        pruned_scores: 0,
        surviving_scores: 0,
        bits_histogram: vec![0u64; max_bits + 1],
        pruned_bits_histogram: vec![0u64; max_bits + 1],
        first_row_frontend_cycles: 0,
        last_row_backend_cycles: 0,
        interior_advance_cycles: 0,
    };

    // Per-DPU cycle lanes, allocated once per shard and reused across rows.
    let mut lanes = vec![0u32; config.n_qk_dpu];
    let mut prev_backend = 0u64;

    for (offset, row) in rows.enumerate() {
        // --- Front-end: the row's counts (independent of N_QK), then the
        // busiest DPU under this configuration's round-robin deal.
        let (stopped, pruned) = table.row_counts(row);
        let mut row_pruned = 0u64;
        for (cycle, (&all, &cut)) in (1u32..).zip(stopped.iter().zip(pruned)) {
            let bits = plan.bits_after(cycle) as usize;
            shard.bits_histogram[bits] += u64::from(all);
            shard.pruned_bits_histogram[bits] += u64::from(cut);
            shard.events.qk_dpu_cycles += u64::from(cycle) * u64::from(all);
            row_pruned += u64::from(cut);
        }
        let row_survivors = cols - row_pruned;
        let row_frontend_cycles = match table.row_pairs(row) {
            Some(pairs) => busiest_dpu_cycles(pairs, &mut lanes),
            None => full_window_frontend,
        };
        let row_backend_cycles = row_survivors * BACKEND_CYCLES_PER_SCORE;

        // --- Timing: the front-end of this row overlaps the back-end of
        // the previous one, so its advance is max(fe_i, be_{i-1}). The
        // first row's advance depends on the *previous shard's* trailing
        // back-end work, which only the merge knows — record its fe as a
        // boundary term instead.
        if offset == 0 {
            shard.first_row_frontend_cycles = row_frontend_cycles;
        } else {
            shard.interior_advance_cycles += row_frontend_cycles.max(prev_backend);
        }
        prev_backend = row_backend_cycles;

        shard.frontend_busy_cycles += row_frontend_cycles;
        shard.backend_busy_cycles += row_backend_cycles;
        shard.pruned_scores += row_pruned;
        shard.surviving_scores += row_survivors;
        shard.events.fifo_pushes += row_survivors;
        shard.events.softmax_ops += row_survivors;
        shard.events.v_mac_ops += row_survivors;
        shard.events.value_buffer_reads += row_survivors;
    }
    // Each DPU cycle streams one slice of the key buffer.
    shard.events.key_buffer_reads = shard.events.qk_dpu_cycles;
    shard.last_row_backend_cycles = prev_backend;
    shard
}

/// Deals one row's pair cycles round-robin over the DPU `lanes` — pair `j`
/// to lane `j mod lanes.len()`, folded in chunks of one pair per lane — and
/// returns the busiest lane's cycles.
fn busiest_dpu_cycles(pairs: &[u8], lanes: &mut [u32]) -> u64 {
    lanes.fill(0);
    for chunk in pairs.chunks(lanes.len()) {
        for (lane, &pair) in lanes.iter_mut().zip(chunk) {
            *lane += u32::from(pair & CYCLES_MASK);
        }
    }
    lanes.iter().copied().max().map_or(0, u64::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;

    fn workload(s: usize, d: usize, threshold: f32, seed: u64) -> HeadWorkload {
        let mut r = rng::seeded(seed);
        let q = rng::normal_matrix(&mut r, s, d, 0.0, 1.0);
        let k = rng::normal_matrix(&mut r, s, d, 0.0, 1.0);
        HeadWorkload::from_float(&q, &k, threshold, 12)
    }

    #[test]
    fn baseline_cycles_match_analytical_expectation() {
        // Baseline: one DPU, one cycle per dot product, no pruning, so the
        // front-end needs s cycles per row and the back-end s cycles per row.
        let w = workload(16, 32, 0.0, 1);
        let result = simulate_head(&w, &TileConfig::baseline());
        assert_eq!(result.pruned_scores, 0);
        assert_eq!(result.surviving_scores, (16 * 16) as u64);
        assert_eq!(result.frontend_busy_cycles, (16 * 16) as u64);
        assert_eq!(result.backend_busy_cycles, (16 * 16) as u64);
        // Front and back ends are perfectly balanced: total ≈ 2s + (s-1)*s.
        assert!(result.total_cycles >= result.frontend_busy_cycles);
    }

    #[test]
    fn leopard_prunes_and_is_faster_than_baseline() {
        let w = workload(32, 64, 0.3, 2);
        let base = simulate_head(&w, &TileConfig::baseline());
        let ae = simulate_head(&w, &TileConfig::ae_leopard());
        assert!(
            ae.pruned_scores > 0,
            "threshold 0.3 should prune many scores"
        );
        assert!(ae.pruning_rate() > 0.3);
        assert!(
            ae.total_cycles < base.total_cycles,
            "AE-LeOPArd ({}) should beat baseline ({})",
            ae.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn hp_is_at_least_as_fast_as_ae() {
        let w = workload(32, 64, 0.2, 3);
        let ae = simulate_head(&w, &TileConfig::ae_leopard());
        let hp = simulate_head(&w, &TileConfig::hp_leopard());
        assert!(hp.total_cycles <= ae.total_cycles);
    }

    #[test]
    fn early_termination_reduces_dpu_cycles_compared_to_pruning_only() {
        let w = workload(32, 64, 0.3, 4);
        let pruning_only = simulate_head(&w, &TileConfig::pruning_only());
        let full = simulate_head(&w, &TileConfig::ae_leopard());
        assert!(full.events.qk_dpu_cycles < pruning_only.events.qk_dpu_cycles);
        // Both prune the same set of scores (the margin is exact).
        assert_eq!(full.pruned_scores, pruning_only.pruned_scores);
        assert!(full.mean_bits_processed() < pruning_only.mean_bits_processed());
    }

    #[test]
    fn event_counts_are_consistent_with_survivors() {
        let w = workload(24, 32, 0.2, 5);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        assert_eq!(r.events.softmax_ops, r.surviving_scores);
        assert_eq!(r.events.v_mac_ops, r.surviving_scores);
        assert_eq!(r.events.value_buffer_reads, r.surviving_scores);
        assert_eq!(r.events.fifo_pushes, r.surviving_scores);
        assert_eq!(r.pruned_scores + r.surviving_scores, (24 * 24) as u64);
        assert_eq!(r.events.qk_dpu_cycles, r.events.key_buffer_reads);
    }

    #[test]
    fn utilization_and_demand_are_sane() {
        let w = workload(16, 32, 0.0, 6);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        assert!(r.vpu_utilization > 0.0 && r.vpu_utilization <= 1.0);
        assert!(r.vpu_demand > 0.0);
        // More DPUs raise demand on the shared V-PU.
        let r12 = simulate_head(&w, &TileConfig::ae_leopard().with_n_qk(12));
        let r3 = simulate_head(&w, &TileConfig::ae_leopard().with_n_qk(3));
        assert!(r12.vpu_demand > r3.vpu_demand);
    }

    #[test]
    fn outcome_mix_partitions_every_score() {
        let w = workload(24, 32, 0.25, 9);
        let shard = simulate_head_shard(&w, &TileConfig::ae_leopard(), 0..24);
        let mix = shard.outcome_mix();
        assert_eq!(mix.total(), (24 * 24) as u64);
        assert_eq!(
            mix.early_terminated + mix.full_precision_pruned,
            shard.pruned_scores
        );
        assert_eq!(mix.surviving, shard.surviving_scores);
        assert!(
            mix.early_terminated > 0,
            "threshold 0.25 should stop some reveals early"
        );
        // The pruning-only configuration cannot terminate early: every
        // pruned score pays the full magnitude width.
        let po = simulate_head_shard(&w, &TileConfig::pruning_only(), 0..24).outcome_mix();
        assert_eq!(po.early_terminated, 0);
        assert_eq!(po.full_precision_pruned + po.surviving, mix.total());
    }

    #[test]
    fn bits_histogram_sums_to_total_scores() {
        let w = workload(16, 32, 0.25, 7);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        let total: u64 = r.bits_histogram.iter().sum();
        assert_eq!(total, (16 * 16) as u64);
        assert!(r.mean_bits_processed() > 0.0);
        assert!(r.mean_bits_processed() <= 11.0);
    }

    #[test]
    fn higher_threshold_increases_pruning_and_reduces_cycles() {
        let w_low = workload(24, 64, 0.0, 8);
        let w_high = HeadWorkload {
            threshold_int: w_low.threshold_int + 100_000,
            ..w_low.clone()
        };
        let cfg = TileConfig::ae_leopard();
        let low = simulate_head(&w_low, &cfg);
        let high = simulate_head(&w_high, &cfg);
        assert!(high.pruning_rate() >= low.pruning_rate());
        assert!(high.total_cycles <= low.total_cycles);
    }

    #[test]
    fn sparse_threshold_matches_quantile_expectation() {
        // Threshold at 0 on zero-mean scores should prune roughly half.
        let w = workload(32, 64, 0.0, 9);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        let rate = r.pruning_rate();
        assert!((0.35..0.65).contains(&rate), "rate {rate} not near 0.5");
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_workload_panics() {
        let w = HeadWorkload {
            q_codes: vec![],
            k_codes: vec![],
            threshold_int: 0,
            head_dim: 4,
            outcome_cache: OutcomeCache::default(),
        };
        let _ = simulate_head(&w, &TileConfig::ae_leopard());
    }

    #[test]
    fn kernel_path_is_bit_identical_to_reference_path() {
        // The kernel ≡ reference contract at head granularity: every
        // HeadSimResult field (cycles, histograms, events, utilization)
        // matches exactly, for every preset, on both sides of the pruning
        // threshold and across word-boundary head dimensions.
        for (s, d, threshold, seed) in [(24, 64, 0.3, 11), (16, 32, 0.0, 12), (9, 100, 0.5, 13)] {
            let w = workload(s, d, threshold, seed);
            for config in [
                TileConfig::baseline(),
                TileConfig::ae_leopard(),
                TileConfig::hp_leopard(),
                TileConfig::pruning_only(),
            ] {
                assert_eq!(
                    simulate_head(&w, &config),
                    simulate_head_reference(&w, &config),
                    "kernel/reference divergence on {} (s={s}, d={d})",
                    config.name
                );
            }
        }
    }

    #[test]
    fn merged_shards_reconstruct_the_whole_head_exactly() {
        // Splitting the rows at any boundary — including degenerate empty
        // shards — merges back to the bit-identical whole-head result.
        let w = workload(17, 48, 0.3, 41);
        for config in [TileConfig::ae_leopard(), TileConfig::baseline()] {
            let whole = simulate_head(&w, &config);
            for split in [0usize, 1, 8, 16, 17] {
                let shards = [
                    simulate_head_shard(&w, &config, 0..split),
                    simulate_head_shard(&w, &config, split..17),
                ];
                assert_eq!(
                    merge_shards(&shards),
                    whole,
                    "split at {split} diverged on {}",
                    config.name
                );
            }
            // Shard-granular reference path agrees too.
            let shards = [
                simulate_head_shard_reference(&w, &config, 0..5),
                simulate_head_shard_reference(&w, &config, 5..17),
            ];
            assert_eq!(merge_shards(&shards), whole);
        }
    }

    #[test]
    fn empty_shard_is_the_identity() {
        let w = workload(9, 32, 0.2, 42);
        let cfg = TileConfig::ae_leopard();
        let empty = simulate_head_shard(&w, &cfg, 4..4);
        assert!(empty.is_empty());
        assert_eq!(empty.standalone_cycles(), 0);
        assert_eq!(empty.frontend_busy_cycles, 0);
        assert_eq!(empty.events, EventCounts::default());
        // A whole-head shard's standalone cycles equal the head total.
        let whole = simulate_head_shard(&w, &cfg, 0..9);
        assert_eq!(
            whole.standalone_cycles(),
            simulate_head(&w, &cfg).total_cycles
        );
    }

    #[test]
    #[should_panic(expected = "contiguous in ascending row order")]
    fn non_contiguous_shards_are_rejected() {
        let w = workload(8, 32, 0.2, 43);
        let cfg = TileConfig::ae_leopard();
        let shards = [
            simulate_head_shard(&w, &cfg, 0..3),
            simulate_head_shard(&w, &cfg, 5..8),
        ];
        let _ = merge_shards(&shards);
    }

    #[test]
    #[should_panic(expected = "at least one simulated row")]
    fn merging_only_empty_shards_panics() {
        let w = workload(8, 32, 0.2, 44);
        let cfg = TileConfig::ae_leopard();
        let _ = merge_shards(&[simulate_head_shard(&w, &cfg, 0..0)]);
    }

    #[test]
    #[should_panic(expected = "outside the i16 operand range")]
    fn from_codes_rejects_q_codes_outside_the_i16_range() {
        let _ = HeadWorkload::from_codes(vec![vec![1, -40_000]], vec![vec![1, 2]], 0, 2, 12);
    }

    #[test]
    #[should_panic(expected = "does not fit in 11 bits")]
    fn from_codes_rejects_k_magnitudes_wider_than_the_operand() {
        let _ = HeadWorkload::from_codes(vec![vec![1, 2]], vec![vec![1, -2048]], 0, 2, 12);
    }

    #[test]
    fn outcome_tables_are_cached_per_plan() {
        let w = workload(8, 16, 0.2, 52);
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let first = w.outcome_table(plan);
        let second = w.outcome_table(plan);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second outcome_table call must hit the per-plan cache"
        );
        // A different granularity runs (and caches) its own functional pass.
        let other = w.outcome_table(
            TileConfig::ae_leopard()
                .with_serial_bits(1)
                .bit_serial_plan(),
        );
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(Arc::ptr_eq(&other, &w.outcome_table(other.plan())));
        // A cloned workload keeps the cache warm (Arc-shared entries)...
        assert!(Arc::ptr_eq(&first, &w.clone().outcome_table(plan)));
        // ...unless its threshold differs: the table depends on it.
        let raised = HeadWorkload {
            threshold_int: w.threshold_int + 1,
            ..w.clone()
        };
        assert!(!Arc::ptr_eq(&first, &raised.outcome_table(plan)));
    }

    #[test]
    fn one_table_serves_every_preset_and_no_pack_stays_resident() {
        // AE, HP, pruning-only and every N_QK point share the (11, 2) plan:
        // one functional pass, read by every timing pass. The baseline is
        // analytic and adds nothing. The cache holds outcome tables only —
        // the kernel's packed operands are dropped after the pass.
        let w = workload(12, 32, 0.25, 54);
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let table = w.outcome_table(plan);
        for config in [
            TileConfig::baseline(),
            TileConfig::ae_leopard(),
            TileConfig::hp_leopard(),
            TileConfig::pruning_only(),
            TileConfig::ae_leopard().with_n_qk(11),
        ] {
            let _ = simulate_head(&w, &config);
        }
        let resident: Vec<Arc<OutcomeTable>> = w.outcome_cache.tables();
        assert_eq!(resident.len(), 1, "one functional pass per (head, plan)");
        assert!(Arc::ptr_eq(&resident[0], &table));
        assert_eq!(table.mode(), PruningMode::EarlyTermination);
        assert_eq!(table.rows(), 0..12);
        // One byte per pair plus the per-row counts.
        assert_eq!(table.heap_bytes(), 12 * 12 + 12 * 2 * 6 * 4);
    }

    #[test]
    fn timing_pass_over_one_table_matches_reference_for_every_n_qk() {
        let w = workload(19, 40, 0.3, 55);
        let table = w.outcome_table(TileConfig::ae_leopard().bit_serial_plan());
        for n_qk in 1..=12 {
            for base in [TileConfig::ae_leopard(), TileConfig::pruning_only()] {
                let config = base.with_n_qk(n_qk);
                for rows in [0..19, 3..11, 7..7] {
                    assert_eq!(
                        timing_pass(&table, &config, rows.clone()),
                        simulate_head_shard_reference(&w, &config, rows.clone()),
                        "{} n_qk={n_qk} rows={rows:?}",
                        config.name
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot stand in for EarlyTermination")]
    fn pruning_only_outcomes_cannot_stand_in_for_early_termination() {
        let w = workload(6, 16, 0.3, 56);
        let config = TileConfig::pruning_only();
        let table = OutcomeTable::from_reference(&w, &config, 0..6);
        let _ = timing_pass(&table, &TileConfig::ae_leopard(), 0..6);
    }

    #[test]
    #[should_panic(expected = "different bit-serial plan")]
    fn timing_pass_rejects_a_table_of_another_plan() {
        let w = workload(6, 16, 0.3, 57);
        let table = w.outcome_table(TileConfig::ae_leopard().bit_serial_plan());
        let _ = timing_pass(&table, &TileConfig::ae_leopard().with_serial_bits(4), 0..6);
    }

    #[test]
    fn forced_paths_agree_with_reference() {
        // Head-level spot check of the dispatch contract (the full sweep
        // lives in tests/kernel_dispatch.rs): wide, portable, and the
        // scalar DPU all agree exactly.
        let w = workload(23, 33, 0.3, 53);
        for config in [TileConfig::ae_leopard(), TileConfig::pruning_only()] {
            let reference = simulate_head_reference(&w, &config);
            assert_eq!(
                simulate_head_with_path(&w, &config, KernelPath::Wide),
                reference
            );
            assert_eq!(
                simulate_head_with_path(&w, &config, KernelPath::Portable),
                reference
            );
        }
    }

    #[test]
    fn narrow_workload_on_a_wider_tile_matches_reference() {
        // A workload quantized to 8 bits simulated on a 12-bit tile: the
        // kernel packs the 7-bit codes at the tile's 11-bit plan and still
        // matches the reference exactly.
        let mut r = rng::seeded(21);
        let q = rng::normal_matrix(&mut r, 12, 32, 0.0, 1.0);
        let k = rng::normal_matrix(&mut r, 12, 32, 0.0, 1.0);
        let w = HeadWorkload::from_float(&q, &k, 0.1, 8);
        let cfg = TileConfig::ae_leopard();
        assert_eq!(simulate_head(&w, &cfg), simulate_head_reference(&w, &cfg));
    }
}
