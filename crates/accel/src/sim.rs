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
//! Two interchangeable inner loops produce the per-pair dot-product
//! outcomes: [`simulate_head`] runs the batched bit-parallel kernel
//! ([`crate::kernel_v2`], runtime-dispatched between a wide and a portable
//! path), and [`simulate_head_reference`] the scalar per-element DPU
//! ([`crate::dpu`]), the single oracle. Their results are bit-identical by
//! contract; both share one accounting loop, so the equivalence reduces to
//! the per-pair outcomes the differential tests pin down.
//!
//! The accounting loop itself operates at **shard** granularity: a
//! contiguous range of Q rows yields a [`TileShardSim`], and
//! [`merge_shards`] reconstructs the exact single-tile [`HeadSimResult`]
//! from any contiguous shard decomposition — the mechanism behind the
//! multi-tile scheduler in [`crate::schedule`] and its determinism
//! contract (partitioning never changes merged results).

use crate::config::TileConfig;
use crate::dpu::{DotProductOutcome, QkDpu};
use crate::kernel_v2::{fits_i16_operand, KernelPath, PackedKeys, QkKernelV2, RowScratchV2};
use leopard_quant::bitserial::{BitSerialPlan, BitSerialVector};
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
    /// Lazily-built [`PackedKeys`] operand packs of `k_codes`, one per
    /// bit-serial plan (the batched kernel's input), shared across
    /// simulation units. Cloning a workload keeps the cache warm (the
    /// entries are `Arc`-shared).
    ///
    /// Invariant: the cache must stay in sync with `k_codes` — build
    /// workloads through [`HeadWorkload::from_codes`] /
    /// [`HeadWorkload::from_float`] rather than mutating `k_codes` in
    /// place. A struct literal may start it empty ([`PlaneCache::default`]);
    /// entries are built on first use.
    pub plane_cache: PlaneCache,
}

/// The per-workload cache behind [`HeadWorkload::packed_keys_at`]:
/// plan-keyed packed kernel operands behind `Arc`, so concurrent simulation
/// units share one build.
#[derive(Debug, Default)]
pub struct PlaneCache {
    packed: Mutex<BTreeMap<(u32, u32), Arc<PackedKeys>>>,
}

impl Clone for PlaneCache {
    /// Clones the cache *contents* (cheap `Arc` clones), so a cloned
    /// workload starts warm instead of re-packing every plan.
    fn clone(&self) -> Self {
        // lint:allow(panic-in-library, reason = "mutex poisoning requires a prior panic while holding the lock; the guarded sections only allocate and insert, so propagating the poison panic is the correct failure mode")
        let packed = self.packed.lock().unwrap().clone();
        Self {
            packed: Mutex::new(packed),
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
            plane_cache: PlaneCache::default(),
        }
    }

    /// Sequence length of the workload.
    pub fn seq_len(&self) -> usize {
        self.q_codes.len()
    }

    /// The packed batched-kernel operands ([`PackedKeys`]) for a bit-serial
    /// plan, built at most once per `(magnitude width, bits per cycle)` per
    /// workload and shared behind an `Arc` — every row, shard, and repeated
    /// simulation of this head amortizes one pack.
    pub fn packed_keys_at(&self, plan: BitSerialPlan) -> Arc<PackedKeys> {
        let key = (plan.magnitude_bits, plan.bits_per_cycle);
        // lint:allow(panic-in-library, reason = "mutex poisoning requires a prior panic while holding the lock; the guarded section only packs and inserts, so propagating the poison panic is the correct failure mode")
        let mut packed = self.plane_cache.packed.lock().unwrap();
        if let Some(hit) = packed.get(&key) {
            return Arc::clone(hit);
        }
        let built = Arc::new(PackedKeys::pack(&self.k_codes, plan));
        packed.insert(key, Arc::clone(&built));
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

/// Simulates one attention head on a tile, on the batched bit-parallel
/// kernel ([`QkKernelV2`]) with the best dispatch path this machine
/// supports. Results are **bit-identical** to [`simulate_head_reference`]
/// — the kernel ≡ reference contract enforced by the differential tests.
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload is degenerate
/// (zero-length sequence).
pub fn simulate_head(workload: &HeadWorkload, config: &TileConfig) -> HeadSimResult {
    simulate_head_with_path(workload, config, KernelPath::detect())
}

/// [`simulate_head`] on an explicitly requested dispatch path (resolved
/// against the machine — see [`KernelPath::resolve`]). The dispatch-layer
/// differential tests use this to pin the wide and portable paths
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

/// Simulates one contiguous shard of a head's Q rows on the batched
/// bit-parallel kernel — the unit of tile-level parallelism. Every row still
/// sees all K columns (only the Q dimension is partitioned across tiles),
/// so per-row accounting is identical to the whole-head paths; the shard
/// additionally records the boundary timing terms
/// ([`merge_shards`] needs) that make the merge of contiguous shards
/// bit-identical to simulating the head in one piece.
///
/// An empty `rows` range yields the identity shard (all-zero accounting).
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
    simulate_head_shard_with_path(workload, config, rows, KernelPath::detect())
}

/// [`simulate_head_shard`] on an explicitly requested dispatch path — the
/// shard-granular counterpart of [`simulate_head_with_path`].
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
    let kernel = QkKernelV2::with_path(*config, path); // validates the config once per shard
    let packed = workload.packed_keys_at(kernel.plan());
    let mut scratch = RowScratchV2::new();
    let threshold = workload.threshold_int;
    accumulate_rows(workload, config, rows, |q_row, out| {
        kernel.compute_row_into(q_row, &packed, threshold, &mut scratch, out);
    })
}

/// [`simulate_head_shard`] on the scalar per-pair reference DPU — the
/// shard-granular counterpart of [`simulate_head_reference`], used by the
/// tile-conformance tests to pin the partitioned path to the reference on
/// both axes (inner loop *and* partitioning) at once.
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
    let dpu = QkDpu::new(*config); // validates the config once per shard
    let plan = config.bit_serial_plan();
    let k_vectors: Vec<BitSerialVector> = workload
        .k_codes
        .iter()
        .map(|codes| BitSerialVector::new(codes, plan))
        .collect();
    let threshold = workload.threshold_int;
    accumulate_rows(workload, config, rows, |q_row, out| {
        out.clear();
        out.extend(k_vectors.iter().map(|k| dpu.compute(q_row, k, threshold)));
    })
}

/// Simulates one attention head with the scalar per-pair [`QkDpu`] — the
/// reference implementation the kernel path is differentially tested (and
/// benchmarked) against. Same accounting, same results, no
/// incremental arithmetic.
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
        let full_precision_pruned = self.pruned_bits_histogram.last().copied().unwrap_or(0);
        OutcomeMix {
            early_terminated: self.pruned_scores - full_precision_pruned,
            full_precision_pruned,
            surviving: self.surviving_scores,
        }
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

/// The shared accounting loop behind every simulation path: feeds each Q
/// row in `rows` through `row_outcomes` (which fills one
/// [`DotProductOutcome`] per K column) and turns the outcomes into cycle
/// timing, event counts, and histograms for that shard. Keeping a single
/// implementation here is what makes the kernel ≡ reference equivalence a
/// statement about outcomes only — and the tile ≡ single-tile equivalence
/// a statement about [`merge_shards`] only.
fn accumulate_rows(
    workload: &HeadWorkload,
    config: &TileConfig,
    rows: Range<usize>,
    mut row_outcomes: impl FnMut(&[i32], &mut Vec<DotProductOutcome>),
) -> TileShardSim {
    assert!(
        rows.start <= rows.end && rows.end <= workload.seq_len(),
        "shard rows {rows:?} outside the workload's {} queries",
        workload.seq_len()
    );
    let plan = config.bit_serial_plan();
    let max_bits = plan.magnitude_bits as usize;
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

    // Row-level buffers, allocated once per shard and reused across rows.
    let mut dpu_cycles = vec![0u64; config.n_qk_dpu];
    let mut outcomes: Vec<DotProductOutcome> = Vec::with_capacity(workload.k_codes.len());
    let mut prev_backend = 0u64;

    for (offset, q_row) in workload.q_codes[rows].iter().enumerate() {
        // --- Front-end: distribute the s key columns over the N_QK DPUs.
        row_outcomes(q_row, &mut outcomes);
        dpu_cycles.fill(0);
        let mut row_survivors = 0u64;
        for (j, outcome) in outcomes.iter().enumerate() {
            let dpu_idx = j % config.n_qk_dpu;
            dpu_cycles[dpu_idx] += u64::from(outcome.cycles);
            shard.events.qk_dpu_cycles += u64::from(outcome.cycles);
            shard.events.key_buffer_reads += u64::from(outcome.cycles);
            shard.bits_histogram[outcome.bits_processed as usize] += 1;
            if outcome.pruned {
                shard.pruned_scores += 1;
                shard.pruned_bits_histogram[outcome.bits_processed as usize] += 1;
            } else {
                shard.surviving_scores += 1;
                row_survivors += 1;
                shard.events.fifo_pushes += 1;
            }
        }
        let row_frontend_cycles = *dpu_cycles.iter().max().expect("at least one DPU"); // lint:allow(panic-in-library, reason = "TileConfig validation guarantees at least one DPU lane")
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
        shard.events.softmax_ops += row_survivors;
        shard.events.v_mac_ops += row_survivors;
        shard.events.value_buffer_reads += row_survivors;
    }
    shard.last_row_backend_cycles = prev_backend;
    shard
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
            plane_cache: PlaneCache::default(),
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
    fn packed_keys_are_cached_per_plan() {
        let w = workload(8, 16, 0.2, 52);
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let first = w.packed_keys_at(plan);
        let second = w.packed_keys_at(plan);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second packed_keys_at call must hit the per-plan cache"
        );
        // A different granularity packs (and caches) separately.
        let other = w.packed_keys_at(
            TileConfig::ae_leopard()
                .with_serial_bits(1)
                .bit_serial_plan(),
        );
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(Arc::ptr_eq(&other, &w.packed_keys_at(other.plan())));
        // A cloned workload keeps the cache warm (Arc-shared entries).
        assert!(Arc::ptr_eq(&first, &w.clone().packed_keys_at(plan)));
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
