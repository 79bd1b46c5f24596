//! The functional pass of the tile simulator: per-pair front-end outcomes.
//!
//! What a QK-DPU does with one (Q row, K column) pair — how many cycles it
//! spends and whether the score is pruned — depends only on the workload,
//! the bit-serial plan and the pruning flags. `N_QK` never changes it: the
//! number of DPUs only decides how those cycles are dealt round-robin across
//! the units, and so each row's front-end time (the front-end/back-end
//! decoupling of Section 4.1). An [`OutcomeTable`] records the outcomes once;
//! the timing pass ([`crate::sim::timing_pass`]) folds them into cycle
//! timing for any [`TileConfig`] and any shard of rows.
//!
//! Two producers fill a table: [`OutcomeTable::from_kernel`] runs the batched
//! kernel ([`crate::kernel_v2`]) with early termination on — the table every
//! pruning configuration of a plan shares — and
//! [`OutcomeTable::from_reference`] runs the scalar [`QkDpu`] oracle under a
//! configuration's own flags. Configurations with weaker flags read a
//! kernel table through [`OutcomeTable::for_mode`]:
//!
//! * without pruning (the baseline) every pair costs the full reveal window
//!   and nothing is pruned — analytic, the table's pairs are never read;
//! * with pruning but no early termination (pruning-only) every pair costs
//!   the full window, and the pruned set is the early-termination table's:
//!   the margin is conservative and vanishes on the last cycle, so early
//!   termination prunes exactly the scores below the threshold at full
//!   precision (a property `tests/kernel_dispatch.rs` pins on the oracle).
//!
//! A table stores one byte per pair (cycles in the low bits, [`PRUNED`] in
//! the top bit) plus, per row, the counts that do not depend on `N_QK`:
//! how many pairs stopped after each cycle, and how many of those were
//! pruned. Bits processed follow from cycles
//! ([`BitSerialPlan::bits_after`]), so they are not stored.

use crate::config::TileConfig;
use crate::dpu::{DotProductOutcome, QkDpu};
use crate::kernel_v2::{KernelPath, PackedKeys, QkKernelV2, RowScratchV2};
use crate::sim::HeadWorkload;
use leopard_quant::bitserial::{BitSerialPlan, BitSerialVector};
use std::borrow::Cow;
use std::ops::Range;

/// Flag bit of a pair byte: the score was pruned.
pub const PRUNED: u8 = 0x80;
/// Mask of a pair byte's cycle count.
pub const CYCLES_MASK: u8 = 0x7f;

/// Which pruning behaviour a table's outcomes were produced under — the
/// only part of a [`TileConfig`] besides its bit-serial plan that changes a
/// DPU's per-pair outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruningMode {
    /// No pruning: every score survives (the baseline).
    Off,
    /// Pruning against the threshold after the full reveal window, no early
    /// termination (the pruning-only ablation).
    FullPrecision,
    /// Pruning with margin-based early termination (the LeOPArd presets).
    EarlyTermination,
}

impl PruningMode {
    /// The mode a configuration's DPUs run in.
    pub fn of(config: &TileConfig) -> Self {
        match (config.pruning_enabled, config.early_termination) {
            (false, _) => Self::Off,
            (true, false) => Self::FullPrecision,
            (true, true) => Self::EarlyTermination,
        }
    }
}

/// Per-pair front-end outcomes of a contiguous range of a head's Q rows
/// against all of its K columns, under one bit-serial plan and one
/// [`PruningMode`]. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeTable {
    plan: BitSerialPlan,
    mode: PruningMode,
    rows: Range<usize>,
    cols: usize,
    /// One byte per pair, row-major: cycles in the low bits
    /// ([`CYCLES_MASK`]) and [`PRUNED`] in the top bit. `None` when every
    /// pair costs the full reveal window: only the counts are stored.
    pairs: Option<Vec<u8>>,
    /// Per row, `2 * total_cycles` counts: entry `c - 1` counts the pairs
    /// that stopped after cycle `c`, entry `total_cycles + c - 1` the pruned
    /// ones among them.
    counts: Vec<u32>,
}

impl OutcomeTable {
    /// The functional pass on the batched kernel: runs [`QkKernelV2`] with
    /// early termination on over `rows` of the workload, against the
    /// workload's K columns packed for one plan (`packed`, built by the
    /// caller — the simulator packs once per pass and drops the pack
    /// afterwards; only the table is kept).
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not lie within the workload's sequence, or on
    /// any [`QkKernelV2::compute_row_into`] precondition (in particular a
    /// pack of other K columns than the workload's).
    pub fn from_kernel(
        workload: &HeadWorkload,
        packed: &PackedKeys,
        rows: Range<usize>,
        path: KernelPath,
    ) -> Self {
        assert_eq!(
            packed.cols(),
            workload.k_codes.len(),
            "keys packed from another column set"
        );
        let kernel = QkKernelV2::with_path(packed.plan(), path);
        let mut scratch = RowScratchV2::new();
        let mut outcomes = Vec::with_capacity(packed.cols());
        let mut table =
            Self::recording(packed.plan(), PruningMode::EarlyTermination, workload, rows);
        for q_row in &workload.q_codes[table.rows.clone()] {
            kernel.compute_row_into(
                q_row,
                packed,
                workload.threshold_int,
                &mut scratch,
                &mut outcomes,
            );
            table.push_row(&outcomes);
        }
        table
    }

    /// The functional pass on the scalar reference: runs [`QkDpu`] under
    /// `config`'s own flags over `rows` of the workload, with no derivation
    /// shortcuts — so kernel ≡ reference stays a statement about outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `rows` does not lie within
    /// the workload's sequence.
    pub fn from_reference(
        workload: &HeadWorkload,
        config: &TileConfig,
        rows: Range<usize>,
    ) -> Self {
        let dpu = QkDpu::new(*config);
        let plan = config.bit_serial_plan();
        let k_vectors: Vec<BitSerialVector> = workload
            .k_codes
            .iter()
            .map(|codes| BitSerialVector::new(codes, plan))
            .collect();
        let mut outcomes = Vec::with_capacity(k_vectors.len());
        let mut table = Self::recording(plan, PruningMode::of(config), workload, rows);
        for q_row in &workload.q_codes[table.rows.clone()] {
            outcomes.clear();
            outcomes.extend(
                k_vectors
                    .iter()
                    .map(|k| dpu.compute(q_row, k, workload.threshold_int)),
            );
            table.push_row(&outcomes);
        }
        table
    }

    /// The analytic table of an unpruned configuration: every pair of
    /// `rows` × `cols` costs the full reveal window and survives.
    pub fn unpruned(plan: BitSerialPlan, rows: Range<usize>, cols: usize) -> Self {
        Self::full_window(plan, PruningMode::Off, rows, cols, |_| 0)
    }

    /// This table as seen by a configuration running in `mode`: the table
    /// itself when the modes match, otherwise the derivation described in
    /// the module docs (never a kernel call).
    ///
    /// # Panics
    ///
    /// Panics if the table cannot stand in for `mode` — only an
    /// early-termination table derives the pruning-only outcomes.
    pub fn for_mode(&self, mode: PruningMode) -> Cow<'_, Self> {
        if mode == self.mode {
            return Cow::Borrowed(self);
        }
        match (mode, self.mode) {
            (PruningMode::Off, _) => {
                Cow::Owned(Self::unpruned(self.plan, self.rows.clone(), self.cols))
            }
            (PruningMode::FullPrecision, PruningMode::EarlyTermination) => Cow::Owned(
                Self::full_window(self.plan, mode, self.rows.clone(), self.cols, |row| {
                    self.row_counts(row).1.iter().sum()
                }),
            ),
            // lint:allow(panic-in-library, reason = "documented # Panics contract; only a caller pairing a weaker table with a stronger configuration reaches it")
            _ => panic!(
                "outcomes recorded under {:?} cannot stand in for {mode:?}",
                self.mode
            ),
        }
    }

    /// The bit-serial plan the outcomes follow.
    pub fn plan(&self) -> BitSerialPlan {
        self.plan
    }

    /// The pruning mode the outcomes were produced under.
    pub fn mode(&self) -> PruningMode {
        self.mode
    }

    /// The Q rows the table covers.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of K columns (pairs per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cycles of the plan's full reveal window.
    pub fn total_cycles(&self) -> usize {
        self.plan.total_cycles() as usize
    }

    /// The pair bytes of Q row `row` (see [`PRUNED`] and [`CYCLES_MASK`]),
    /// or `None` when every pair of the table costs the full reveal window.
    ///
    /// # Panics
    ///
    /// Panics if `row` lies outside the table.
    pub fn row_pairs(&self, row: usize) -> Option<&[u8]> {
        let at = self.row_index(row);
        let pairs = self.pairs.as_ref()?;
        Some(&pairs[at * self.cols..(at + 1) * self.cols])
    }

    /// The counts of Q row `row`: `(stopped, pruned)`, each indexed by
    /// `cycle - 1` — how many of the row's pairs stopped after each cycle,
    /// and how many of those were pruned.
    ///
    /// # Panics
    ///
    /// Panics if `row` lies outside the table.
    pub fn row_counts(&self, row: usize) -> (&[u32], &[u32]) {
        let total = self.total_cycles();
        let at = self.row_index(row);
        self.counts[at * 2 * total..(at + 1) * 2 * total].split_at(total)
    }

    /// Heap bytes the table keeps resident.
    pub fn heap_bytes(&self) -> usize {
        self.pairs.as_ref().map_or(0, Vec::capacity)
            + self.counts.capacity() * std::mem::size_of::<u32>()
    }

    fn row_index(&self, row: usize) -> usize {
        assert!(
            self.rows.contains(&row),
            "row {row} outside the table's rows {:?}",
            self.rows
        );
        row - self.rows.start
    }

    /// An empty per-pair table over `rows`, sized for [`push_row`](Self::push_row).
    fn recording(
        plan: BitSerialPlan,
        mode: PruningMode,
        workload: &HeadWorkload,
        rows: Range<usize>,
    ) -> Self {
        assert!(
            rows.start <= rows.end && rows.end <= workload.seq_len(),
            "shard rows {rows:?} outside the workload's {} queries",
            workload.seq_len()
        );
        assert!(
            plan.total_cycles() <= u32::from(CYCLES_MASK),
            "a {}-cycle reveal window does not fit a pair byte",
            plan.total_cycles()
        );
        let cols = workload.k_codes.len();
        Self {
            plan,
            mode,
            pairs: Some(Vec::with_capacity(rows.len() * cols)),
            counts: Vec::with_capacity(rows.len() * 2 * plan.total_cycles() as usize),
            rows,
            cols,
        }
    }

    /// Appends one row of outcomes (one per K column, in column order).
    fn push_row(&mut self, outcomes: &[DotProductOutcome]) {
        debug_assert_eq!(outcomes.len(), self.cols);
        let (plan, total) = (self.plan, self.total_cycles());
        // The table derives bits from cycles; an outcome that breaks that
        // relation could not be replayed, so it is rejected here.
        assert!(
            outcomes
                .iter()
                .all(|o| (1..=total as u32).contains(&o.cycles)
                    && o.bits_processed == plan.bits_after(o.cycles)),
            "outcomes do not follow the {plan:?} reveal schedule"
        );
        let Some(bytes) = &mut self.pairs else {
            unreachable!("recording tables store every pair")
        };
        let start = bytes.len();
        bytes.extend(
            outcomes
                .iter()
                .map(|o| o.cycles as u8 | if o.pruned { PRUNED } else { 0 }),
        );
        let mut by_byte = [0u32; 256];
        for &pair in &bytes[start..] {
            by_byte[usize::from(pair)] += 1;
        }
        let (stopped, pruned): (Vec<u32>, Vec<u32>) = (1..=total)
            .map(|c| {
                let cut = by_byte[c | usize::from(PRUNED)];
                (by_byte[c] + cut, cut)
            })
            .unzip();
        self.counts.extend(stopped);
        self.counts.extend(pruned);
    }

    /// A table in which every pair costs the full reveal window, so none
    /// of its pair bytes are stored; `pruned(row)` gives each row's pruned
    /// count.
    fn full_window(
        plan: BitSerialPlan,
        mode: PruningMode,
        rows: Range<usize>,
        cols: usize,
        pruned: impl Fn(usize) -> u32,
    ) -> Self {
        let total = plan.total_cycles() as usize;
        let mut counts = vec![0u32; rows.len() * 2 * total];
        for (row, row_counts) in rows.clone().zip(counts.chunks_exact_mut(2 * total)) {
            row_counts[total - 1] = count(cols);
            row_counts[2 * total - 1] = pruned(row);
        }
        Self {
            plan,
            mode,
            rows,
            cols,
            pairs: None,
            counts,
        }
    }
}

/// A per-row pair count as a table count.
fn count(cols: usize) -> u32 {
    // lint:allow(panic-in-library, reason = "a row of more than u32::MAX key columns cannot be simulated in memory; the conversion documents the table's count width")
    u32::try_from(cols).expect("pairs per row fit u32")
}
