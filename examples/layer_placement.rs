//! Layer-placement ablation harness for the whole-layer scheduler.
//!
//! Builds one heterogeneous attention layer (12 heads with ragged
//! sequence lengths, `TileConfig::ae_leopard()` at 4 tiles), verifies the
//! layer-conformance contract — every head's merged accounting is
//! bit-identical to single-tile execution and the energy/pruning
//! aggregates are bit-identical across **all** placement policies — and
//! only then records the LPT-vs-round-robin makespan ablation to
//! `BENCH_layer_sched.json` so `tools/perf_guard.sh` can track it.
//!
//! The recorded quantities are simulated-cycle numbers on the virtual
//! clock, so the file is deterministic: same seed, same bytes, on any
//! machine.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example layer_placement
//! ```

use leopard::accel::config::TileConfig;
use leopard::accel::energy::EnergyModel;
use leopard::accel::schedule::{schedule_layer, Placement};
use leopard::accel::sim::{simulate_head, HeadWorkload};
use leopard::workloads::pipeline::{synthesize_qk, threshold_for_rate};
use std::fmt::Write as _;

const HEAD_LENS: [usize; 12] = [192, 168, 144, 120, 104, 88, 72, 56, 48, 32, 24, 16];
const D: usize = 64;
const QK_BITS: u32 = 12;
const PRUNING_TARGET: f32 = 0.7;
const SEED: u64 = 0x1A7E5;
const TILES: usize = 4;
/// What `BENCH_layer_sched.json` records: the accelerator model's
/// simulated cycles, not how fast this code runs.
const MEASURES: &str =
    "virtual-cycle model output (simulated accelerator cycles), not host code speed";

fn main() {
    let mut config = TileConfig::ae_leopard();
    config.tiles = TILES;
    let model = EnergyModel::calibrated();

    let workloads: Vec<HeadWorkload> = HEAD_LENS
        .iter()
        .enumerate()
        .map(|(head, &s)| {
            let (q, k) = synthesize_qk(s, D, 0.35, SEED + head as u64);
            let threshold = threshold_for_rate(&q, &k, PRUNING_TARGET);
            HeadWorkload::from_float(&q, &k, threshold, QK_BITS)
        })
        .collect();

    println!(
        "layer: {} heads (s = {}..{}), d={D}, tile {}, {TILES} tiles",
        workloads.len(),
        HEAD_LENS.iter().min().unwrap(),
        HEAD_LENS.iter().max().unwrap(),
        config.name,
    );

    // Conformance gate: no number is recorded until bit-identity holds for
    // every policy and the aggregates agree across policies bit for bit.
    let schedules: Vec<_> = Placement::ALL
        .iter()
        .map(|&placement| schedule_layer(&workloads, &config, &model, placement))
        .collect();
    for schedule in &schedules {
        for (h, workload) in workloads.iter().enumerate() {
            assert_eq!(
                schedule.heads[h].merged,
                simulate_head(workload, &config),
                "{}: head {h} merged accounting diverged from single-tile execution",
                schedule.placement.label()
            );
        }
    }
    let lpt = &schedules[Placement::Lpt.index()];
    let rr = &schedules[Placement::RoundRobin.index()];
    for other in &schedules[1..] {
        assert_eq!(
            lpt.energy.total().to_bits(),
            other.energy.total().to_bits(),
            "layer energy moved under {}",
            other.placement.label()
        );
        assert_eq!(
            lpt.pruning_rate.to_bits(),
            other.pruning_rate.to_bits(),
            "layer pruning rate moved under {}",
            other.placement.label()
        );
    }

    println!(
        "\n{:>8} {:>14} {:>14} {:>10}",
        "policy", "makespan cyc", "predicted cyc", "balance"
    );
    let mut rows = String::new();
    for (i, schedule) in schedules.iter().enumerate() {
        println!(
            "{:>8} {:>14} {:>14} {:>9.1}%",
            schedule.placement.label(),
            schedule.makespan_cycles,
            schedule.predicted_makespan_cycles,
            schedule.balance() * 100.0
        );
        let _ = write!(
            rows,
            "    {{\"placement\": \"{}\", \"makespan_cycles\": {}, \"predicted_makespan_cycles\": \
             {}, \"balance\": {:.3}}}{}",
            schedule.placement.label(),
            schedule.makespan_cycles,
            schedule.predicted_makespan_cycles,
            schedule.balance(),
            if i + 1 < schedules.len() { ",\n" } else { "\n" }
        );
    }

    // The headline ablation: greedy LPT must beat round-robin on measured
    // makespan for this layer (the guard's floor watches this ratio).
    assert!(
        lpt.makespan_cycles < rr.makespan_cycles,
        "LPT makespan {} did not beat round-robin {}",
        lpt.makespan_cycles,
        rr.makespan_cycles
    );
    let speedup = rr.makespan_cycles as f64 / lpt.makespan_cycles as f64;
    println!("\nlpt vs rr makespan speedup: {speedup:.3}x");

    let json = format!(
        "{{\n  \"measures\": \"{MEASURES}\",\n  \"config\": {{\n    \"head_lens\": {:?},\n    \"head_dim\": {D},\n    \"tile\": \
         \"{}\",\n    \"tiles\": {TILES},\n    \"qk_bits\": {QK_BITS},\n    \"pruning_target\": \
         {PRUNING_TARGET},\n    \"seed\": {SEED}\n  }},\n  \"policies\": [\n{rows}  ],\n  \
         \"lpt_vs_rr\": {{\n    \"rr_makespan_cycles\": {},\n    \"lpt_makespan_cycles\": {},\n    \
         \"speedup\": {speedup:.3}\n  }}\n}}\n",
        HEAD_LENS, config.name, rr.makespan_cycles, lpt.makespan_cycles
    );
    std::fs::write("BENCH_layer_sched.json", &json).expect("write BENCH_layer_sched.json");
    println!("wrote BENCH_layer_sched.json (bit-identity verified for every policy)");
}
