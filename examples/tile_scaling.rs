//! Tile-scaling harness for the multi-tile intra-head scheduler.
//!
//! Partitions the acceptance workload (s = 256, d = 64,
//! `TileConfig::ae_leopard()`) across 1..=8 tiles, verifies the merged
//! accounting is bit-identical to the single-tile reference at **every**
//! tile count (the conformance contract — checked before any number is
//! recorded), and writes the head-level cycle scaling — makespan, speedup
//! over one tile, load balance — to `BENCH_tiles.json` so later PRs can
//! track it.
//!
//! The recorded quantities are simulated-cycle numbers on the virtual
//! clock, so the file is deterministic: same seed, same bytes, on any
//! machine.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example tile_scaling
//! ```

use leopard::accel::config::TileConfig;
use leopard::accel::schedule::simulate_head_tiled;
use leopard::accel::sim::{simulate_head_reference, HeadWorkload};
use leopard::workloads::pipeline::{synthesize_qk, threshold_for_rate};
use std::fmt::Write as _;

const S: usize = 256;
const D: usize = 64;
const QK_BITS: u32 = 12;
const PRUNING_TARGET: f32 = 0.7;
const SEED: u64 = 42;
const TILE_COUNTS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// What `BENCH_tiles.json` records: the accelerator model's simulated
/// cycles, not how fast this code runs.
const MEASURES: &str =
    "virtual-cycle model output (simulated accelerator cycles), not host code speed";

fn main() {
    let config = TileConfig::ae_leopard();
    let (q, k) = synthesize_qk(S, D, 0.35, SEED);
    let threshold = threshold_for_rate(&q, &k, PRUNING_TARGET);
    let workload = HeadWorkload::from_float(&q, &k, threshold, QK_BITS);

    let reference = simulate_head_reference(&workload, &config);
    println!(
        "workload: s={S}, d={D}, tile {}, pruning rate {:.1}%, {} single-tile cycles",
        config.name,
        reference.pruning_rate() * 100.0,
        reference.total_cycles
    );
    println!(
        "\n{:>6} {:>14} {:>10} {:>10}",
        "tiles", "makespan cyc", "speedup", "balance"
    );

    let mut rows = String::new();
    for (i, &tiles) in TILE_COUNTS.iter().enumerate() {
        let tiled = simulate_head_tiled(&workload, &config, tiles);
        assert_eq!(
            tiled.merged, reference,
            "tile-partitioned execution must be bit-identical to the reference at {tiles} tiles"
        );
        let makespan = tiled.makespan_cycles();
        let speedup = tiled.tile_speedup();
        let balance = tiled.balance();
        println!(
            "{tiles:>6} {makespan:>14} {speedup:>9.2}x {:>9.1}%",
            balance * 100.0
        );
        let _ = write!(
            rows,
            "    {{\"tiles\": {tiles}, \"makespan_cycles\": {makespan}, \
             \"speedup\": {speedup:.3}, \"balance\": {balance:.3}}}{}",
            if i + 1 < TILE_COUNTS.len() {
                ",\n"
            } else {
                "\n"
            }
        );
    }

    let json = format!(
        "{{\n  \"measures\": \"{MEASURES}\",\n  \"config\": {{\n    \"seq_len\": {S},\n    \"head_dim\": {D},\n    \"tile\": \
         \"{}\",\n    \"qk_bits\": {QK_BITS},\n    \"pruning_target\": {PRUNING_TARGET},\n    \
         \"seed\": {SEED}\n  }},\n  \"single_tile_cycles\": {},\n  \"scaling\": [\n{rows}  ]\n}}\n",
        config.name, reference.total_cycles
    );
    std::fs::write("BENCH_tiles.json", &json).expect("write BENCH_tiles.json");
    println!("\nwrote BENCH_tiles.json (bit-identity verified at every tile count)");
}
