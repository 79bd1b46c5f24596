//! Perf trajectory harness for the QK kernels.
//!
//! Times one head on the kernel path (the functional pass on the batched
//! bit-parallel SoA kernel v2, then the timing pass) against
//! `simulate_head_reference` (the scalar DPU path) on the acceptance
//! workload — s = 256, d = 64, `TileConfig::ae_leopard()` — verifies both
//! produce bit-identical results **before** timing, and writes
//! `BENCH_qk_kernel.json` so the speedup can be tracked over time
//! (`tools/perf_guard.sh` guards it).
//!
//! The kernel side runs the functional pass afresh on every call
//! (`simulate_head` would read the workload's cached outcome table after
//! the first call and time only the timing pass), against K operands
//! packed once outside the timed loop — the simulator packs once per head
//! and plan, and the reference side likewise reuses nothing but the
//! workload.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example kernel_bench
//! ```

use leopard::accel::config::TileConfig;
use leopard::accel::kernel_v2::{KernelPath, PackedKeys};
use leopard::accel::outcomes::OutcomeTable;
use leopard::accel::sim::{
    merge_shards, simulate_head_reference, timing_pass, HeadSimResult, HeadWorkload,
};
use leopard::workloads::pipeline::{synthesize_qk, threshold_for_rate};
use std::time::Instant;

const S: usize = 256;
const D: usize = 64;
const QK_BITS: u32 = 12;
const PRUNING_TARGET: f32 = 0.7;
const SEED: u64 = 42;

/// Times `f` over enough iterations to fill ~1s of wall clock (minimum 3),
/// after one warm-up call, and returns mean nanoseconds per iteration.
fn time_ns<T>(mut f: impl FnMut() -> T) -> u64 {
    let warm = Instant::now();
    std::hint::black_box(f());
    let per_iter = warm.elapsed();
    let iters = (1.0 / per_iter.as_secs_f64().max(1e-9)).ceil().min(1e4) as u64;
    let iters = iters.max(3);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    (start.elapsed().as_nanos() as u64) / iters
}

fn main() {
    let config = TileConfig::ae_leopard();
    let (q, k) = synthesize_qk(S, D, 0.35, SEED);
    let threshold = threshold_for_rate(&q, &k, PRUNING_TARGET);
    let workload = HeadWorkload::from_float(&q, &k, threshold, QK_BITS);

    let packed = PackedKeys::pack(&workload.k_codes, config.bit_serial_plan());
    let path = KernelPath::detect();
    let kernel_head = || -> HeadSimResult {
        let table = OutcomeTable::from_kernel(&workload, &packed, 0..S, path);
        merge_shards(&[timing_pass(&table, &config, 0..S)])
    };

    // Bit-identity is asserted before any timing — a fast wrong kernel must
    // never post a number.
    let v2_result = kernel_head();
    let reference_result = simulate_head_reference(&workload, &config);
    assert_eq!(
        v2_result, reference_result,
        "kernel v2 and reference paths must be bit-identical"
    );

    println!(
        "workload: s={S}, d={D}, tile {}, pruning rate {:.1}%, {} total cycles",
        config.name,
        v2_result.pruning_rate() * 100.0,
        v2_result.total_cycles
    );

    let wall_ns_reference = time_ns(|| simulate_head_reference(&workload, &config));
    let wall_ns_kernel = time_ns(kernel_head);
    let speedup = wall_ns_reference as f64 / wall_ns_kernel.max(1) as f64;

    println!("reference path:  {:>12} ns / head", wall_ns_reference);
    println!("kernel v2 path:  {:>12} ns / head", wall_ns_kernel);
    println!("v2 vs reference: {:>12.2}x", speedup);

    // "speedup" (v2 over the scalar reference) is the guarded trajectory
    // value: tools/perf_guard.sh reads the last "speedup" entry.
    let json = format!(
        "{{\n  \"config\": {{\n    \"seq_len\": {S},\n    \"head_dim\": {D},\n    \"tile\": \"{}\",\n    \"qk_bits\": {QK_BITS},\n    \"serial_bits\": {},\n    \"pruning_target\": {PRUNING_TARGET},\n    \"seed\": {SEED}\n  }},\n  \"wall_ns_reference\": {wall_ns_reference},\n  \"wall_ns_kernel\": {wall_ns_kernel},\n  \"speedup\": {speedup:.3}\n}}\n",
        config.name, config.serial_bits
    );
    std::fs::write("BENCH_qk_kernel.json", &json).expect("write BENCH_qk_kernel.json");
    println!("wrote BENCH_qk_kernel.json");
}
