//! Machine-speed probe: a fixed single-threaded computation that calls
//! none of the repository's code. Each repetition times it just before
//! its timed region and again after its checks; dividing the wall time by
//! it cancels much of the slow drift in how fast a shared machine runs.

use std::hint::black_box;
use std::time::Instant;

/// Inputs of the probe, built outside its timed part.
pub struct Probe {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Probe {
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys: Vec<u64> = (0..1 << 16).map(|_| next()).collect();
        let a = (0..4096).map(|_| (next() % 1000) as f32 * 1e-3).collect();
        let b = (0..4096).map(|_| (next() % 1000) as f32 * 1e-3).collect();
        Self {
            sorted: keys.clone(),
            keys,
            a,
            b,
        }
    }

    /// Seconds one run of the probe takes: integer sorting plus f32 dot
    /// products over cache-resident data.
    pub fn seconds(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..40 {
            self.sorted.copy_from_slice(&self.keys);
            self.sorted.sort_unstable();
            black_box(&self.sorted);
            for round in 0..300 {
                let a = black_box(&self.a);
                let dot: f32 = a.iter().zip(&self.b).map(|(x, y)| x * y).sum();
                acc += dot * (round as f32 + 1.0).recip();
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
