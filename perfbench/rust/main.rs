//! One benchmark process: sets up one workload, runs it once, checks its
//! outputs and prints one JSON line.
//!
//! `perfbench/run.py` starts this binary once per repetition, so every
//! repetition pays what a CLI user pays: a cold workload cache and the lazy
//! cost-model calibration. Set-up is the time from `main` to the end of
//! [`end_setup`]: inputs, thread pool and the cost-model calibration.
//!
//! Usage: `perfbench --workload NAME --seed N --index I [--traced]
//! [--reference-check]`. With `--traced`, spans are recorded around each
//! call into a layer's public functions (see `trace.rs`); otherwise the
//! same calls run without spans.

mod calib;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use trace::Tracer;

/// Worker threads every workload runs on.
pub const THREADS: usize = 2;

/// Exact and measured results of one repetition.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Units of work in the timed region (see `work.rs` per workload).
    pub work: u64,
    /// Simulated (virtual-cycle or model) statistics; exact for a seed.
    pub sim: BTreeMap<&'static str, f64>,
    /// Exact counts.
    pub counts: BTreeMap<&'static str, u64>,
    /// Host-time per-layer figures not taken from spans.
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of the workload's full report; exact for a seed.
    pub digest: u64,
}

/// Correctness checks of one repetition.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Arguments of one repetition.
pub struct Ctx {
    pub seed: u64,
    pub index: u64,
    pub reference_check: bool,
}

impl Ctx {
    /// A deterministic sampler for the checks of this repetition.
    pub fn sampler(&self) -> Sampler {
        Sampler(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.index.wrapping_add(1))
    }
}

/// splitmix64 stream.
pub struct Sampler(u64);

impl Sampler {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// FNV-1a 64 over a string.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// When `main` started.
static STARTED: OnceLock<Instant> = OnceLock::new();
/// Seconds from `main` to the end of set-up.
static SETUP_S: OnceLock<f64> = OnceLock::new();
/// Machine-speed probe, and its time just before the timed region.
static PROBE: Mutex<Option<(calib::Probe, f64)>> = Mutex::new(None);

/// Ends set-up: runs the library's process-wide lazy cost-model
/// calibration (so it is measured as set-up, not inside the first call
/// that needs it), records the set-up time and times the machine-speed
/// probe. The timed region starts after it returns.
pub fn end_setup() {
    leopard_workloads::pipeline::fitted_cost_model();
    let started = STARTED.get().expect("main records its start");
    let _ = SETUP_S.set(started.elapsed().as_secs_f64());
    let mut probe = calib::Probe::new();
    let before = probe.seconds();
    *PROBE.lock().expect("probe") = Some((probe, before));
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn object<V>(map: &BTreeMap<&'static str, V>, render: impl Fn(&V) -> String) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", render(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} --seed N --index I [--traced] [--reference-check]",
        work::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    STARTED.get_or_init(Instant::now);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut index = 0u64;
    let mut traced = false;
    let mut reference_check = false;
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse::<u64>().unwrap_or_else(|_| usage())),
            "--index" => index = value().parse::<u64>().unwrap_or_else(|_| usage()),
            "--traced" => {
                traced = true;
                i += 1;
                continue;
            }
            "--reference-check" => {
                reference_check = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    let ctx = Ctx {
        seed,
        index,
        reference_check,
    };
    let tracer = Arc::new(Tracer::new(traced, seed.wrapping_mul(1 << 16) + index));
    let mut checks = Checks::default();
    let outcome = match work::run(&workload, &ctx, &tracer, &mut checks) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    // Mean of the probe times before the timed region and after the checks.
    let probe_s = match PROBE.lock().expect("probe").as_mut() {
        Some((probe, before)) => (*before + probe.seconds()) / 2.0,
        None => f64::NAN,
    };
    let mut trace_fields = String::from("null");
    if let Some(summary) = tracer.summary() {
        trace_fields = format!(
            "{{\"run\": {}, \"wall_s\": {}, \"uncovered_share\": {}, \"spans\": {}, \"threads\": {}, \"busy_s\": {}, \"self_s\": {}}}",
            summary.run,
            number(summary.wall_s),
            number(summary.uncovered_share),
            summary.spans,
            summary.threads,
            object(&summary.busy_s, |v| number(*v)),
            object(&summary.self_s, |v| number(*v)),
        );
    }
    let failures: Vec<String> = checks
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"index\": {}, \"traced\": {}, \"setup_s\": {}, \"probe_s\": {}, \"wall_s\": {}, \
         \"work\": {}, \"digest\": \"{:016x}\", \"sim\": {}, \"counts\": {}, \"layers\": {}, \
         \"trace\": {}, \"checks\": {{\"attempted\": {}, \"failed\": {}, \"failures\": [{}]}}}}",
        escape(&workload),
        seed,
        index,
        traced,
        number(SETUP_S.get().copied().unwrap_or(f64::NAN)),
        number(probe_s),
        number(outcome.wall_s),
        outcome.work,
        outcome.digest,
        object(&outcome.sim, |v| number(*v)),
        object(&outcome.counts, |v| v.to_string()),
        object(&outcome.layers, |v| number(*v)),
        trace_fields,
        checks.attempted,
        checks.failures.len(),
        failures.join(", "),
    );
}
