//! Fault-recovery ablation: replay one deterministic request stream under
//! the checked-in fault scenario (`examples/fault_plan.json` — a 60%
//! transient dispatch-fault rate, a mid-run two-tile outage with recovery,
//! and one slow tile) twice:
//!
//! * **shed-only** — the legacy policy: any transient fault or predicted
//!   SLO miss sheds the request on the spot (`retry_max: 0`, no
//!   degradation);
//! * **resilient** — the fault-tolerance stack: seeded exponential-backoff
//!   retries for transient faults and deferrable SLO misses, plus the
//!   graceful-degradation ladder (tighter pruning, cheaper predicted
//!   cycles) when the full-quality prediction cannot make the deadline.
//!
//! The headline number is the **goodput recovery**: SLO-met requests per
//! second of virtual time, resilient over shed-only. The guard's floor in
//! `tools/perf_guard.sh` watches this ratio via `BENCH_fault_recovery.json`,
//! and the example itself refuses to record a run where the recovery drops
//! below 2x or where the scenario stops exercising retries, degradation,
//! and the outage.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_recovery [-- --threads N]
//! ```
//!
//! Both replays run on the virtual tile clock with a counter-addressed
//! fault stream, so every number here — goodput, availability, the
//! recovery ratio — is bit-identical on any machine at any thread count;
//! only wall-clock time changes.

use leopard::runtime::faults::FaultPlan;
use leopard::runtime::serving::{run_serving, ServingOptions, ServingReport};
use leopard::runtime::SuiteRunner;
use leopard::workloads::pipeline::PipelineOptions;
use leopard::workloads::suite::{full_suite, TaskDescriptor};
use leopard_bench::harness_threads;

/// Stream shape: enough requests that the mid-run outage window (cycles
/// 12k-24k in the plan) covers roughly the middle third of the arrivals
/// at this rate.
const REQUESTS: usize = 240;
const SERVERS: usize = 4;
const RATE_RPS: f64 = 5.0e6;
/// Deadline chosen so a healthy tile serves every task with headroom to
/// spare, but a backlogged or full-quality-only dispatch cannot always
/// make it: tight enough to exercise degradation, loose enough that a
/// retried transient still lands inside it.
const SLO_CYCLES: u64 = 800;
const RETRY_MAX: u32 = 5;
const BACKOFF_BASE_CYCLES: u64 = 48;
/// Goodput-recovery floor the example enforces before recording anything.
const MIN_RECOVERY: f64 = 2.0;
/// What `BENCH_fault_recovery.json` records: goodput on the serving
/// replay's virtual clock, not how fast this code runs.
const MEASURES: &str =
    "virtual-clock model output (simulated serving goodput), not host code speed";

fn scenario_suite() -> Vec<TaskDescriptor> {
    // The first eight suite tasks at a short sequence cap: the same slice
    // the golden serve fixtures pin, so the operating point is documented
    // by committed bytes.
    full_suite().into_iter().take(8).collect()
}

fn run_policy(
    runner: &SuiteRunner,
    suite: &[TaskDescriptor],
    plan: &FaultPlan,
    retry_max: u32,
    degrade: bool,
) -> ServingReport {
    run_serving(
        runner,
        suite,
        &ServingOptions {
            requests: REQUESTS,
            rate_rps: RATE_RPS,
            servers: SERVERS,
            slo_cycles: Some(SLO_CYCLES),
            retry_max,
            backoff_base_cycles: BACKOFF_BASE_CYCLES,
            degrade,
            faults: Some(plan.clone()),
            pipeline: PipelineOptions {
                max_sim_seq_len: 24,
                ..PipelineOptions::default()
            },
            ..ServingOptions::default()
        },
    )
}

fn print_row(label: &str, report: &ServingReport) {
    let summary = report
        .fault_summary
        .as_ref()
        .expect("fault layer is active in both runs");
    println!(
        "{:<10} {:>7} {:>7} {:>8} {:>9} {:>8} {:>13.0} {:>13.1}%",
        label,
        report.records.len(),
        report.shed.len(),
        summary.retries,
        summary.degraded,
        report.slo_met(),
        report.goodput_rps(),
        report.tile_availability() * 100.0,
    );
}

fn main() {
    let plan_path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fault_plan.json");
    let plan_text = std::fs::read_to_string(plan_path).expect("read examples/fault_plan.json");
    let plan = FaultPlan::from_json(&plan_text)
        .and_then(|p| p.validated(SERVERS))
        .expect("examples/fault_plan.json is valid");

    let threads = harness_threads(); // --threads N or LEOPARD_THREADS; 0 = all cores
    let runner = SuiteRunner::new(threads);
    let suite = scenario_suite();
    println!(
        "fault recovery: {} requests at {:.1}M req/s on {} tiles, slo {} cycles, plan seed {:#x} \
         (fail rate {:.0}%, {} tile event(s), {} slow tile(s)), {} worker threads",
        REQUESTS,
        RATE_RPS / 1e6,
        SERVERS,
        SLO_CYCLES,
        plan.seed,
        plan.fail_rate * 100.0,
        plan.tile_events.len(),
        plan.slow_tiles.len(),
        runner.threads()
    );

    let shed_only = run_policy(&runner, &suite, &plan, 0, false);
    let resilient = run_policy(&runner, &suite, &plan, RETRY_MAX, true);

    println!(
        "\n{:<10} {:>7} {:>7} {:>8} {:>9} {:>8} {:>13} {:>14}",
        "policy", "served", "shed", "retries", "degraded", "slo met", "goodput rps", "availability"
    );
    print_row("shed-only", &shed_only);
    print_row("resilient", &resilient);

    // The scenario must actually exercise the machinery it advertises:
    // the outage really takes two tiles down, the resilient run really
    // retries and degrades, and both runs see the same offered stream.
    let summary = resilient.fault_summary.as_ref().expect("resilient summary");
    assert_eq!(
        summary.min_live_tiles, 2,
        "the two-tile outage no longer bottoms out at 2 live tiles"
    );
    assert!(summary.retries > 0, "resilient run performed no retries");
    assert!(
        summary.degraded > 0,
        "resilient run never degraded a request"
    );
    assert_eq!(shed_only.offered(), resilient.offered());
    assert_eq!(
        shed_only.offered(),
        shed_only.records.len() + shed_only.shed.len(),
        "offered = served + shed must hold"
    );

    let recovery = resilient.goodput_rps() / shed_only.goodput_rps();
    println!(
        "\nresilient vs shed-only: goodput {:.0} vs {:.0} req/s, slo met {} vs {}, recovery \
         {recovery:.3}x",
        resilient.goodput_rps(),
        shed_only.goodput_rps(),
        resilient.slo_met(),
        shed_only.slo_met(),
    );
    assert!(
        recovery >= MIN_RECOVERY,
        "goodput recovery {recovery:.3}x fell below the {MIN_RECOVERY:.1}x floor"
    );

    let block = |report: &ServingReport| {
        let summary = report.fault_summary.as_ref().expect("summary");
        format!(
            "{{\n      \"served\": {},\n      \"shed\": {},\n      \"retries\": {},\n      \
             \"degraded\": {},\n      \"slo_met\": {},\n      \"goodput_rps\": {:.1},\n      \
             \"availability\": {:.6}\n    }}",
            report.records.len(),
            report.shed.len(),
            summary.retries,
            summary.degraded,
            report.slo_met(),
            report.goodput_rps(),
            report.tile_availability(),
        )
    };
    let json = format!(
        "{{\n  \"measures\": \"{MEASURES}\",\n  \"config\": {{\n    \"requests\": {REQUESTS},\n    \"servers\": {SERVERS},\n    \
         \"rate_rps\": {RATE_RPS},\n    \"slo_cycles\": {SLO_CYCLES},\n    \"retry_max\": \
         {RETRY_MAX},\n    \"backoff_base_cycles\": {BACKOFF_BASE_CYCLES},\n    \"plan\": \
         \"examples/fault_plan.json\",\n    \"plan_seed\": {},\n    \"fail_rate\": {}\n  }},\n  \
         \"policies\": {{\n    \"shed_only\": {},\n    \"resilient\": {}\n  }},\n  \
         \"goodput_recovery\": {{\n    \"shed_only_goodput_rps\": {:.1},\n    \
         \"resilient_goodput_rps\": {:.1},\n    \"speedup\": {recovery:.3}\n  }}\n}}\n",
        plan.seed,
        plan.fail_rate,
        block(&shed_only),
        block(&resilient),
        shed_only.goodput_rps(),
        resilient.goodput_rps(),
    );
    std::fs::write("BENCH_fault_recovery.json", &json).expect("write BENCH_fault_recovery.json");
    println!("wrote BENCH_fault_recovery.json (recovery floor {MIN_RECOVERY:.1}x enforced)");
}
