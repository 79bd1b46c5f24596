//! Trace-export and observe-only contract tests for the telemetry layer.
//!
//! Three properties are pinned here:
//!
//! 1. **Observe-only** — enabling telemetry changes no report bytes: the
//!    CSV and (timing-masked) JSON renderings of a suite and a serve run
//!    are byte-identical with telemetry on or off.
//! 2. **Golden trace** — the Chrome trace of one pinned serve run at
//!    `threads = 1` is snapshotted in `tests/fixtures/trace_serve.json`
//!    with the wall-clock quantities (`tid`/`ts`/`dur` of pid-1 span
//!    lines) masked, so every virtual-clock field — dispatch cycles,
//!    service durations, queue-depth counters, shed instants — is part of
//!    the fixture.
//! 3. **Thread-count independence** — the masked trace is *byte-identical*
//!    between 1 and 4 worker threads (strictly stronger than the set of
//!    spans being equal): the export sorts on a key that excludes every
//!    wall-clock quantity, so interleaving differences cannot leak into
//!    the file.
//!
//! 4. **Kernel metrics are the units' outcomes** — the suite's
//!    `kernel.outcomes.*` counters and `kernel.bits_processed` histogram
//!    equal the sums over the serial decomposition's per-unit results, and
//!    each head's functional pass shows up as one `functional` span and one
//!    `suite.jobs.functional` count.
//!
//! Regenerate the fixture after an intentional format change:
//!
//! ```text
//! LEOPARD_BLESS=1 cargo test -p leopard-runtime --test telemetry
//! ```

use leopard_runtime::engine::SuiteRunner;
use leopard_runtime::report::{
    serving_report_json, serving_requests_csv, suite_report_json, task_results_csv,
};
use leopard_runtime::serving::{run_serving, ServingOptions, ServingReport};
use leopard_workloads::pipeline::{
    build_head_workload, run_task, HeadUnitResults, PipelineOptions,
};
use leopard_workloads::suite::{full_suite, TaskDescriptor};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `LEOPARD_BLESS` is set (same protocol as `tests/golden.rs`).
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("LEOPARD_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with LEOPARD_BLESS=1 cargo test -p \
             leopard-runtime --test telemetry",
            path.display()
        )
    });
    if expected != actual {
        for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                want,
                got,
                "{name} drifted at line {} (regenerate with LEOPARD_BLESS=1 if intentional)",
                line + 1
            );
        }
        panic!(
            "{name} drifted in length: fixture {} lines, actual {} lines",
            expected.lines().count(),
            actual.lines().count()
        );
    }
}

/// Masks the wall-clock-dependent JSON report lines (as in
/// `tests/golden.rs`), keeping everything else.
fn mask_timing(json: &str) -> String {
    json.lines()
        .map(|line| {
            if line.trim_start().starts_with("\"wall_seconds\"")
                || line.trim_start().starts_with("\"stage_seconds\"")
            {
                let key_end = line.find(':').expect("masked line has a key");
                format!("{}: \"<timing>\",", &line[..key_end])
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Replaces the value following `"key": ` in `line` with `<key>`.
fn mask_key(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\": ");
    match line.find(&needle) {
        None => line.to_string(),
        Some(start) => {
            let value_start = start + needle.len();
            let rest = &line[value_start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            format!("{}<{key}>{}", &line[..value_start], &rest[end..])
        }
    }
}

/// Masks the wall-clock quantities of a Chrome trace: on every pid-1 span
/// line (the pool workers' wall-clock process) the worker id, timestamp,
/// and duration are replaced with placeholders. Virtual-clock (pid-2)
/// lines and the process-name metadata pass through untouched.
fn mask_wall_clock(trace: &str) -> String {
    trace
        .lines()
        .map(|line| {
            if line.contains("\"pid\": 1") && !line.contains("\"ph\": \"M\"") {
                let mut masked = line.to_string();
                for key in ["tid", "ts", "dur"] {
                    masked = mask_key(&masked, key);
                }
                masked
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn pinned_pipeline() -> PipelineOptions {
    PipelineOptions {
        max_sim_seq_len: 24,
        ..PipelineOptions::default()
    }
}

fn pinned_serve_options() -> ServingOptions {
    ServingOptions {
        requests: 16,
        servers: 4,
        pipeline: pinned_pipeline(),
        ..ServingOptions::default()
    }
}

/// Runs the pinned serve scenario with telemetry on and returns the report
/// plus the rendered Chrome trace.
fn traced_serve(threads: usize) -> (ServingReport, String) {
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let runner = SuiteRunner::new(threads).with_telemetry();
    let report = run_serving(&runner, &suite, &pinned_serve_options());
    let trace = runner
        .telemetry()
        .expect("telemetry enabled")
        .chrome_trace_json();
    (report, trace)
}

#[test]
fn suite_reports_are_byte_identical_with_telemetry_enabled() {
    let tasks: Vec<TaskDescriptor> = full_suite().into_iter().step_by(11).collect();
    let plain = SuiteRunner::new(2).run(&tasks, &pinned_pipeline());
    let traced = SuiteRunner::new(2)
        .with_telemetry()
        .run(&tasks, &pinned_pipeline());
    assert_eq!(
        task_results_csv(&plain.results),
        task_results_csv(&traced.results),
        "suite CSV must not change when telemetry is on"
    );
    assert_eq!(
        mask_timing(&suite_report_json(&plain)),
        mask_timing(&suite_report_json(&traced)),
        "suite JSON must not change when telemetry is on"
    );
}

#[test]
fn serve_reports_are_byte_identical_with_telemetry_enabled() {
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let plain_runner = SuiteRunner::new(2);
    let plain = run_serving(&plain_runner, &suite, &pinned_serve_options());
    let (traced, _) = traced_serve(2);
    assert_eq!(
        serving_requests_csv(&plain),
        serving_requests_csv(&traced),
        "serve CSV must not change when telemetry is on"
    );
    assert_eq!(
        mask_timing(&serving_report_json(&plain)),
        mask_timing(&serving_report_json(&traced)),
        "serve JSON must not change when telemetry is on"
    );
}

#[test]
fn serve_trace_matches_golden_fixture_with_wall_clock_masked() {
    let (report, trace) = traced_serve(1);
    assert!(
        !report.records.is_empty(),
        "pinned scenario admits requests"
    );
    // Structural sanity before snapshotting: one event per line inside a
    // balanced traceEvents array.
    assert!(trace.starts_with("{\n\"traceEvents\": [\n"));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    assert_golden("trace_serve.json", &mask_wall_clock(&trace));
}

#[test]
fn masked_trace_is_byte_identical_across_thread_counts() {
    let (report_1, trace_1) = traced_serve(1);
    let (report_4, trace_4) = traced_serve(4);
    assert_eq!(report_1.records, report_4.records);
    let masked_1 = mask_wall_clock(&trace_1);
    let masked_4 = mask_wall_clock(&trace_4);
    // The set of spans (names, tags, virtual-clock fields) is identical...
    let mut lines_1: Vec<&str> = masked_1.lines().collect();
    let mut lines_4: Vec<&str> = masked_4.lines().collect();
    lines_1.sort_unstable();
    lines_4.sort_unstable();
    assert_eq!(lines_1, lines_4, "span sets differ across thread counts");
    // ... and the deterministic export order makes the whole file equal.
    assert_eq!(masked_1, masked_4, "masked traces differ byte-wise");
}

#[test]
fn serve_metrics_snapshot_is_consistent_with_the_report() {
    let (report, _) = traced_serve(2);
    let metrics = report.metrics.as_ref().expect("metrics snapshot");
    assert_eq!(
        metrics.counter("serve.requests.admitted"),
        Some(report.records.len() as u64)
    );
    assert_eq!(metrics.counter("serve.requests.offered"), Some(16));
    let histogram = metrics
        .histogram("serve.latency_cycles")
        .expect("latency histogram");
    assert_eq!(histogram.total, report.records.len() as u64);
    // The snapshot renders as structurally valid JSON.
    let json = metrics.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"serve.latency_cycles\""));
}

#[test]
fn suite_kernel_metrics_equal_the_serial_units_outcomes() {
    let tasks: Vec<TaskDescriptor> = full_suite().into_iter().step_by(11).collect();
    let options = PipelineOptions {
        heads: 2,
        tiles: 3,
        ..pinned_pipeline()
    };
    let runner = SuiteRunner::new(2).with_telemetry();
    let report = runner.run(&tasks, &options);
    let metrics = report.metrics.as_ref().expect("metrics snapshot");

    // Oracle: the decomposition `run_task` executes serially — every head
    // built, all four units simulated whole — summed unit by unit.
    let (mut early, mut full, mut surviving) = (0u64, 0u64, 0u64);
    let mut bits: Vec<u64> = Vec::new();
    for (task, result) in tasks.iter().zip(&report.results) {
        assert_eq!(&run_task(task, &options), result);
        for head in 0..options.heads {
            let units = HeadUnitResults::compute(&build_head_workload(task, &options, head));
            for unit in [&units.baseline, &units.ae, &units.hp, &units.pruning_only] {
                let mix = unit.outcome_mix();
                early += mix.early_terminated;
                full += mix.full_precision_pruned;
                surviving += mix.surviving;
                bits.resize(bits.len().max(unit.bits_histogram.len()), 0);
                for (slot, &count) in bits.iter_mut().zip(&unit.bits_histogram) {
                    *slot += count;
                }
            }
        }
    }
    assert!(
        early > 0 && full > 0 && surviving > 0,
        "every class populated"
    );
    assert_eq!(
        metrics.counter("kernel.outcomes.early_terminated"),
        Some(early)
    );
    assert_eq!(
        metrics.counter("kernel.outcomes.full_precision_pruned"),
        Some(full)
    );
    assert_eq!(
        metrics.counter("kernel.outcomes.surviving"),
        Some(surviving)
    );
    let histogram = metrics
        .histogram("kernel.bits_processed")
        .expect("bits histogram");
    assert_eq!(&histogram.counts[..bits.len()], &bits[..]);
    assert_eq!(histogram.total, bits.iter().sum::<u64>());

    // One functional pass per head: a counter and a wall span each.
    let heads = (tasks.len() * options.heads) as u64;
    assert_eq!(metrics.counter("suite.jobs.functional"), Some(heads));
    let trace = runner
        .telemetry()
        .expect("telemetry enabled")
        .chrome_trace_json();
    assert_eq!(
        trace.matches("\"cat\": \"functional\"").count() as u64,
        heads
    );
}
