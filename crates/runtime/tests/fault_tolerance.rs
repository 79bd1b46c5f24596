//! Integration and property tests for the serving fault-tolerance layer
//! (`leopard_runtime::faults` + the retry/degradation machinery in
//! `leopard_runtime::serving`).
//!
//! The headline guarantees under test:
//!
//! * **Thread-count determinism under faults** — for any fault plan,
//!   retry policy, and degradation setting, the rendered serve CSV and
//!   JSON are byte-identical across thread counts. The fault stream is
//!   counter-addressed (`(seed, tag, request, attempt)`), so neither
//!   retry reordering nor pool scheduling can perturb it.
//! * **Faults-off inertness** — a run with no plan and `retry_max: 0`
//!   takes the legacy code path (also pinned by the golden fixtures),
//!   and an *empty* plan at fail-rate 0 changes accounting only by
//!   growing the report's fault summary: every request-level byte of the
//!   CSV matches the faults-off run.
//! * **Conservation** — offered = served + shed for every configuration;
//!   a request that retries and then lands is counted once.

use leopard_runtime::engine::SuiteRunner;
use leopard_runtime::faults::{FaultPlan, SlowTile, TileFaultEvent, TileFaultKind};
use leopard_runtime::report::{serving_report_json, serving_requests_csv};
use leopard_runtime::sched::SchedulePolicy;
use leopard_runtime::serving::{run_serving, ServingOptions, ServingReport};
use leopard_workloads::pipeline::PipelineOptions;
use leopard_workloads::suite::{full_suite, TaskDescriptor};
use proptest::prelude::*;

/// The first four suite tasks at a short sequence cap: enough task
/// diversity for the mix to matter, small enough that a property running
/// dozens of serve replays stays fast.
fn small_suite() -> Vec<TaskDescriptor> {
    full_suite().into_iter().take(4).collect()
}

fn small_pipeline() -> PipelineOptions {
    PipelineOptions {
        max_sim_seq_len: 16,
        ..PipelineOptions::default()
    }
}

/// Masks the two JSON lines that legitimately differ across thread
/// counts — the wall-clock timing and the report's own `"threads"`
/// echo — so everything else compares byte-for-byte.
fn mask_wall(json: &str) -> String {
    json.lines()
        .map(|line| {
            let key = line.trim_start();
            if key.starts_with("\"wall_seconds\"") {
                "  \"wall_seconds\": \"<timing>\",".to_string()
            } else if key.starts_with("\"threads\"") {
                "  \"threads\": \"<threads>\",".to_string()
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Builds a fault plan from generated raw parts, constrained to pass
/// validation against `servers` tiles.
fn plan_from_parts(
    seed: u64,
    fail_pct: u32,
    events: &[(u32, usize, u32)],
    slow: &[(usize, u32)],
    servers: usize,
) -> FaultPlan {
    let tile_events = events
        .iter()
        .map(|&(cycle, tile, fail)| TileFaultEvent {
            cycle: u64::from(cycle),
            tile: tile % servers,
            kind: if fail == 1 {
                TileFaultKind::Fail
            } else {
                TileFaultKind::Recover
            },
        })
        .collect();
    // Duplicate slow-tile entries are rejected by validation; keep the
    // first multiplier drawn for each tile.
    let mut slow_tiles: Vec<SlowTile> = Vec::new();
    for &(tile, multiplier_pct) in slow {
        let tile = tile % servers;
        if slow_tiles.iter().all(|s| s.tile != tile) {
            slow_tiles.push(SlowTile {
                tile,
                multiplier_pct,
            });
        }
    }
    FaultPlan {
        seed,
        fail_rate: f64::from(fail_pct) / 100.0,
        tile_events,
        slow_tiles,
    }
    .validated(servers)
    .expect("generated plan is valid by construction")
}

fn faulted_report(options: &ServingOptions, threads: usize) -> ServingReport {
    let runner = SuiteRunner::new(threads);
    run_serving(&runner, &small_suite(), options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (fault plan x retry policy x degradation) serve run renders
    /// byte-identical CSV and JSON at 1, 2, and 4 worker threads, and
    /// conserves requests: offered = served + shed.
    #[test]
    fn prop_faulted_serve_is_thread_count_invariant(
        seed in 0u64..1_000,
        fail_pct in 0u32..40,
        events in proptest::collection::vec((0u32..2_000, 0usize..4, 0u32..2), 0..5),
        slow in proptest::collection::vec((0usize..4, 100u32..300), 0..3),
        retry_max in 0u32..4,
        backoff in 1u64..512,
        degrade_bit in 0u32..2,
        // Draws below 400 mean "no SLO" — the offline proptest stub has
        // no `option::of`, so the Option is folded into the range.
        slo_raw in 0u64..4_000,
    ) {
        let degrade = degrade_bit == 1;
        let slo = (slo_raw >= 400).then_some(slo_raw);
        let options = ServingOptions {
            requests: 12,
            servers: 4,
            slo_cycles: slo,
            retry_max,
            backoff_base_cycles: backoff,
            degrade,
            faults: Some(plan_from_parts(seed, fail_pct, &events, &slow, 4)),
            pipeline: small_pipeline(),
            ..ServingOptions::default()
        };
        let reference = faulted_report(&options, 1);
        prop_assert_eq!(
            reference.offered(),
            reference.records.len() + reference.shed.len(),
            "offered requests must be conserved"
        );
        let reference_csv = serving_requests_csv(&reference);
        let reference_json = mask_wall(&serving_report_json(&reference));
        for threads in [2usize, 4] {
            let report = faulted_report(&options, threads);
            prop_assert_eq!(
                &serving_requests_csv(&report),
                &reference_csv,
                "CSV diverged at {} threads",
                threads
            );
            prop_assert_eq!(
                &mask_wall(&serving_report_json(&report)),
                &reference_json,
                "JSON diverged at {} threads",
                threads
            );
        }
    }
}

#[test]
fn empty_fault_plan_leaves_request_accounting_identical_to_faults_off() {
    // An empty plan at fail-rate 0 activates the fault layer (the report
    // grows a fault summary) without changing a single request-level
    // byte: the widths table, gang dispatch, and SLO arithmetic must all
    // reduce to the legacy path.
    let base = ServingOptions {
        requests: 16,
        servers: 4,
        slo_cycles: Some(1_500),
        pipeline: small_pipeline(),
        ..ServingOptions::default()
    };
    let off = faulted_report(&base, 2);
    assert!(off.fault_summary.is_none(), "faults-off run grew a summary");
    let on = faulted_report(
        &ServingOptions {
            faults: Some(FaultPlan::transient(99, 0.0).unwrap()),
            ..base
        },
        2,
    );
    let summary = on.fault_summary.as_ref().expect("fault layer active");
    assert_eq!(summary.transient_faults, 0);
    assert_eq!(summary.retries, 0);
    assert_eq!(summary.min_live_tiles, 4);
    assert_eq!(on.tile_availability(), 1.0);
    assert_eq!(
        serving_requests_csv(&on),
        serving_requests_csv(&off),
        "an inert plan changed the per-request CSV"
    );
}

#[test]
fn retried_then_served_requests_are_counted_once() {
    // Regression for the shed_rate/slo_met accounting: with a high
    // transient-fault rate and a generous retry budget, most requests
    // fail at least one dispatch and are then served. Each must appear
    // exactly once — in records OR in shed — and the derived rates must
    // use that disjoint split.
    let options = ServingOptions {
        requests: 24,
        servers: 4,
        retry_max: 6,
        backoff_base_cycles: 32,
        faults: Some(FaultPlan::transient(3, 0.5).unwrap()),
        pipeline: small_pipeline(),
        ..ServingOptions::default()
    };
    let report = faulted_report(&options, 2);
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    assert!(summary.retries > 0, "rate 0.5 must cause retries");
    assert!(
        report.records.iter().any(|r| r.attempts > 0),
        "no request was retried and then served"
    );
    // Disjoint, exhaustive, and duplicate-free id accounting.
    let mut ids: Vec<usize> = report
        .records
        .iter()
        .map(|r| r.id)
        .chain(report.shed.iter().map(|s| s.id))
        .collect();
    ids.sort_unstable();
    let offered = report.offered();
    assert_eq!(ids, (0..offered).collect::<Vec<_>>());
    assert_eq!(offered, report.records.len() + report.shed.len());
    let expected_rate = report.shed.len() as f64 / offered as f64;
    assert_eq!(report.shed_rate(), expected_rate);
    assert!(report.slo_met() <= report.records.len());
    assert!(report.retried_served() >= 1);
}

#[test]
fn permanent_outage_shed_everything_still_in_flight() {
    // Fail every tile early with no recovery: requests already dispatched
    // finish (drain semantics), everything else is shed deterministically,
    // and availability reflects the dead span.
    let plan = FaultPlan {
        seed: 1,
        fail_rate: 0.0,
        tile_events: (0..4)
            .map(|tile| TileFaultEvent {
                cycle: 200,
                tile,
                kind: TileFaultKind::Fail,
            })
            .collect(),
        slow_tiles: Vec::new(),
    };
    let options = ServingOptions {
        requests: 16,
        servers: 4,
        faults: Some(plan),
        pipeline: small_pipeline(),
        ..ServingOptions::default()
    };
    let report = faulted_report(&options, 2);
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    assert_eq!(summary.min_live_tiles, 0);
    assert!(!report.shed.is_empty(), "an outage must shed the backlog");
    assert!(
        !report.records.is_empty(),
        "drain semantics finish in-flight work"
    );
    assert_eq!(report.offered(), report.records.len() + report.shed.len());
    assert!(report.tile_availability() < 1.0);
    // The whole thing replays identically at another thread count.
    let again = faulted_report(&options, 4);
    assert_eq!(serving_requests_csv(&again), serving_requests_csv(&report));
}

/// Every tile fails mid-stream and none recovers, under SJF with
/// transient faults, retries, SLO deferrals and degradation.
fn total_outage_options() -> ServingOptions {
    let servers = 4;
    let plan = FaultPlan {
        seed: 7,
        fail_rate: 0.2,
        tile_events: (0..servers)
            .map(|tile| TileFaultEvent {
                cycle: 1_500 + 100 * tile as u64,
                tile,
                kind: TileFaultKind::Fail,
            })
            .collect(),
        slow_tiles: vec![SlowTile {
            tile: 1,
            multiplier_pct: 180,
        }],
    };
    ServingOptions {
        requests: 160,
        servers,
        // Shortest-predicted-first dispatches out of arrival order, so
        // record order is a property of the replay, not of the policy.
        policy: SchedulePolicy::Sjf,
        faults: Some(plan),
        slo_cycles: Some(2_000),
        retry_max: 2,
        backoff_base_cycles: 64,
        degrade: true,
        pipeline: PipelineOptions {
            tiles: 2,
            ..small_pipeline()
        },
        ..ServingOptions::default()
    }
}

#[test]
fn a_total_permanent_outage_accounts_for_every_request_once() {
    // Every tile fails mid-stream and none recovers. The replay sheds
    // whatever is stranded; what it served must still come out in strictly
    // increasing id order, and served plus shed ids must be exactly
    // `0..n`, each once.
    let options = total_outage_options();
    let report = faulted_report(&options, 2);
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    assert_eq!(summary.min_live_tiles, 0);
    assert_eq!(summary.tile_recover_events, 0);
    assert!(!report.records.is_empty() && !report.shed.is_empty());
    assert!(
        report.records.windows(2).all(|w| w[0].id < w[1].id),
        "records must be in strictly increasing id order"
    );
    let mut ids: Vec<usize> = report
        .records
        .iter()
        .map(|r| r.id)
        .chain(report.shed.iter().map(|s| s.id))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..options.requests).collect::<Vec<_>>());
}

/// The configuration of the `serve_faulted` golden fixture
/// (`tests/golden.rs`): a transient-fault stream, a mid-run tile outage, a
/// slow tile, retries with backoff, and SLO degradation, on 8 tasks.
fn golden_faulted_options() -> ServingOptions {
    ServingOptions {
        requests: 16,
        servers: 4,
        slo_cycles: Some(1_200),
        retry_max: 2,
        backoff_base_cycles: 64,
        degrade: true,
        faults: Some(FaultPlan {
            seed: 7,
            fail_rate: 0.25,
            tile_events: vec![
                TileFaultEvent {
                    cycle: 300,
                    tile: 1,
                    kind: TileFaultKind::Fail,
                },
                TileFaultEvent {
                    cycle: 900,
                    tile: 1,
                    kind: TileFaultKind::Recover,
                },
            ],
            slow_tiles: vec![SlowTile {
                tile: 3,
                multiplier_pct: 150,
            }],
        }),
        pipeline: PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        },
        ..ServingOptions::default()
    }
}

#[test]
fn shed_and_retry_telemetry_counters_match_the_report() {
    // Every shed is counted under exactly one `serve.shed.*` reason, every
    // deferral under `serve.retries` and every degraded serve under
    // `serve.degraded`, whichever path (transient fault, SLO miss or
    // outage strand) produced it.
    let golden_suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let runs = [
        (golden_suite, golden_faulted_options()),
        (small_suite(), total_outage_options()),
    ];
    for (suite, options) in runs {
        let runner = SuiteRunner::new(2).with_telemetry();
        let report = run_serving(&runner, &suite, &options);
        let summary = report.fault_summary.as_ref().expect("fault layer active");
        let metrics = report.metrics.as_ref().expect("telemetry is on");
        let reasons = [
            "serve.shed.transient_fault",
            "serve.shed.predicted_slo_miss",
            "serve.shed.retries_exhausted",
            "serve.shed.no_live_tiles",
        ];
        let mut shed_counted = 0;
        for (name, value) in &metrics.counters {
            if name.starts_with("serve.shed.") {
                assert!(
                    reasons.contains(&name.as_str()),
                    "unknown shed reason {name}"
                );
                shed_counted += value;
            }
        }
        assert!(!report.shed.is_empty(), "the configuration must shed");
        assert_eq!(shed_counted, report.shed.len() as u64);
        assert!(summary.retries > 0, "the configuration must retry");
        assert_eq!(metrics.counter("serve.retries"), Some(summary.retries));
        assert_eq!(
            metrics.counter("serve.degraded").unwrap_or(0),
            summary.degraded
        );
    }
}
