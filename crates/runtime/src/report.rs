//! Structured JSON/CSV rendering of suite and serving reports.
//!
//! The workspace has no serialization dependency, so report serialization
//! is rendered directly: a small JSON writer with
//! correct string escaping and flat CSV tables. Output field order is
//! fixed, so reports diff cleanly across runs.
//!
//! # Non-finite values
//!
//! JSON has no `NaN`/`Infinity`, and a CSV cell reading `NaN` silently
//! round-trips to a string in most readers. Both writers therefore share
//! one contract for non-finite `f64`s: the JSON writer emits `null`
//! (`json_f64`) and the CSV writer emits an **empty cell** (`csv_f64`) —
//! never the raw `Display` text. Serving-report CSVs avoid the question
//! entirely by writing integer cycle counts only, which is also what makes
//! them bit-comparable across thread counts.

use crate::engine::SuiteReport;
use crate::serving::ServingReport;
use leopard_workloads::pipeline::{summarize, TaskResult};
use std::fmt::Write as _;

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        "null".to_string()
    }
}

/// CSV counterpart of [`json_f64`]: non-finite values become an empty cell
/// instead of leaking `NaN`/`inf` text into the table.
fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

/// [`csv_f64`] for `f32` columns — formats at f32 precision rather than
/// widening (which would turn `0.85` into `0.8500000238418579`).
fn csv_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

fn task_json(r: &TaskResult, indent: &str) -> String {
    let cumulative: Vec<String> = r
        .cumulative_pruning_by_bits
        .iter()
        .map(|&v| json_f64(v))
        .collect();
    format!(
        "{indent}{{\"name\": \"{}\", \"sim_seq_len\": {}, \"measured_pruning_rate\": {}, \
         \"paper_pruning_rate\": {}, \"mean_bits\": {}, \"ae_speedup\": {}, \"hp_speedup\": {}, \
         \"ae_energy_reduction\": {}, \"hp_energy_reduction\": {}, \
         \"cumulative_pruning_by_bits\": [{}]}}",
        escape_json(&r.name),
        r.sim_seq_len,
        json_f64(r.measured_pruning_rate),
        json_f64(r.paper_pruning_rate as f64),
        json_f64(r.mean_bits),
        json_f64(r.ae_speedup),
        json_f64(r.hp_speedup),
        json_f64(r.ae_energy_reduction),
        json_f64(r.hp_energy_reduction),
        cumulative.join(", "),
    )
}

/// Renders a full suite report as pretty-printed JSON: summary, timing,
/// cache statistics, and one entry per task.
pub fn suite_report_json(report: &SuiteReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"threads\": {},", report.threads);
    let _ = writeln!(out, "  \"schedule\": \"{}\",", report.schedule.label());
    let _ = writeln!(out, "  \"jobs\": {},", report.jobs);
    let _ = writeln!(
        out,
        "  \"wall_seconds\": {},",
        json_f64(report.wall.as_secs_f64())
    );
    let _ = writeln!(
        out,
        "  \"stage_seconds\": {{\"build\": {}, \"simulate\": {}, \"aggregate\": {}}},",
        json_f64(report.stages.build.as_secs_f64()),
        json_f64(report.stages.simulate.as_secs_f64()),
        json_f64(report.stages.aggregate.as_secs_f64()),
    );
    let _ = writeln!(
        out,
        "  \"workload_cache\": {{\"hits\": {}, \"misses\": {}}},",
        report.cache.hits, report.cache.misses
    );
    if report.results.is_empty() {
        out.push_str("  \"summary\": null,\n");
    } else {
        let s = summarize(&report.results);
        let _ = writeln!(
            out,
            "  \"summary\": {{\"ae_speedup_gmean\": {}, \"hp_speedup_gmean\": {}, \
             \"ae_energy_gmean\": {}, \"hp_energy_gmean\": {}, \"mean_pruning_rate\": {}}},",
            json_f64(s.ae_speedup_gmean),
            json_f64(s.hp_speedup_gmean),
            json_f64(s.ae_energy_gmean),
            json_f64(s.hp_energy_gmean),
            json_f64(s.mean_pruning_rate),
        );
    }
    out.push_str("  \"tasks\": [\n");
    let rows: Vec<String> = report
        .results
        .iter()
        .map(|r| task_json(r, "    "))
        .collect();
    out.push_str(&rows.join(",\n"));
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the standard per-task console table (header + one row per task),
/// shared by `leopard suite` and the suite_sweep example.
pub fn suite_table(results: &[TaskResult]) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>8} {:>9} {:>9} {:>10}\n",
        "task", "prune%", "bits", "AE spdup", "HP spdup", "AE energy"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<24} {:>7.1}% {:>8.2} {:>8.2}x {:>8.2}x {:>9.2}x",
            r.name,
            r.measured_pruning_rate * 100.0,
            r.mean_bits,
            r.ae_speedup,
            r.hp_speedup,
            r.ae_energy_reduction
        );
    }
    out
}

/// Renders the one-line suite summary with the paper's reference GMeans,
/// shared by `leopard suite` and the suite_sweep example. An empty result
/// set renders a "no tasks simulated" line instead of panicking.
pub fn summary_line(results: &[TaskResult]) -> String {
    if results.is_empty() {
        return "no tasks simulated".to_string();
    }
    let s = summarize(results);
    format!(
        "overall GMean: AE {:.2}x / HP {:.2}x speedup, AE {:.2}x / HP {:.2}x energy \
         (paper: 1.9 / 2.4 / 3.9 / 4.0)",
        s.ae_speedup_gmean, s.hp_speedup_gmean, s.ae_energy_gmean, s.hp_energy_gmean
    )
}

/// Renders per-task results as CSV (header + one row per task). Non-finite
/// values render as empty cells — see the module docs.
pub fn task_results_csv(results: &[TaskResult]) -> String {
    let mut out = String::from(
        "name,sim_seq_len,measured_pruning_rate,paper_pruning_rate,mean_bits,\
         ae_speedup,hp_speedup,ae_energy_reduction,hp_energy_reduction\n",
    );
    for r in results {
        let _ = writeln!(
            out,
            "\"{}\",{},{},{},{},{},{},{},{}",
            r.name.replace('"', "\"\""),
            r.sim_seq_len,
            csv_f64(r.measured_pruning_rate),
            csv_f32(r.paper_pruning_rate),
            csv_f64(r.mean_bits),
            csv_f64(r.ae_speedup),
            csv_f64(r.hp_speedup),
            csv_f64(r.ae_energy_reduction),
            csv_f64(r.hp_energy_reduction),
        );
    }
    out
}

/// Renders per-request serving results as CSV (header + one row per
/// request, in arrival order). Every numeric column is an integer cycle
/// count on the virtual clock, so the file is bit-identical across thread
/// counts — the property the CI determinism check compares.
pub fn serving_requests_csv(report: &ServingReport) -> String {
    let mut out = String::from(
        "request,task_id,task,arrival_cycle,start_cycle,finish_cycle,\
         wait_cycles,service_cycles,predicted_cycles\n",
    );
    for r in &report.records {
        let _ = writeln!(
            out,
            "{},{},\"{}\",{},{},{},{},{},{}",
            r.id,
            r.task_id,
            r.task_name.replace('"', "\"\""),
            r.arrival_cycle,
            r.start_cycle,
            r.finish_cycle,
            r.wait_cycles(),
            r.service_cycles,
            r.predicted_cycles,
        );
    }
    out
}

/// Renders a full serving report as pretty-printed JSON: run parameters,
/// the latency percentiles, throughput, queue statistics, and one entry per
/// request.
pub fn serving_report_json(report: &ServingReport) -> String {
    let latency = report.latency();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"policy\": \"{}\",", report.policy.label());
    let _ = writeln!(out, "  \"arrivals\": \"{}\",", report.arrivals.label());
    let _ = writeln!(out, "  \"mix\": \"{}\",", escape_json(&report.mix_label));
    let _ = writeln!(
        out,
        "  \"slo_cycles\": {},",
        report
            .slo_cycles
            .map_or("null".to_string(), |slo| slo.to_string())
    );
    let _ = writeln!(out, "  \"servers\": {},", report.servers);
    let _ = writeln!(out, "  \"tiles\": {},", report.tiles);
    let _ = writeln!(out, "  \"placement\": \"{}\",", report.placement.label());
    let _ = writeln!(out, "  \"threads\": {},", report.threads);
    let _ = writeln!(out, "  \"frequency_mhz\": {},", report.frequency_mhz);
    let _ = writeln!(out, "  \"offered\": {},", report.offered());
    let _ = writeln!(out, "  \"requests\": {},", report.records.len());
    let _ = writeln!(out, "  \"shed\": {},", report.shed.len());
    let _ = writeln!(out, "  \"shed_rate\": {},", json_f64(report.shed_rate()));
    let _ = writeln!(
        out,
        "  \"wall_seconds\": {},",
        json_f64(report.wall.as_secs_f64())
    );
    let _ = writeln!(
        out,
        "  \"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},",
        json_f64(latency.p50_us),
        json_f64(latency.p95_us),
        json_f64(latency.p99_us),
        json_f64(latency.max_us),
    );
    let _ = writeln!(
        out,
        "  \"throughput_rps\": {},",
        json_f64(report.throughput_rps())
    );
    let _ = writeln!(
        out,
        "  \"goodput_rps\": {},",
        json_f64(report.goodput_rps())
    );
    let _ = writeln!(
        out,
        "  \"queue_depth\": {{\"max\": {}, \"mean\": {}}},",
        report.max_queue_depth(),
        json_f64(report.mean_queue_depth()),
    );
    // The fault-tolerance block renders only for runs that enabled it, so
    // faults-off reports stay byte-identical to the pre-fault fixtures.
    let ft = report.fault_summary.is_some();
    if let Some(f) = &report.fault_summary {
        let _ = writeln!(
            out,
            "  \"fault_tolerance\": {{\"retry_max\": {}, \"backoff_base_cycles\": {}, \
             \"degrade\": {}, \"fail_rate\": {}, \"transient_faults\": {}, \"retries\": {}, \
             \"slo_deferrals\": {}, \"degraded\": {}, \"shed_after_retries\": {}, \
             \"tile_fail_events\": {}, \"tile_recover_events\": {}, \"min_live_tiles\": {}, \
             \"availability\": {}}},",
            f.retry_max,
            f.backoff_base_cycles,
            f.degrade,
            json_f64(f.fail_rate),
            f.transient_faults,
            f.retries,
            f.slo_deferrals,
            f.degraded,
            f.shed_after_retries,
            f.tile_fail_events,
            f.tile_recover_events,
            f.min_live_tiles,
            json_f64(report.tile_availability()),
        );
    }
    // Shed requests, in decision order (empty without an SLO).
    let shed_rows: Vec<String> = report
        .shed
        .iter()
        .map(|s| {
            let attempts = if ft {
                format!(", \"attempts\": {}", s.attempts)
            } else {
                String::new()
            };
            format!(
                "{{\"id\": {}, \"task_id\": {}, \"task\": \"{}\", \"arrival_cycle\": {}, \
                 \"shed_cycle\": {}, \"predicted_cycles\": {}{attempts}}}",
                s.id,
                s.task_id,
                escape_json(&s.task_name),
                s.arrival_cycle,
                s.shed_cycle,
                s.predicted_cycles,
            )
        })
        .collect();
    let _ = writeln!(out, "  \"shed_detail\": [{}],", shed_rows.join(", "));
    // The depth-over-time series: one [dispatch_cycle, depth] pair per
    // dispatch, in virtual-time order.
    let samples: Vec<String> = report
        .queue_samples
        .iter()
        .map(|s| format!("[{}, {}]", s.cycle, s.depth))
        .collect();
    let _ = writeln!(out, "  \"queue_samples\": [{}],", samples.join(", "));
    let _ = writeln!(
        out,
        "  \"workload_cache\": {{\"hits\": {}, \"misses\": {}}},",
        report.cache.hits, report.cache.misses
    );
    out.push_str("  \"requests_detail\": [\n");
    let rows: Vec<String> = report
        .records
        .iter()
        .map(|r| {
            let ft_cols = if ft {
                format!(
                    ", \"attempts\": {}, \"degraded\": {}",
                    r.attempts, r.degraded
                )
            } else {
                String::new()
            };
            format!(
                "    {{\"id\": {}, \"task_id\": {}, \"task\": \"{}\", \"arrival_cycle\": {}, \
                 \"start_cycle\": {}, \"finish_cycle\": {}, \"service_cycles\": {}, \
                 \"predicted_cycles\": {}{ft_cols}}}",
                r.id,
                r.task_id,
                escape_json(&r.task_name),
                r.arrival_cycle,
                r.start_cycle,
                r.finish_cycle,
                r.service_cycles,
                r.predicted_cycles,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// The console fault-tolerance line, rendered only for runs that enabled
/// the subsystem (so faults-off output is unchanged).
fn fault_line(report: &ServingReport) -> Option<String> {
    let f = report.fault_summary.as_ref()?;
    Some(format!(
        "fault tolerance: {} transient fault(s), {} retr{} ({} slo deferral(s)), \
         {} served degraded, {} shed after retries, tiles {}-{} live \
         ({:.1}% availability)\n",
        f.transient_faults,
        f.retries,
        if f.retries == 1 { "y" } else { "ies" },
        f.slo_deferrals,
        f.degraded,
        f.shed_after_retries,
        f.min_live_tiles,
        report.servers,
        report.tile_availability() * 100.0,
    ))
}

/// Renders the serving console summary: one percentile row per statistic,
/// then throughput, queue depth (max, per-dispatch mean, and time-weighted
/// mean), the per-tile utilization grid with its fragmentation line, and —
/// when an SLO was set — shed rate and goodput. Runs with fault tolerance
/// enabled get one extra accounting line (see [`ServingReport::fault_summary`]
/// — absent, the output matches the pre-fault format). A run that admitted
/// nothing renders a "no requests served" line (plus the shed accounting
/// when everything was shed by the SLO).
pub fn serving_summary(report: &ServingReport) -> String {
    let mut out = String::new();
    if report.records.is_empty() {
        out.push_str("no requests served\n");
        if let Some(slo) = report.slo_cycles {
            let _ = writeln!(
                out,
                "slo {} cycles: shed {} of {} offered ({:.1}%)",
                slo,
                report.shed.len(),
                report.offered(),
                report.shed_rate() * 100.0,
            );
        }
        if let Some(line) = fault_line(report) {
            out.push_str(&line);
        }
        return out;
    }
    let latency = report.latency();
    let _ = writeln!(
        out,
        "latency at the {} MHz tile clock ({} schedule, {} arrivals, {} mix, {} servers x \
         {} tile(s), {} placement):",
        report.frequency_mhz,
        report.policy.label(),
        report.arrivals.label(),
        report.mix_label,
        report.servers,
        report.tiles,
        report.placement.label()
    );
    for (label, value) in [
        ("p50", latency.p50_us),
        ("p95", latency.p95_us),
        ("p99", latency.p99_us),
        ("max", latency.max_us),
    ] {
        let _ = writeln!(out, "  {label:<4} {value:>12.2} us");
    }
    let _ = writeln!(
        out,
        "throughput: {:.0} requests/s over {:.3} ms of virtual time",
        report.throughput_rps(),
        report.makespan_cycles() as f64 / (f64::from(report.frequency_mhz) * 1e3),
    );
    if let Some(slo) = report.slo_cycles {
        let _ = writeln!(
            out,
            "slo {} cycles: shed {} of {} offered ({:.1}%), {} of {} admitted met the \
             deadline, goodput {:.0} requests/s",
            slo,
            report.shed.len(),
            report.offered(),
            report.shed_rate() * 100.0,
            report.slo_met(),
            report.records.len(),
            report.goodput_rps(),
        );
    }
    let _ = writeln!(
        out,
        "queue depth: max {}, mean {:.1} (per dispatch), {:.1} (time-weighted)",
        report.max_queue_depth(),
        report.mean_queue_depth(),
        report.time_weighted_mean_queue_depth(),
    );
    if let Some(line) = fault_line(report) {
        out.push_str(&line);
    }
    if report.makespan_cycles() > 0 && !report.tile_busy_cycles.is_empty() {
        let utilization = report.tile_utilization();
        out.push_str("tile utilization over the makespan:");
        for (tile, u) in utilization.iter().enumerate() {
            if tile % 8 == 0 {
                out.push_str("\n ");
            }
            let _ = write!(out, " tile{tile:02} {:>5.1}%", u * 100.0);
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "mean tile utilization {:.1}%, fragmentation {:.1}%",
            report.mean_tile_utilization() * 100.0,
            report.tile_fragmentation() * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_suite_parallel;
    use leopard_workloads::pipeline::PipelineOptions;
    use leopard_workloads::suite::full_suite;

    fn small_report() -> SuiteReport {
        let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
        let options = PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        };
        run_suite_parallel(&tasks, &options, 2)
    }

    #[test]
    fn json_report_contains_all_sections_and_tasks() {
        let report = small_report();
        let json = suite_report_json(&report);
        for key in [
            "\"threads\"",
            "\"wall_seconds\"",
            "\"stage_seconds\"",
            "\"workload_cache\"",
            "\"summary\"",
            "\"tasks\"",
            "MemN2N Task-1",
            "MemN2N Task-2",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn csv_has_header_plus_one_row_per_task() {
        let report = small_report();
        let csv = task_results_csv(&report.results);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + report.results.len());
        assert!(lines[0].starts_with("name,sim_seq_len"));
        assert!(lines[1].starts_with("\"MemN2N Task-1\","));
    }

    #[test]
    fn console_table_and_summary_render() {
        let report = small_report();
        let table = suite_table(&report.results);
        assert_eq!(table.trim_end().lines().count(), 1 + report.results.len());
        assert!(table.contains("MemN2N Task-1"));
        let line = summary_line(&report.results);
        assert!(line.starts_with("overall GMean"));
        assert!(line.contains("paper: 1.9"));
    }

    #[test]
    fn empty_results_summarize_without_panicking() {
        assert_eq!(summary_line(&[]), "no tasks simulated");
    }

    #[test]
    fn empty_report_is_valid() {
        let report = run_suite_parallel(&[], &PipelineOptions::default(), 1);
        let json = suite_report_json(&report);
        assert!(json.contains("\"summary\": null"));
        assert!(json.contains("\"schedule\": \"fifo\""));
        assert!(json.contains("\"tasks\": [\n  ]"));
    }

    #[test]
    fn non_finite_values_round_trip_as_empty_csv_cells() {
        let mut report = small_report();
        report.results[0].ae_speedup = f64::NAN;
        report.results[0].hp_speedup = f64::INFINITY;
        report.results[0].mean_bits = f64::NEG_INFINITY;
        let csv = task_results_csv(&report.results);
        assert!(
            !csv.contains("NaN") && !csv.contains("inf"),
            "non-finite text leaked into:\n{csv}"
        );
        // Round trip: split the poisoned row back into cells. The quoted
        // name contains no commas here, so a plain split is exact.
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row.len(), 9, "empty cells must be preserved as columns");
        assert_eq!(
            row[3],
            format!("{}", report.results[0].paper_pruning_rate),
            "f32 column must render at f32 precision, not widened to f64"
        );
        assert_eq!(row[4], "", "mean_bits cell");
        assert_eq!(row[5], "", "ae_speedup cell");
        assert_eq!(row[6], "", "hp_speedup cell");
        // Finite columns still parse back to their exact value.
        assert_eq!(
            row[2].parse::<f64>().unwrap(),
            report.results[0].measured_pruning_rate
        );
        // The sibling row is untouched and fully finite.
        let clean: Vec<&str> = csv.lines().nth(2).unwrap().split(',').collect();
        assert!(clean[2..].iter().all(|cell| cell.parse::<f64>().is_ok()));
    }

    fn small_serving_report(policy: crate::sched::SchedulePolicy) -> ServingReport {
        use crate::serving::{run_serving, ServingOptions};
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = crate::engine::SuiteRunner::new(2);
        run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                policy,
                pipeline: PipelineOptions {
                    max_sim_seq_len: 24,
                    ..PipelineOptions::default()
                },
                ..ServingOptions::default()
            },
        )
    }

    #[test]
    fn serving_csv_is_integer_only_with_one_row_per_request() {
        let report = small_serving_report(crate::sched::SchedulePolicy::Fifo);
        let csv = serving_requests_csv(&report);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + report.records.len());
        assert!(lines[0].starts_with("request,task_id,task,arrival_cycle"));
        for line in &lines[1..] {
            // Every cell outside the quoted name parses as an integer.
            for cell in line.split(',').filter(|c| !c.starts_with('"')) {
                assert!(cell.parse::<u64>().is_ok(), "non-integer cell {cell:?}");
            }
        }
    }

    #[test]
    fn serving_json_and_summary_render_all_sections() {
        let report = small_serving_report(crate::sched::SchedulePolicy::Ljf);
        let json = serving_report_json(&report);
        for key in [
            "\"policy\": \"ljf\"",
            "\"placement\": \"lpt\"",
            "\"arrivals\": \"steady\"",
            "\"mix\": \"uniform\"",
            "\"slo_cycles\": null",
            "\"shed_rate\": 0",
            "\"latency_us\"",
            "\"throughput_rps\"",
            "\"goodput_rps\"",
            "\"queue_depth\"",
            "\"queue_samples\"",
            "\"shed_detail\": []",
            "\"requests_detail\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let summary = serving_summary(&report);
        for needle in [
            "p50",
            "p95",
            "p99",
            "max",
            "throughput",
            "queue depth",
            "time-weighted",
            "lpt placement",
            "tile00",
            "mean tile utilization",
            "fragmentation",
        ] {
            assert!(summary.contains(needle), "missing {needle} in:\n{summary}");
        }
    }

    #[test]
    fn empty_serving_report_renders_gracefully() {
        let mut report = small_serving_report(crate::sched::SchedulePolicy::Fifo);
        report.records.clear();
        report.queue_samples.clear();
        assert_eq!(serving_summary(&report), "no requests served\n");
        let json = serving_report_json(&report);
        assert!(json.contains("\"requests\": 0"));
        assert!(json.contains("\"requests_detail\": [\n  ]"));
    }

    /// Extracts the value following `"key": ` in the rendered JSON.
    fn json_value<'a>(json: &'a str, key: &str) -> &'a str {
        let needle = format!("\"{key}\": ");
        let start = json.find(&needle).unwrap_or_else(|| panic!("no {key}")) + needle.len();
        let rest = &json[start..];
        let end = rest
            .find([',', '\n'])
            .unwrap_or_else(|| panic!("unterminated {key}"));
        &rest[..end]
    }

    #[test]
    fn all_shed_serving_csv_is_headers_only_and_summary_survives() {
        use crate::serving::{run_serving, ServingOptions};
        // An SLO of 1 cycle is unmeetable: every request predicts past the
        // deadline and the controller sheds the entire stream.
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = crate::engine::SuiteRunner::new(2);
        let report = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                slo_cycles: Some(1),
                pipeline: PipelineOptions {
                    max_sim_seq_len: 24,
                    ..PipelineOptions::default()
                },
                ..ServingOptions::default()
            },
        );
        assert!(report.records.is_empty());
        assert_eq!(report.shed.len(), 12);
        assert_eq!(report.shed_rate(), 1.0);
        assert_eq!(report.goodput_rps(), 0.0);
        // CSV renders the header line and nothing else — no panic.
        let csv = serving_requests_csv(&report);
        assert_eq!(csv.trim_end().lines().count(), 1);
        assert!(csv.starts_with("request,task_id,task,arrival_cycle"));
        // Console summary reports the shed accounting instead of latency.
        let summary = serving_summary(&report);
        assert!(summary.contains("no requests served"));
        assert!(summary.contains("shed 12 of 12 offered (100.0%)"));
        // JSON stays structurally valid with an all-shed stream.
        let json = serving_report_json(&report);
        assert!(json.contains("\"shed\": 12"));
        assert!(json.contains("\"shed_rate\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fault_tolerance_block_renders_only_when_enabled() {
        use crate::faults::FaultPlan;
        use crate::serving::{run_serving, ServingOptions};
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = crate::engine::SuiteRunner::new(2);
        let pipeline = PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        };
        // Faults off: none of the fault-tolerance keys may appear, keeping
        // the report byte-compatible with pre-fault fixtures.
        let off = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                pipeline,
                ..ServingOptions::default()
            },
        );
        let off_json = serving_report_json(&off);
        for key in ["fault_tolerance", "\"attempts\"", "\"degraded\""] {
            assert!(!off_json.contains(key), "unexpected {key} in:\n{off_json}");
        }
        assert!(!serving_summary(&off).contains("fault tolerance"));
        // Faults on: the block, the per-row columns, and the console line
        // all render, and the JSON stays structurally balanced.
        let on = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                retry_max: 2,
                faults: Some(FaultPlan::transient(7, 0.25).unwrap()),
                pipeline,
                ..ServingOptions::default()
            },
        );
        assert!(on.fault_summary.is_some());
        let on_json = serving_report_json(&on);
        for key in [
            "\"fault_tolerance\": {\"retry_max\": 2",
            "\"fail_rate\": 0.25",
            "\"availability\"",
            "\"attempts\"",
            "\"degraded\"",
        ] {
            assert!(on_json.contains(key), "missing {key} in:\n{on_json}");
        }
        assert_eq!(on_json.matches('{').count(), on_json.matches('}').count());
        assert!(serving_summary(&on).contains("fault tolerance:"));
    }

    #[test]
    fn shed_rate_and_goodput_round_trip_through_json() {
        use crate::serving::{run_serving, ServingOptions};
        let suite = full_suite();
        let runner = crate::engine::SuiteRunner::new(2);
        let report = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 64,
                slo_cycles: Some(3_000),
                pipeline: PipelineOptions {
                    max_sim_seq_len: 48,
                    ..PipelineOptions::default()
                },
                ..ServingOptions::default()
            },
        );
        assert!(report.shed_rate() > 0.0, "fixture must shed something");
        let json = serving_report_json(&report);
        // The rendered values parse back to exactly the report's numbers
        // (format!("{v}") of a finite f64 round-trips bit-exactly).
        assert_eq!(
            json_value(&json, "shed_rate").parse::<f64>().unwrap(),
            report.shed_rate()
        );
        assert_eq!(
            json_value(&json, "goodput_rps").parse::<f64>().unwrap(),
            report.goodput_rps()
        );
        assert_eq!(
            json_value(&json, "slo_cycles").parse::<u64>().unwrap(),
            3_000
        );
        assert_eq!(
            json_value(&json, "shed").parse::<usize>().unwrap(),
            report.shed.len()
        );
        assert_eq!(
            json_value(&json, "offered").parse::<usize>().unwrap(),
            report.offered()
        );
    }
}
