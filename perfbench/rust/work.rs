//! The four workloads. Each builds its inputs from the seed, ends set-up,
//! runs its timed region (spans only when the tracer is enabled)
//! and then checks its outputs outside the timed region.
//!
//! Seeding: the seed offsets every `TaskDescriptor::id` (which feeds only
//! `TaskDescriptor::seed()` and labels), the serving stream seed and the
//! fault plan seed. Seed 0 reproduces the repository's default inputs.

use crate::trace::Tracer;
use crate::{digest, end_setup, Checks, Ctx, Outcome, THREADS};
use leopard_accel::config::TileConfig;
use leopard_accel::schedule::simulate_head_tiled;
use leopard_accel::sim::{
    simulate_head, simulate_head_reference, simulate_head_shard, simulate_head_shard_reference,
    HeadSimResult, HeadWorkload,
};
use leopard_autodiff::optim::Adam;
use leopard_autodiff::Tape;
use leopard_core::finetune::{evaluate_accuracy, evaluate_accuracy_with_hook};
use leopard_core::regularizer::L0Config;
use leopard_core::{
    EpochRecord, FinetuneConfig, FinetuneReport, HardThresholdHook, LayerThresholds, PruningStats,
    SoftThresholdHook,
};
use leopard_runtime::engine::measure_layer_makespans;
use leopard_runtime::faults::TileFaultKind;
use leopard_runtime::report::serving_requests_csv;
use leopard_runtime::serving::{generate_requests, FaultSummary};
use leopard_runtime::{
    parallel_map, run_serving, FaultPlan, ServingOptions, ServingReport, SuiteRunner,
};
use leopard_tensor::{stats, Matrix};
use leopard_transformer::config::ModelConfig;
use leopard_transformer::data::{TaskGenerator, TaskSpec};
use leopard_transformer::TransformerClassifier;
use leopard_workloads::pipeline::{
    aggregate_task, build_head_workload, head_seed, plan_task_layer, run_task, sim_seq_len,
    synthesize_qk, threshold_for_rate, HeadUnitResults, PipelineOptions, SimUnitKind, TaskResult,
};
use leopard_workloads::suite::{full_suite, TaskDescriptor};
use leopard_workloads::training::{train_task, TrainingOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["suite-full", "sweep-nqk", "serve-faulted", "train-finetune"];

/// Runs one repetition of `workload`.
pub fn run(
    workload: &str,
    ctx: &Ctx,
    tracer: &Arc<Tracer>,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    match workload {
        "suite-full" => Ok(suite_full(ctx, tracer, checks)),
        "sweep-nqk" => Ok(sweep_nqk(ctx, tracer, checks)),
        "serve-faulted" => serve_faulted(ctx, tracer, checks),
        "train-finetune" => Ok(train_finetune(ctx, tracer, checks)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The 43-task suite with every task id offset by the seed.
fn seeded_suite(seed: u64) -> Vec<TaskDescriptor> {
    let offset = (seed % (1 << 40)) as usize * 64;
    full_suite()
        .into_iter()
        .map(|mut t| {
            t.id += offset;
            t
        })
        .collect()
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn pairs(r: &HeadSimResult) -> u64 {
    r.pruned_scores + r.surviving_scores
}

/// Mean |ln(measured / paper)| over tasks.
fn mean_log_err(values: impl Iterator<Item = (f64, f64)>) -> f64 {
    let errs: Vec<f64> = values.map(|(m, p)| (m / p).ln().abs()).collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

// ---------------------------------------------------------------- suite-full

/// Simulated QK pairs per host second: every head of every task on the
/// four simulation units.
fn suite_full(ctx: &Ctx, tracer: &Tracer, checks: &mut Checks) -> Outcome {
    let tasks = seeded_suite(ctx.seed);
    let options = PipelineOptions::full_scale();
    let runner = SuiteRunner::new(THREADS);
    end_setup();

    let mut out = Outcome::default();
    let results = if tracer.enabled() {
        let start = Instant::now();
        let results = tracer.span("bench.traced", || replay_suite(&tasks, &options, tracer));
        out.wall_s = secs(start);
        results
    } else {
        let start = Instant::now();
        let report = runner.run(&tasks, &options);
        out.wall_s = secs(start);
        let stages = report.stages;
        let busy = stages.build + stages.simulate + stages.aggregate;
        out.layers
            .insert("runtime.engine.stage_build_s", stages.build.as_secs_f64());
        out.layers.insert(
            "runtime.engine.stage_simulate_s",
            stages.simulate.as_secs_f64(),
        );
        out.layers.insert(
            "runtime.engine.stage_aggregate_s",
            stages.aggregate.as_secs_f64(),
        );
        out.layers.insert(
            "runtime.pool.idle_s",
            report.threads as f64 * report.wall.as_secs_f64() - busy.as_secs_f64(),
        );
        out.counts.insert("runtime.engine.jobs", report.jobs as u64);
        out.counts.insert("runtime.cache.hits", report.cache.hits);
        out.counts
            .insert("runtime.cache.misses", report.cache.misses);
        report.results
    };

    let heads = options.heads.max(1) as u64;
    let units = SimUnitKind::ALL.len() as u64;
    out.work = results
        .iter()
        .map(|r| (r.sim_seq_len * r.sim_seq_len) as u64 * heads * units)
        .sum();
    out.counts.insert("accel.simulate_head.pairs", out.work);
    out.sim.insert(
        "sim.paper_speedup_err",
        mean_log_err(
            results
                .iter()
                .zip(&tasks)
                .map(|(r, t)| (r.ae_speedup, f64::from(t.paper_ae_speedup))),
        ),
    );
    out.sim.insert(
        "sim.paper_energy_err",
        mean_log_err(
            results
                .iter()
                .zip(&tasks)
                .map(|(r, t)| (r.ae_energy_reduction, f64::from(t.paper_ae_energy))),
        ),
    );
    // AE-LeOPArd pruning and bit profile, weighted by each task's pairs.
    let weighted = |f: fn(&TaskResult) -> f64| {
        let total: f64 = results
            .iter()
            .map(|r| (r.sim_seq_len * r.sim_seq_len) as f64)
            .sum();
        results
            .iter()
            .map(|r| f(r) * (r.sim_seq_len * r.sim_seq_len) as f64)
            .sum::<f64>()
            / total
    };
    out.sim.insert(
        "accel.simulate_head.pruned_ratio",
        weighted(|r| r.measured_pruning_rate),
    );
    out.sim
        .insert("accel.simulate_head.mean_bits", weighted(|r| r.mean_bits));
    out.digest = digest(&format!("{results:?}"));

    // Checks, outside the timed region.
    checks.check(results.len() == tasks.len(), || {
        "one result per task".into()
    });
    let mut sampler = ctx.sampler();
    for _ in 0..2 {
        let i = sampler.below(tasks.len());
        checks.check(
            results.get(i) == Some(&run_task(&tasks[i], &options)),
            || {
                format!(
                    "suite result of {} differs from serial run_task",
                    tasks[i].name
                )
            },
        );
    }
    let task = &tasks[sampler.below(tasks.len())];
    let workload = build_head_workload(task, &options, 0);
    check_head_against_reference(&workload, &task.name, &mut sampler, checks);
    let (q, k) = synthesize_qk(
        sim_seq_len(task, &options),
        task.model_config().head_dim,
        options.qk_correlation,
        head_seed(task, 0),
    );
    checks.check(
        threshold_parts(&q, &k, task.paper_pruning_rate, &Tracer::new(false, 0)).to_bits()
            == threshold_for_rate(&q, &k, task.paper_pruning_rate).to_bits(),
        || format!("benchmark threshold composition differs for {}", task.name),
    );
    out
}

/// `threshold_for_rate` split into its public tensor calls, so the traced
/// run can time the matmul and the percentile separately.
fn threshold_parts(q: &Matrix, k: &Matrix, target_rate: f32, tracer: &Tracer) -> f32 {
    let d = q.cols();
    let kt = k.transpose();
    let scores = tracer
        .span("tensor.matmul", || q.matmul(&kt))
        .scale(1.0 / (d as f32).sqrt());
    tracer.span("tensor.percentile", || {
        stats::percentile(scores.as_slice(), (target_rate * 100.0).clamp(0.0, 100.0))
    })
}

/// `build_head_workload` through its public parts, with spans.
fn traced_build(
    task: &TaskDescriptor,
    options: &PipelineOptions,
    head: usize,
    tracer: &Tracer,
) -> HeadWorkload {
    let (q, k) = tracer.span("workloads.synthesize_qk", || {
        synthesize_qk(
            sim_seq_len(task, options),
            task.model_config().head_dim,
            options.qk_correlation,
            head_seed(task, head),
        )
    });
    let threshold = tracer.span("workloads.threshold_for_rate", || {
        threshold_parts(&q, &k, task.paper_pruning_rate, tracer)
    });
    tracer.span("accel.from_float", || {
        HeadWorkload::from_float(&q, &k, threshold, options.qk_bits)
    })
}

/// The suite engine's per-task work (build, four simulation units per
/// head, aggregate) driven from the benchmark on `THREADS` threads.
fn replay_suite(
    tasks: &[TaskDescriptor],
    options: &PipelineOptions,
    tracer: &Tracer,
) -> Vec<TaskResult> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TaskResult>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let heads: Vec<HeadUnitResults> = (0..options.heads.max(1))
                    .map(|head| {
                        let w = traced_build(task, options, head, tracer);
                        let sim = |name, kind: SimUnitKind| {
                            tracer.span(name, || simulate_head(&w, &kind.tile_config()))
                        };
                        HeadUnitResults {
                            baseline: sim("accel.simulate_head.baseline", SimUnitKind::Baseline),
                            ae: sim("accel.simulate_head.ae", SimUnitKind::AeLeopard),
                            hp: sim("accel.simulate_head.hp", SimUnitKind::HpLeopard),
                            pruning_only: sim(
                                "accel.simulate_head.pruning_only",
                                SimUnitKind::PruningOnly,
                            ),
                        }
                    })
                    .collect();
                let result = tracer.span("workloads.aggregate_task", || {
                    aggregate_task(task, options, &heads)
                });
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("every task ran")
        })
        .collect()
}

/// Checks a sampled slice of rows (and, for short heads, the whole head)
/// of `workload` against the scalar reference simulator on AE-LeOPArd.
fn check_head_against_reference(
    workload: &HeadWorkload,
    label: &str,
    sampler: &mut crate::Sampler,
    checks: &mut Checks,
) {
    let config = TileConfig::ae_leopard();
    let s = workload.seq_len();
    if s <= 128 {
        checks.check(
            simulate_head(workload, &config) == simulate_head_reference(workload, &config),
            || format!("head of {label} differs from simulate_head_reference"),
        );
    }
    let len = 16.min(s);
    let first = sampler.below(s - len + 1);
    let rows = first..first + len;
    checks.check(
        simulate_head_shard(workload, &config, rows.clone())
            == simulate_head_shard_reference(workload, &config, rows.clone()),
        || format!("rows {rows:?} of {label} differ from the scalar reference"),
    );
}

// ----------------------------------------------------------------- sweep-nqk

/// QK-DPU counts the sweep visits (`leopard sweep --param nqk=2..10`).
const NQK: std::ops::RangeInclusive<usize> = 2..=10;

/// Simulated QK pairs per host second over every design point.
fn sweep_nqk(ctx: &Ctx, tracer: &Arc<Tracer>, checks: &mut Checks) -> Outcome {
    let tasks = seeded_suite(ctx.seed);
    let options = PipelineOptions::full_scale();
    let runner = SuiteRunner::new(THREADS);
    end_setup();

    let start = Instant::now();
    let points: Vec<Vec<HeadSimResult>> = tracer.span("bench.traced", || {
        NQK.map(|n_qk| {
            let config = TileConfig::ae_leopard().with_n_qk(n_qk);
            let cache = Arc::clone(runner.cache());
            let tracer = Arc::clone(tracer);
            parallel_map(runner.pool(), tasks.clone(), move |_, task| {
                let workload = tracer.span("runtime.cache.head_workload", || {
                    cache.head_workload(task, &options, 0)
                });
                tracer.span("accel.simulate_head.ae", || {
                    simulate_head(&workload, &config)
                })
            })
        })
        .collect()
    });
    let mut out = Outcome {
        wall_s: secs(start),
        ..Outcome::default()
    };

    let all = points.iter().flatten();
    out.work = all.clone().map(pairs).sum();
    let pruned: u64 = all.clone().map(|r| r.pruned_scores).sum();
    let bits: f64 = all
        .clone()
        .map(|r| r.mean_bits_processed() * pairs(r) as f64)
        .sum();
    let cycles: u64 = all.map(|r| r.total_cycles).sum();
    let stats = runner.cache().stats();
    out.counts.insert("accel.simulate_head.pairs", out.work);
    out.counts.insert("accel.simulate_head.pruned", pruned);
    out.counts.insert("sim.sweep_total_cycles", cycles);
    out.counts.insert("runtime.cache.hits", stats.hits);
    out.counts.insert("runtime.cache.misses", stats.misses);
    out.sim.insert(
        "accel.simulate_head.pruned_ratio",
        pruned as f64 / out.work as f64,
    );
    out.sim
        .insert("accel.simulate_head.mean_bits", bits / out.work as f64);
    out.sim.insert("runtime.cache.hit_ratio", stats.hit_ratio());
    out.digest = digest(&format!("{points:?}"));

    let n = tasks.len() as u64;
    let design_points = NQK.count() as u64;
    checks.check(
        stats.misses == n && stats.hits == n * (design_points - 1),
        || format!("cache stats {stats:?}: expected {n} misses and one hit per later point"),
    );
    let mut sampler = ctx.sampler();
    let t = sampler.below(tasks.len());
    let p = sampler.below(points.len());
    let fresh = build_head_workload(&tasks[t], &options, 0);
    let config = TileConfig::ae_leopard().with_n_qk(*NQK.start() + p);
    checks.check(simulate_head(&fresh, &config) == points[p][t], || {
        format!(
            "sweep point {p} of {} differs from a fresh build",
            tasks[t].name
        )
    });
    check_head_against_reference(&fresh, &tasks[t].name, &mut sampler, checks);
    out
}

// ------------------------------------------------------------- serve-faulted

/// Requests in the serving stream.
const SERVE_REQUESTS: usize = 400_000;
/// Requests in the default-seed reference check.
const REFERENCE_REQUESTS: usize = 20_000;
/// Digest of the reference check's request CSV at seed 0.
const SERVE_REFERENCE_DIGEST: u64 = 0xed98_d5e1_5bba_e8be;
/// Digest of the full serve-faulted request CSV at seed 0.
const SERVE_FULL_DIGEST: u64 = 0x8865_5a7e_7cbf_4d7e;

fn serving_options(seed: u64, requests: usize, plan: &FaultPlan) -> ServingOptions {
    let defaults = ServingOptions::default();
    let mut plan = plan.clone();
    plan.seed = plan.seed.wrapping_add(seed);
    ServingOptions {
        requests,
        rate_rps: 5.0e6,
        seed: defaults.seed.wrapping_add(seed),
        servers: 4,
        slo_cycles: Some(SERVE_SLO_CYCLES),
        retry_max: 5,
        backoff_base_cycles: 48,
        degrade: true,
        faults: Some(plan),
        pipeline: PipelineOptions {
            tiles: 2,
            ..PipelineOptions::default()
        },
        ..defaults
    }
}

/// SLO deadline of the serving workload, in virtual cycles.
const SERVE_SLO_CYCLES: u64 = 800;

/// Replayed requests per host second.
fn serve_faulted(ctx: &Ctx, tracer: &Tracer, checks: &mut Checks) -> Result<Outcome, String> {
    let text = std::fs::read_to_string("examples/fault_plan.json")
        .map_err(|e| format!("examples/fault_plan.json: {e}"))?;
    let plan = FaultPlan::from_json(&text)?;
    let suite = seeded_suite(ctx.seed);
    let options = serving_options(ctx.seed, SERVE_REQUESTS, &plan);
    let validated = plan.clone().validated(options.servers)?;
    let runner = SuiteRunner::new(THREADS);
    end_setup();

    let mut out = Outcome::default();
    let report = if tracer.enabled() {
        let (report, run_s, outside) = tracer.span("bench.traced", || {
            traced_serving(&suite, &options, &validated, tracer, &runner, checks)
        });
        out.wall_s = run_s;
        out.layers
            .insert("runtime.serving.replay_s", run_s - outside);
        report
    } else {
        let start = Instant::now();
        let report = run_serving(&runner, &suite, &options);
        out.wall_s = secs(start);
        report
    };

    checks.check(report.fault_summary.is_some(), || {
        "faulted serving run carries no fault summary".into()
    });
    let fault = |f: fn(&FaultSummary) -> u64| report.fault_summary.as_ref().map_or(0, f);
    let served = report.records.len() as u64;
    let offered = report.offered() as u64;
    out.work = offered;
    out.counts.insert("runtime.serving.offered", offered);
    out.counts.insert("runtime.serving.served", served);
    out.counts
        .insert("runtime.serving.shed", report.shed.len() as u64);
    out.counts
        .insert("runtime.serving.retries", fault(|f| f.retries));
    out.counts.insert(
        "runtime.serving.transient_faults",
        fault(|f| f.transient_faults),
    );
    out.counts
        .insert("runtime.serving.degraded", fault(|f| f.degraded));
    out.counts.insert(
        "runtime.serving.max_queue_depth",
        report.max_queue_depth() as u64,
    );
    out.counts.insert("runtime.cache.hits", report.cache.hits);
    out.counts
        .insert("runtime.cache.misses", report.cache.misses);
    out.sim.insert(
        "runtime.serving.admit_ratio",
        served as f64 / offered as f64,
    );
    out.sim
        .insert("sim.serve_p99_cycles", p99_cycles(&report) as f64);
    out.sim
        .insert("sim.serve_goodput_rps", report.goodput_rps());
    let csv = serving_requests_csv(&report);
    out.digest = digest(&csv);

    checks.check(offered == SERVE_REQUESTS as u64, || {
        format!("offered {offered} of {SERVE_REQUESTS} requests")
    });
    checks.check(offered == served + report.shed.len() as u64, || {
        "offered != served + shed".into()
    });
    checks.check(served > 0 && report.slo_met() > 0, || {
        "nothing met the SLO".into()
    });
    if ctx.seed == 0 {
        checks.check(out.digest == SERVE_FULL_DIGEST, || {
            format!(
                "serve digest {:016x} != recorded {SERVE_FULL_DIGEST:016x}",
                out.digest
            )
        });
    }
    if ctx.reference_check {
        let reference = run_serving(
            &SuiteRunner::new(THREADS),
            &full_suite(),
            &serving_options(0, REFERENCE_REQUESTS, &plan),
        );
        let d = digest(&serving_requests_csv(&reference));
        checks.check(d == SERVE_REFERENCE_DIGEST, || {
            format!("seed-0 serve digest {d:016x} != recorded {SERVE_REFERENCE_DIGEST:016x}")
        });
    }
    Ok(out)
}

/// Nearest-rank p99 latency of the served requests, in cycles.
fn p99_cycles(report: &ServingReport) -> u64 {
    let mut latencies: Vec<u64> = report.records.iter().map(|r| r.latency_cycles()).collect();
    latencies.sort_unstable();
    let n = latencies.len();
    if n == 0 {
        return 0;
    }
    latencies[((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// The serving run with its phases timed from outside: request generation
/// and phase-1 execution are called on their own (phase 1 on a cold
/// runner), then `run_serving` itself. Returns the report, the
/// `run_serving` seconds and the seconds of the two phases.
fn traced_serving(
    suite: &[TaskDescriptor],
    options: &ServingOptions,
    plan: &FaultPlan,
    tracer: &Tracer,
    runner: &SuiteRunner,
    checks: &mut Checks,
) -> (ServingReport, f64, f64) {
    let start = Instant::now();
    let requests = tracer.span("runtime.serving.generate_requests", || {
        generate_requests(suite, options)
    });
    let generate_s = secs(start);

    // Phase-1 jobs as `run_serving` enumerates them: every task the stream
    // uses, at the configured width and every narrower live-set width the
    // fault timeline can force.
    let mut used: Vec<usize> = requests.iter().map(|r| r.task_index).collect();
    used.sort_unstable();
    used.dedup();
    let tiles = options.pipeline.tiles.max(1);
    let gang = tiles.min(options.servers);
    let mut widths = vec![tiles];
    let mut down = vec![false; options.servers];
    let mut live = options.servers;
    for event in &plan.tile_events {
        let fail = matches!(event.kind, TileFaultKind::Fail);
        if down[event.tile] != fail {
            down[event.tile] = fail;
            live = if fail { live - 1 } else { live + 1 };
        }
        if live > 0 && live < gang {
            widths.push(live);
        }
    }
    widths.sort_unstable();
    widths.dedup();
    let jobs: Vec<(usize, TaskDescriptor)> = widths
        .iter()
        .flat_map(|&w| used.iter().map(move |&i| (w, suite[i].clone())))
        .collect();

    let start = Instant::now();
    let service = tracer.span("runtime.serving.measure_layer_makespans", || {
        measure_layer_makespans(
            &SuiteRunner::new(THREADS),
            jobs.clone(),
            &options.pipeline,
            &options.config,
        )
    });
    let measure_s = secs(start);

    // The same phase-1 work, one public call at a time, to time the tiled
    // simulator; it must reproduce `measure_layer_makespans`.
    let phase1 = SuiteRunner::new(THREADS);
    let pipeline = options.pipeline;
    let config = options.config;
    let replicated: Vec<u64> = jobs
        .iter()
        .map(|(width, task)| {
            let plan = plan_task_layer(task, &pipeline, &config, *width);
            let mut busy = vec![0u64; *width];
            for head in 0..pipeline.heads.max(1) {
                let workload = tracer.span("runtime.cache.head_workload", || {
                    phase1.cache().head_workload(task, &pipeline, head)
                });
                let tiled = tracer.span("accel.simulate_head_tiled", || {
                    simulate_head_tiled(&workload, &config, plan.split(head))
                });
                for (shard, &tile) in plan.shard_tiles[head].iter().enumerate() {
                    busy[tile] += tiled.tile_cycles[shard];
                }
            }
            busy.into_iter().max().unwrap_or(0).max(1)
        })
        .collect();
    checks.check(replicated == service, || {
        "phase-1 makespans differ between measure_layer_makespans and the public calls".into()
    });

    let start = Instant::now();
    let report = tracer.span("runtime.serving.run_serving", || {
        run_serving(runner, suite, options)
    });
    (report, secs(start), generate_s + measure_s)
}

// ------------------------------------------------------------ train-finetune

/// The Figure 6 representative tasks.
const TRAIN_TASKS: [&str; 8] = [
    "MemN2N Task-1",
    "MemN2N Task-16",
    "BERT-B G-QNLI",
    "BERT-B SQuAD",
    "BERT-L G-SST",
    "ALBERT-XX-L SQuAD",
    "GPT-2-L WikiText-2",
    "ViT-B CIFAR-10",
];

/// Digest of the first task's fine-tuning report at seed 0.
const TRAIN_REFERENCE_DIGEST: u64 = 0xad6f_fae7_7503_f3c1;
/// Digest of every task's fine-tuning report at seed 0.
const TRAIN_FULL_DIGEST: u64 = 0x8e63_fd3c_9e55_75f5;

fn training_options() -> TrainingOptions {
    TrainingOptions {
        train_samples: 32,
        eval_samples: 48,
        epochs: 3,
        ..TrainingOptions::default()
    }
}

/// Training samples (forward + backward + optimizer step) per host second.
fn train_finetune(ctx: &Ctx, tracer: &Tracer, checks: &mut Checks) -> Outcome {
    let tasks: Vec<TaskDescriptor> = seeded_suite(ctx.seed)
        .into_iter()
        .filter(|t| TRAIN_TASKS.contains(&t.name.as_str()))
        .collect();
    let options = training_options();
    end_setup();

    let start = Instant::now();
    let mut tape_nodes = 0u64;
    let reports: Vec<FinetuneReport> = if tracer.enabled() {
        tracer.span("bench.traced", || {
            tasks
                .iter()
                .map(|t| traced_train(t, &options, tracer, &mut tape_nodes))
                .collect()
        })
    } else {
        tasks
            .iter()
            .map(|t| train_task(t, &options).report)
            .collect()
    };
    let mut out = Outcome {
        wall_s: secs(start),
        ..Outcome::default()
    };
    let steps = (tasks.len() * options.epochs * options.train_samples) as u64;
    out.work = steps;
    out.counts.insert("training.steps", steps);
    if tracer.enabled() {
        out.counts.insert("autodiff.tape_nodes", tape_nodes);
    }
    let n = reports.len() as f64;
    out.sim.insert(
        "sim.accuracy_drop_pp",
        reports
            .iter()
            .map(|r| f64::from(r.accuracy_degradation()))
            .sum::<f64>()
            / n,
    );
    out.sim.insert(
        "sim.train_pruning_rate",
        reports
            .iter()
            .map(|r| f64::from(r.pruning_rate()))
            .sum::<f64>()
            / n,
    );
    out.digest = digest(&format!("{reports:?}"));

    checks.check(tasks.len() == TRAIN_TASKS.len(), || {
        "a training task is missing".into()
    });
    checks.check(
        reports.iter().all(|r| r.epochs.len() == options.epochs),
        || "a report lacks an epoch".into(),
    );
    if ctx.seed == 0 {
        checks.check(out.digest == TRAIN_FULL_DIGEST, || {
            format!(
                "train digest {:016x} != recorded {TRAIN_FULL_DIGEST:016x}",
                out.digest
            )
        });
    }
    if ctx.reference_check {
        let first = full_suite()
            .into_iter()
            .find(|t| t.name == TRAIN_TASKS[0])
            .expect("suite task");
        let d = digest(&format!("{:?}", vec![train_task(&first, &options).report]));
        checks.check(d == TRAIN_REFERENCE_DIGEST, || {
            format!("seed-0 train digest {d:016x} != recorded {TRAIN_REFERENCE_DIGEST:016x}")
        });
    }
    out
}

/// `train_task` and `Finetuner::run` through their public calls, with
/// spans around the forward pass, backward pass, optimizer steps and
/// evaluations.
fn traced_train(
    task: &TaskDescriptor,
    options: &TrainingOptions,
    tracer: &Tracer,
    tape_nodes: &mut u64,
) -> FinetuneReport {
    let config = ModelConfig::train_scale(task.family);
    let spec = TaskSpec {
        classes: options.classes,
        signal_tokens: (config.seq_len / 6).max(2),
        noise_std: 0.6,
        signal_strength: 2.5,
        seed: task.seed(),
    };
    let generator = TaskGenerator::new(config, spec);
    let train = generator.generate(options.train_samples, 1);
    let eval = generator.generate(options.eval_samples, 2);
    let mut model = TransformerClassifier::new(config, options.classes, task.seed() ^ 0xABCD);
    let ft = FinetuneConfig {
        epochs: options.epochs,
        l0: L0Config {
            lambda: options.lambda,
            ..L0Config::default()
        },
        ..FinetuneConfig::default()
    };

    let mut thresholds = LayerThresholds::zeros(config.layers);
    let baseline_accuracy = tracer.span("core.evaluate_accuracy", || {
        evaluate_accuracy(&model, &eval, None)
    });
    let mut weight_opt = Adam::new(ft.weight_lr);
    let mut threshold_opt = Adam::new(ft.threshold_lr);
    let mut epochs = Vec::with_capacity(ft.epochs);
    let mut first_epoch_loss: Option<f32> = None;
    for epoch in 1..=ft.epochs {
        let mut epoch_loss = 0.0f32;
        let mut epoch_stats = PruningStats::new();
        for (x, label) in train.iter() {
            let tape = Tape::new();
            let hook = SoftThresholdHook::new(&thresholds, ft.soft_threshold, ft.l0);
            let (logits, param_nodes) = tracer.span("transformer.forward_train", || {
                model.forward_train(&tape, x, &hook)
            });
            let task_loss = tape.cross_entropy(logits, &[label]);
            let loss = match hook.regularizer_total(&tape) {
                Some(reg) => tape.add(task_loss, reg),
                None => task_loss,
            };
            tracer.span("autodiff.backward", || tape.backward(loss));
            *tape_nodes += tape.len() as u64;
            epoch_loss += tape.value(loss)[(0, 0)];
            epoch_stats.merge(&hook.stats());

            let grads: Vec<Matrix> = param_nodes.iter().map(|&p| tape.grad(p)).collect();
            tracer.span("autodiff.adam_step", || {
                let mut params = model.params_mut();
                let grad_refs: Vec<&Matrix> = grads.iter().collect();
                weight_opt.step(&mut params, &grad_refs);
            });
            let th_vars = hook.threshold_vars();
            if !th_vars.is_empty() {
                let th_grads: Vec<Matrix> = th_vars.iter().map(|&(_, v)| tape.grad(v)).collect();
                let mut th_params: Vec<Matrix> = th_vars
                    .iter()
                    .map(|&(layer, _)| thresholds.as_matrix(layer))
                    .collect();
                tracer.span("autodiff.adam_step", || {
                    let mut refs: Vec<&mut Matrix> = th_params.iter_mut().collect();
                    let grad_refs: Vec<&Matrix> = th_grads.iter().collect();
                    threshold_opt.step(&mut refs, &grad_refs);
                });
                for ((layer, _), updated) in th_vars.iter().zip(th_params.iter()) {
                    let mut value = updated[(0, 0)];
                    if ft.clamp_thresholds_at_zero {
                        value = value.max(0.0);
                    }
                    thresholds.set(*layer, value);
                }
            }
        }
        let mean_loss = epoch_loss / train.len() as f32;
        let first = *first_epoch_loss.get_or_insert(mean_loss);
        let eval_accuracy = tracer.span("core.evaluate_accuracy", || {
            evaluate_accuracy(&model, &eval, Some(&thresholds))
        });
        epochs.push(EpochRecord {
            epoch,
            train_loss: mean_loss,
            normalized_loss: if first.abs() > f32::EPSILON {
                mean_loss / first
            } else {
                1.0
            },
            sparsity: epoch_stats.pruning_rate(),
            mean_threshold: thresholds.mean(),
            eval_accuracy,
        });
    }
    let hook = HardThresholdHook::new(thresholds.clone());
    let pruned_accuracy = tracer.span("core.evaluate_accuracy", || {
        evaluate_accuracy_with_hook(&model, &eval, &hook)
    });
    FinetuneReport {
        baseline_accuracy,
        pruned_accuracy,
        thresholds,
        pruning_stats: hook.stats(),
        epochs,
    }
}
