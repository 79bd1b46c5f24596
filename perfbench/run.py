#!/usr/bin/env python3
"""End-to-end benchmark of the LeOPArd reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode, then
starts its binary once per repetition until S seconds have passed, so every
repetition runs in a fresh process with a cold workload cache and a cold
cost-model calibration, as a CLI user's run does. Each repetition checks
its own outputs after its timed region; this script also checks that every
repetition of the run produced the same simulated results.

With --trace 0 the last line of standard output is a JSON object carrying
the end-to-end metrics named in BENCHMARK.json (medians over the
repetitions). With --trace 1, repetitions alternate between untraced and
traced processes, and the JSON carries the per-layer metrics named there:
span busy and self times from the traced processes, engine stage totals
and exact counts, the tracing overhead (traced minus untraced wall time)
and the share of traced wall time no layer span covers. Every metric, host time and simulated alike, is also
printed above that line as a table. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ["suite-full", "sweep-nqk", "serve-faulted", "train-finetune"]
MIN_REPETITIONS = 3
CHILD_TIMEOUT_S = 150.0

# Unit of work behind work_per_s, per workload.
WORK_UNIT = {
    "suite-full": "simulated QK pairs",
    "sweep-nqk": "simulated QK pairs",
    "serve-faulted": "replayed requests",
    "train-finetune": "training samples",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target
    manifest = root / "perfbench" / "Cargo.toml"
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(manifest)],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"{binary} missing after build")
    return binary


def run_child(binary, root, workload, seed, index, traced, reference_check):
    """Runs one repetition; returns (peak_rss_mib, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--index", str(index)]
    if traced:
        cmd.append("--traced")
    if reference_check:
        cmd.append("--reference-check")
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4, not Popen.wait, to read this child's peak memory.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"repetition {index} of {workload} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024.0, json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def consistency_checks(children):
    """Every repetition of one seed must produce the same simulated
    results, traced or not; returns (attempted, failures)."""
    attempted, failures = 0, []
    first = children[0]
    for child in children[1:]:
        for key in ("digest", "sim", "work"):
            attempted += 1
            if child[key] != first[key]:
                failures.append(f"repetition {child['index']}: {key} differs from repetition 0")
        shared = set(child["counts"]) & set(first["counts"])
        attempted += 1
        if any(child["counts"][k] != first["counts"][k] for k in shared):
            failures.append(f"repetition {child['index']}: exact counts differ from repetition 0")
    return attempted, failures


def per_layer_metrics(names, untraced, traced, error_rate):
    """Medians of every per-layer metric, keyed (name, unit). Span metrics
    end in .busy_s / .self_s; the rest come from the repetitions' layer
    figures, exact counts and simulated results. A layer the workload does
    not call reads 0."""
    out = {}
    for name, unit in names:
        values = []
        if name.endswith(".busy_s"):
            values = [c["trace"]["busy_s"][name[:-7]] for c in traced
                      if name[:-7] in c["trace"]["busy_s"]]
        elif name.endswith(".self_s"):
            base = name[:-7]
            values = [c["trace"]["self_s"][base] for c in traced
                      if base in c["trace"]["self_s"]]
        elif name == "trace.wall_s":
            values = [c["wall_s"] for c in traced]
        elif name == "trace.untraced_wall_s":
            values = [c["wall_s"] for c in untraced]
        elif name == "trace.overhead_s":
            values = [median([c["wall_s"] for c in traced])
                      - median([c["wall_s"] for c in untraced])]
        elif name == "trace.uncovered_share":
            values = [c["trace"]["uncovered_share"] for c in traced]
        elif name == "check.error_rate":
            values = [error_rate]
        else:
            for section in ("layers", "counts", "sim"):
                values = [c[section][name] for c in untraced + traced if name in c[section]]
                if values:
                    break
        out[name] = {"value": median(values), "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    binary = build(root)

    traced_mode = args.trace == 1
    children, rss = [], []
    start = time.perf_counter()
    index = 0
    while True:
        # Traced runs alternate untraced and traced repetitions, so the
        # overhead compares processes measured under the same conditions.
        traced = traced_mode and index % 2 == 1
        rss_mib, result = run_child(
            binary, root, args.workload, args.seed, index, traced, index == 0)
        children.append(result)
        if not traced:
            rss.append(rss_mib)
        index += 1
        needed = 2 * MIN_REPETITIONS if traced_mode else MIN_REPETITIONS
        if time.perf_counter() - start >= args.seconds and index >= needed:
            break

    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    attempted = sum(c["checks"]["attempted"] for c in children)
    failures = [f for c in children for f in c["checks"]["failures"]]
    extra_attempted, extra_failures = consistency_checks(children)
    attempted += extra_attempted
    failures += extra_failures
    error_rate = len(failures) / attempted

    walls = [c["wall_s"] for c in untraced]
    work = untraced[0]["work"]
    values = {
        "setup_s": median([c["setup_s"] for c in untraced]),
        "wall_s": median(walls),
        "wall_norm": median([c["wall_s"] / c["probe_s"] for c in untraced]),
        "peak_rss_mib": median(rss),
        "work_per_s": median([work / w for w in walls]),
    }
    end_to_end = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    layers = per_layer_metrics([(m["name"], m["unit"]) for m in spec["per_layer"]],
                               untraced, traced, error_rate)

    print(f"perfbench {args.workload}: seed {args.seed}, {len(untraced)} untraced"
          f" and {len(traced)} traced repetitions in {time.perf_counter() - start:.1f} s"
          f" on {os.cpu_count()} CPUs")
    print(f"work per repetition: {work} {WORK_UNIT[args.workload]}")
    print("wall_s per repetition: " + " ".join(f"{c['wall_s']:.4f}" for c in untraced))
    print("probe_s per repetition: " + " ".join(f"{c['probe_s']:.4f}" for c in untraced))
    print("end-to-end (host time, medians over untraced repetitions):")
    for name, m in end_to_end.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print("simulated results (exact for a seed):")
    for name, value in sorted(children[0]["sim"].items()):
        print(f"  {name:<48} {value:>16.6g}")
    print("exact counts:")
    for name, value in sorted(children[0]["counts"].items()):
        print(f"  {name:<48} {value:>16}")
    if traced_mode:
        print("per-layer (host time from spans unless a count or simulated):")
        for name, m in layers.items():
            print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"checks: {attempted} attempted, {len(failures)} failed,"
          f" error_rate {error_rate:.6g}")
    for f in failures:
        print(f"  FAILED: {f}")

    metrics = layers if traced_mode else end_to_end
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
