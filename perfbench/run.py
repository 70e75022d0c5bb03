"""multbound benchmark: family scans and Koszul cross-checks.

    python3 perfbench/run.py --workload scan-n3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload from workloads.py through multbound's public API, checks
its outputs, and prints the run metadata, one line per metric and, as the
last line, a JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics. --trace 1 makes a traced run that
reports the per-module metrics and writes its spans to
.perfbench/trace-<workload>-seed<seed>.json. The exit code is 1 when a
correctness gate fails and 2 when the package source is missing.
--smoke runs seconds-long versions of every workload and checks the output.

End-to-end times are scaled to a reference host speed by speed.py, which
samples the host's speed all through the timed calls; the raw figures are
printed under "unscaled" in the meta line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from spans import Tracer
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7  # fresh processes timed per run; setup_s is their median
SMOKE = ("smoke-scan-n3", "smoke-scan-n4", "smoke-crosscheck")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "hilbert.enumerate_s": "s",
    "hilbert.sequences": "count",
    "monomial.lex_profile_s": "s",
    "monomial.lex_generators": "count",
    "betti.greedy_s": "s",
    "betti.entries": "count",
    "verdict.classify_s": "s",
    "verdict.classify_p50_ms": "ms",
    "verdict.classify_max_ms": "ms",
    "verdict.exceptions": "count",
    "verdict.dfs_nodes": "count",
    "verdict.violating": "count",
    "verdict.survivors": "count",
    "verdict.cap_hits": "count",
    "verdict.violating_per_knode": "1/knode",
    "koszul.betti_s": "s",
    "koszul.truncation_s": "s",
    "koszul.std_monomials": "count",
    "koszul.ek_agree": "count",
    "scanner.report_s": "s",
    "scanner.report_bytes": "bytes",
    "scanner.resume_s": "s",
    "scanner.checkpoint_bytes": "bytes",
    "scanner.cpu_util": "ratio",
    "trace.rep_s": "s",
    "trace.replay_s": "s",
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_seconds():
    """User plus system CPU of this process."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# Runs in a fresh interpreter, so that the package is imported cold.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
from speed import SpeedSampler
with SpeedSampler(period=0.01) as speed:
    start = time.perf_counter()
    import multbound
    imported = time.perf_counter()
    import workloads
    built = time.perf_counter()
    workloads.WORKLOADS[{name!r}].make_inputs({seed})
    end = time.perf_counter()
print(speed.scaled(start, imported) + speed.scaled(built, end))
"""


def measure_setup(name, seed):
    """Median over fresh processes of importing multbound plus building the inputs, scaled."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(Path(__file__).parent), name=name, seed=seed)
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def untraced(wl, inputs, workdir, seconds):
    """Repeat the workload for about seconds (at least min_reps times); end-to-end metrics.

    Each call's latency is its median over the repetitions, in seconds at the
    reference speed; the raw figures come back as well, for the log.
    """
    reference = None
    attempted = failed = 0
    reps = []
    start = time.perf_counter()
    with SpeedSampler() as speed:
        while True:
            items, calls, output = wl.run(inputs, workdir, nullcontext)
            failed += wl.check(inputs, output, reference)
            reference = reference if reference is not None else output
            attempted += items
            reps.append(calls)
            if len(reps) == 1:
                rss = peak_rss_mb()  # later repetitions would make it depend on their number
            elapsed = time.perf_counter() - start
            # Stop unless another repetition would end close to the target.
            if len(reps) >= wl.min_reps and elapsed + sum(e - s for s, e in calls) / 2 >= seconds:
                break
    scaled = [statistics.median(speed.scaled(*call) for call in same) for same in zip(*reps)]
    raw = [statistics.median(e - s for s, e in same) for same in zip(*reps)]
    metrics = {}
    for prefix, latencies in (("", scaled), ("raw_", raw)):
        metrics |= {
            prefix + "items_per_s": items / sum(latencies),
            prefix + "call_p50_ms": 1e3 * statistics.median(latencies),
            prefix + "call_p95_ms": 1e3 * percentile(latencies, 95),
        }
    metrics["peak_rss_mb"] = rss
    metrics["repetitions"] = len(reps)
    metrics["speed_samples"] = len(speed.factors())
    metrics["speed_factor_p50"] = statistics.median(speed.factors())
    return metrics, attempted, failed, reference


def traced(wl, inputs, workdir):
    """One traced and one untraced repetition, then the per-module replay."""
    tracer = Tracer()
    with tracer.span("rep"):
        cpu, wall = cpu_seconds(), time.perf_counter()
        items, calls, output = wl.run(inputs, workdir, tracer.span)
        cpu, wall = cpu_seconds() - cpu, time.perf_counter() - wall
    failed = wl.check(inputs, output, None)
    items_u, calls_u, output_u = wl.run(inputs, workdir, nullcontext)
    failed += wl.check(inputs, output_u, output)
    attempted = items + items_u
    with tracer.span("replay"):
        problems = wl.replay(inputs, workdir, tracer, output)
    for problem in problems:
        print(f"{wl.name}: {problem}", file=sys.stderr)
    if problems:
        failed = attempted

    replay = "replay"
    counts = tracer.counts
    classify_ms = [1e3 * d for d in tracer.durations("verdict.classify", replay)]
    rate = items / sum(e - s for s, e in calls)
    rate_u = items_u / sum(e - s for s, e in calls_u)
    metrics = {
        "hilbert.enumerate_s": tracer.total("hilbert.enumerate_o_sequences", replay),
        "hilbert.sequences": counts["hilbert.sequences"],
        "monomial.lex_profile_s": tracer.total("monomial.lex_generator_profile", replay),
        "monomial.lex_generators": counts["monomial.lex_generators"],
        "betti.greedy_s": tracer.total("betti.greedy_minimize", replay),
        "betti.entries": counts["betti.entries"],
        "verdict.classify_s": sum(classify_ms) / 1e3,
        "verdict.classify_p50_ms": statistics.median(classify_ms) if classify_ms else 0.0,
        "verdict.classify_max_ms": max(classify_ms, default=0.0),
        "verdict.exceptions": counts["verdict.exceptions"],
        "verdict.dfs_nodes": counts["verdict.dfs_nodes"],
        "verdict.violating": counts["verdict.violating"],
        "verdict.survivors": counts["verdict.survivors"],
        "verdict.cap_hits": counts["verdict.cap_hits"],
        "verdict.violating_per_knode": (
            1e3 * counts["verdict.violating"] / counts["verdict.dfs_nodes"]
            if counts["verdict.dfs_nodes"] else 0.0
        ),
        "koszul.betti_s": tracer.total("koszul.koszul_betti", replay),
        "koszul.truncation_s": tracer.total("koszul.truncation_analysis", replay),
        "koszul.std_monomials": counts["koszul.std_monomials"],
        "koszul.ek_agree": counts["koszul.ek_agree"],
        "scanner.report_s": tracer.total("scanner.ScanReport.to_json", replay),
        "scanner.report_bytes": counts["scanner.report_bytes"],
        "scanner.resume_s": tracer.total("scanner.scan[resume]", replay),
        "scanner.checkpoint_bytes": counts["scanner.checkpoint_bytes"],
        "scanner.cpu_util": cpu / wall,
        "trace.rep_s": tracer.total("rep", "rep"),
        "trace.replay_s": tracer.total("replay", replay),
        "trace.items_per_s": rate,
        "trace.untraced_items_per_s": rate_u,
        "trace.overhead_pct": 100 * (rate_u - rate) / rate_u,
    }
    return metrics, attempted, failed, output, tracer, problems


def run(wl, seed, seconds, trace):
    """One benchmark run; returns (result, metadata, outcome, trace payload or None)."""
    import multbound

    meta = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "multbound": multbound.__version__,
        "params": wl.params(),
    }
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if trace:
            inputs = wl.make_inputs(seed)
            metrics, attempted, failed, output, tracer, problems = traced(wl, inputs, workdir)
            units = PER_LAYER
        else:
            setup_s = measure_setup(wl.name, seed)
            inputs = wl.make_inputs(seed)
            metrics, attempted, failed, output = untraced(wl, inputs, workdir, seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    # Raw (unscaled) times and the speed sampling behind the scaled ones, for the log.
    if not trace:
        meta["unscaled"] = {name: value for name, value in metrics.items() if name not in units}
    outcome = wl.outcome(output)
    payload = None
    if trace:
        payload = {"meta": meta, "outcome": outcome, "problems": problems, **result, **tracer.to_json()}
    return result, meta, outcome, payload


def print_result(result, meta, outcome):
    print("meta " + json.dumps(meta, sort_keys=True))
    print("outcome " + json.dumps(outcome, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  fail_frac = {result['failed'] / result['attempted']}")
    print(json.dumps(result))


def smoke():
    """Seconds-long runs of every workload; checks names, units, gates and a planted failure."""
    from workloads import SMOKE_N3, WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    histograms = []
    for name in SMOKE:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, meta, outcome, _ = run(WORKLOADS[name], 1, 0.5, trace)
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} differ from BENCHMARK.json {want}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: a correctness gate failed")
            if "truncation_status" in outcome:
                histograms.append(outcome["truncation_status"])
            print(f"smoke {name} trace={trace}: attempted {result['attempted']}, failed {result['failed']}")
    if len(histograms) != 2 or histograms[0] != histograms[1]:
        problems.append(f"crosscheck status histograms differ for one seed: {histograms}")
    planted = replace(
        WORKLOADS["smoke-scan-n3"], expected={**SMOKE_N3, "scanned": SMOKE_N3["scanned"] + 1}
    )
    result, *_ = run(planted, 1, 0.5, 0)
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append("a planted wrong expected count did not fail the run")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the seconds-long self-test")
    args = parser.parse_args(argv)
    if not (SRC / "multbound" / "__init__.py").is_file():
        print(f"multbound source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, meta, outcome, payload = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    if payload is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(payload) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    print_result(result, meta, outcome)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
