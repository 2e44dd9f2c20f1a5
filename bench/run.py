"""Benchmark of linser's CLI on three seeded workloads.

    python3 bench/run.py --workload basepoints --seed 1 --seconds 35 --trace 0

A run is a series of passes.  Each pass is a fresh interpreter that runs
every case of the workload once, in a fixed order, as a closed loop with
one client (bench/worker.py).  Passes start until the next one would end
after --seconds.  A case's time is its median over the passes; the
program's outputs are checked against sympy (bench/checks.py) after the
passes.  The last line of stdout is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # a run must end within 180 s, checks included
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def spawn_pass(job, deadline):
    """Run one worker process; returns (its report, seconds from spawn to import done)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # the unmeasured first pass writes linser's bytecode; every measured
    # pass then imports from it, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"the passes did not end within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"a pass exited with code {proc.returncode}: {err[-2000:]}")
    report = json.loads(out)
    return report, report["imported"] - spawned


def run_passes(cases, seconds, trace, spans_file, deadline):
    job = {
        "cases": [
            {"argv": c["argv"], "stdin": json.dumps(c["doc"]), "budget": c["budget"]}
            for c in cases
        ],
        "trace": trace,
        "keep_output": True,
        "spans_file": spans_file,
    }
    spawn_pass(dict(job, cases=[], trace=False), deadline)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn_pass(job, deadline))
        job["keep_output"] = False
        job["spans_file"] = None
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def summarize(cases, passes, trace):
    """Metrics, attempted and failed counts, and output consistency errors."""
    errors = []
    first = passes[0][0]["cases"]
    failed = 0
    for report, _ in passes:
        for case, res, ref in zip(cases, report["cases"], first):
            if res["rc"] != 0:
                failed += 1
                if case["budget"] is None:
                    errors.append(f"{case['name']}: exit {res['rc']}: {res['err'].strip()}")
            elif res["sha"] != ref["sha"]:
                errors.append(f"{case['name']}: output differs between passes")
    medians = [
        statistics.median(report["cases"][k]["seconds"] for report, _ in passes)
        for k in range(len(cases))
    ]
    wall = sum(medians)
    if not trace:
        metrics = {
            "setup_s": (statistics.median(s for _, s in passes), "s"),
            "wall_s": (wall, "s"),
            "case_geomean_s": (math.exp(statistics.fmean(math.log(m) for m in medians)), "s"),
            "peak_rss_mb": (max(r["maxrss_kb"] for r, _ in passes) / 1024, "MB"),
        }
        return metrics, failed, errors
    per_pass = []
    for report, _ in passes:
        totals = dict.fromkeys(tracing.METRICS, 0)
        for res in report["cases"]:
            for name, value in res.get("layers", {}).items():
                kind = tracing.METRICS[name][0]
                totals[name] = max(totals[name], value) if kind == "max" else totals[name] + value
        per_pass.append(totals)
    metrics = {"trace.wall_s": (wall, "s")}
    for name, (kind, _) in tracing.METRICS.items():
        values = [t[name] for t in per_pass]
        if kind == "s":
            metrics[name] = (statistics.median(values), "s")
        else:
            if len(set(values)) != 1:
                errors.append(f"{name} differs between passes: {sorted(set(values))}")
            metrics[name] = (int(values[0]), "count")
    return metrics, failed, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "linser" / "__init__.py").is_file():
        fail(f"no linser sources under {SRC}; run from a checkout of the repository")
    try:
        import checks
    except ImportError as exc:
        fail(f"the output checks need sympy: {exc}")

    cases = workloads.make_cases(args.workload, args.seed)
    spans_file = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = str(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    passes = run_passes(cases, args.seconds, bool(args.trace), spans_file, deadline)
    metrics, failed, errors = summarize(cases, passes, bool(args.trace))

    outputs = {
        c["name"]: json.loads(res["out"])
        for c, res in zip(cases, passes[0][0]["cases"])
        if res["rc"] == 0
    }
    errors += checks.check_workload(args.workload, cases, outputs)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        context = {name: checks.output_sizes(c, outputs[name])
                   for c in cases if (name := c["name"]) in outputs}
        with open(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"metrics": {k: v for k, (v, _) in metrics.items()},
                       "passes": len(passes), "sizes": context}, fh, indent=1)
    print(f"{len(passes)} passes of {len(cases)} cases", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(passes) * len(cases),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
