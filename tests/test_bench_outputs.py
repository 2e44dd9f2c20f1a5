"""Every benchmark case prints the bytes it printed when the digests were
recorded.

bench/workloads.py makes each workload's cases from a seed; each case runs
in this process through linser.cli.main, with its document on stdin, and
its exit code and the sha256 of its stdout are compared with
tests/golden/bench_digests.json.  The invariants documents are built with
sympy, so they skip without it.

After a change that is meant to alter the output, record the digests again
with

    PYTHONPATH=src python tests/test_bench_outputs.py > tests/golden/bench_digests.json
"""

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from linser import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = Path(__file__).parent / "golden" / "bench_digests.json"
WORKLOADS = ("basepoints", "series", "invariants")
SEEDS = (1, 2, 3)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests(workload, seed):
    """{case name: {"rc", "sha256"}} for the cases of one workload and seed."""
    # the invariants cases import the benchmark's checks module
    sys.path.insert(0, str(BENCH))
    try:
        cases = _load_workloads().make_cases(workload, seed)
    finally:
        sys.path.remove(str(BENCH))
    out = {}
    real_stdin = sys.stdin
    for case in cases:
        printed = io.StringIO()
        sys.stdin = io.StringIO(json.dumps(case["doc"]))
        try:
            with redirect_stdout(printed), redirect_stderr(io.StringIO()):
                rc = cli.main(case["argv"])
        finally:
            sys.stdin = real_stdin
        sha = hashlib.sha256(printed.getvalue().encode()).hexdigest()
        out[case["name"]] = {"rc": rc, "sha256": sha}
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_case_outputs_match_the_recorded_digests(workload, seed):
    if workload == "invariants":
        pytest.importorskip("sympy")
    recorded = json.loads(DIGESTS.read_text())[workload][str(seed)]
    assert _digests(workload, seed) == recorded


if __name__ == "__main__":
    table = {w: {str(s): _digests(w, s) for s in SEEDS} for w in WORKLOADS}
    print(json.dumps(table, indent=1, sort_keys=True))
