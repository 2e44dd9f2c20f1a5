"""One pass: a fresh interpreter runs a workload's cases once, in order.

Usage: python3 worker.py SRC_DIR, with the pass description as JSON on
stdin and the result as JSON on stdout.  linser is imported first, so the
parent can time interpreter start to import done.  Each case is one call
of linser.cli.main with stdin and stdout replaced by in-memory files; a
case with a budget is stopped by SIGALRM when the budget runs out.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import linser.cli  # noqa: E402

IMPORTED = time.monotonic()

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402


class OutOfBudget(BaseException):
    """Raised from the alarm handler; the CLI catches no BaseException."""


def _alarm(signum, frame):
    raise OutOfBudget


def run_case(case, call):
    real_stdin, real_stdout, real_stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(case["stdin"])
    out, err = io.StringIO(), io.StringIO()
    budget = case["budget"]
    gc.collect()
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        if budget:
            signal.setitimer(signal.ITIMER_REAL, budget)
        rc = call(case["argv"])
        seconds = time.perf_counter() - start
    except OutOfBudget:
        rc, seconds = None, budget
    finally:
        if budget:
            signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin, sys.stdout, sys.stderr = real_stdin, real_stdout, real_stderr
    text = out.getvalue()
    return {
        "rc": rc,
        "seconds": seconds,
        "sha": hashlib.sha256(text.encode()).hexdigest(),
        "out": text,
        "err": err.getvalue()[-400:],
    }


def peak_rss_kb():
    """Peak resident set of this process.

    VmHWM starts afresh at exec; ru_maxrss would carry over the parent's
    peak, which the checks' sympy import raises.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    job = json.load(sys.stdin)
    rec = None
    call = linser.cli.main
    if job["trace"]:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
        call = rec.span(tracing.CASE_SPAN, call)
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    for case in job["cases"]:
        result = run_case(case, call)
        if not job["keep_output"]:
            result["out"] = None
        if rec is not None:
            if result["rc"] is None:
                rec.drop_case()
            else:
                result["layers"] = rec.case_totals()
        results.append(result)
    report = {
        "imported": IMPORTED,
        "maxrss_kb": peak_rss_kb(),
        "cases": results,
    }
    if rec is not None and job["spans_file"]:
        with open(job["spans_file"], "w") as fh:
            json.dump({"spans": rec.spans}, fh)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
