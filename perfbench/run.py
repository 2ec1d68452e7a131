"""tileproof benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 40 --trace 0

Workloads: ``decide``, ``claims`` and ``proof-io`` (see perfbench/README.md).
Every timed part runs in a fresh interpreter (``perfbench/worker.py``),
started one at a time, so a process-wide cache, the peak RSS and the set-up
time belong to one child only.  The run prints named figures
(``equal_4x4_s``, ``claims3_s``, ``scripts_per_s``, ...) as text lines, then,
as its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run does the same fixed job whatever
``--workload`` and ``--seconds`` say: it profiles each layer on the workload
that exercises it (see ``traced_job``).

Exits with code 2, printing no result, when the checkout has no tileproof
sources, and with code 1 when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import LONG_OP, REPEAT_OP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 6  # set-up-only children per run, besides the working ones
RUN_LIMIT_S = 170  # a run that is not done by then is killed and fails
SCRIPT_CHILD_S = 8.0  # measuring time of one proof-io child
MIN_SCRIPTS = 50
# Operations of each traced work child (and of its untraced twin) after the
# workload's first operation; the claims child always checks 4,000 models.
TRACED_OPS = {"decide": 2, "claims": 0, "proof-io": 500}


class ChildFailed(RuntimeError):
    pass


class Run:
    """Spawns the children of one run and keeps their results."""

    def __init__(self, seed, seconds):
        self.seed = seed
        start = time.monotonic()
        self.deadline = start + seconds
        self.hard_stop = start + RUN_LIMIT_S
        self.results = []
        self.reference = []  # untraced children of a traced run

    def remaining(self):
        return self.deadline - time.monotonic()

    def spawn(self, workload, role, traced=False, budget_s=0.0, min_ops=0, reference=False):
        child = len(self.results) + len(self.reference)
        spec = {
            "workload": workload, "seed": self.seed, "child": child, "role": role,
            "trace": traced, "budget_s": budget_s, "min_ops": min_ops,
            "work_dir": str(OUT / "work"),
            "span_file": str(OUT / "spans" / f"{workload}-child{child}.jsonl"),
        }
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "TILEPROOF_MAX_ORDER")}
        env["PYTHONHASHSEED"] = str((self.seed * 1000 + child) % 2**32)
        spec["spawned"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, self.hard_stop - time.monotonic()),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{role} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["wall_s"] = time.monotonic() - spec["spawned"]
        result["workload"] = workload
        (self.reference if reference else self.results).append(result)
        return result

    def execute(self, workload):
        for _ in range(SETUP_SAMPLES):
            self.spawn(workload, "setup")
        getattr(self, "_" + workload.replace("-", "_"))()

    def traced_job(self):
        """A fixed job, so that per-layer counts and times are costs of the
        same work on every run: one traced 4x4 search, then for each workload
        a traced work child of fixed size and its untraced twin, whose times
        give the tracing overhead."""
        self.spawn("decide", "lead", traced=True)
        for workload, ops in TRACED_OPS.items():
            self.spawn(workload, "work", min_ops=ops, reference=True)
            self.spawn(workload, "work", traced=True, min_ops=ops)

    def _decide(self):
        # Two 4x4 searches, with Distinct queries before, between and after
        # them, so that a slow spell of the machine does not fall on all the
        # queries of one kind.  The first query child takes a fifth of the
        # time; the later ones share what the measured length of the last
        # search leaves.
        lead_s = None
        for leads_left in (2, 1, 0):
            if lead_s is None:
                budget = self.remaining() / (2 * leads_left + 1)
            else:
                budget = (self.remaining() - leads_left * lead_s) / (leads_left + 1)
            self.spawn("decide", "work", budget_s=budget, min_ops=1)
            if leads_left:
                lead_s = self.spawn("decide", "lead")["wall_s"]

    def _claims(self):
        # Each pair is a fresh child for claims verify alone and one for
        # claims verify plus the order-4 models: two samples of the former.
        pairs = 0
        while True:
            start = time.monotonic()
            self.spawn("claims", "lead")
            self.spawn("claims", "work")
            pairs += 1
            if pairs >= 3 and self.remaining() < time.monotonic() - start:
                return

    def _proof_io(self):
        children = 0
        while children < 3 or self.remaining() > 1.0:
            budget = max(1.0, min(SCRIPT_CHILD_S, self.remaining() - 0.3))
            self.spawn("proof-io", "work", budget_s=budget, min_ops=MIN_SCRIPTS)
            children += 1


def _records(results, kind=None):
    return [(k, s, ok) for r in results for k, s, ok in r.get("records", ())
            if kind is None or k == kind]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, run):
    long = [s for _, s, _ in _records(run.results, LONG_OP[workload])]
    repeat = [s for _, s, _ in _records(run.results, REPEAT_OP[workload])]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in run.results), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in run.results if "rss_mb" in r), "MB"),
        "long_op_ms": (statistics.median(long) * 1e3, "ms"),
        "op_p50_ms": (statistics.median(repeat) * 1e3, "ms"),
        "op_p90_ms": (_p90(repeat) * 1e3, "ms"),
        "ops_per_s": (len(repeat) / sum(repeat), "1/s"),
    }


def named_figures(workload, run, metrics):
    """Each workload's figures under their own names, for the text lines."""
    def med(kind):
        return statistics.median(s for _, s, _ in _records(run.results, kind))

    repeat = [s for _, s, _ in _records(run.results, REPEAT_OP[workload])]
    rows = []
    if workload == "decide":
        rows += [("equal_4x4_s", med("prove_swap_4x4"), "s"),
                 ("distinct_3x4_s", med("equal_distinct_3x4"), "s"),
                 ("interior_3x4_s", med("prove_swap_3x4"), "s"),
                 ("distinct_3x4_p90_s", metrics["op_p90_ms"][0] / 1e3, f"s (n={len(repeat)})")]
    elif workload == "claims":
        rows += [("claims3_s", med("claims_verify_3"), "s"),
                 ("models_o4_per_s", metrics["ops_per_s"][0], "1/s")]
    else:
        rows += [("scripts_per_s", metrics["ops_per_s"][0], "1/s"),
                 ("script_p50_ms", metrics["op_p50_ms"][0], "ms"),
                 ("script_p90_ms", metrics["op_p90_ms"][0], f"ms (n={len(repeat)})"),
                 ("verify_long_ms", metrics["long_op_ms"][0], "ms")]
    recs = _records(run.results)
    failed = sum(1 for _, _, ok in recs if not ok)
    rows += [("setup_s", metrics["setup_s"][0], f"s (median of {len(run.results)})"),
             ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB"),
             ("error_rate", failed / len(recs), f"({failed}/{len(recs)})")]
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tileproof" / "__init__.py").is_file():
        print(f"no tileproof sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    for stale in (OUT / "spans").glob("*-child*.jsonl"):
        stale.unlink()
    run = Run(args.seed, args.seconds)
    try:
        if args.trace:
            run.traced_job()
        else:
            run.execute(args.workload)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1

    children = run.results + run.reference
    recs = _records(children)
    failed = sum(1 for _, _, ok in recs if not ok)
    for r in children:
        for line in r.get("errors", ()):
            print(f"wrong or failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = layers.per_layer(run)
        rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    else:
        metrics = end_to_end(args.workload, run)
        rows = named_figures(args.workload, run, metrics)
    for name, value, unit in rows:
        print(f"{args.workload:9s} {name:30s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
