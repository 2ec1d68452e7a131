"""One fresh interpreter of a benchmark run.

Imports tileproof from this checkout's ``src/``, builds the workload's seeded
inputs, and reports ``setup_s`` (from the moment the parent started this
process to inputs ready).  Unless its role is ``setup``, it then runs the
workload's operations, optionally traced, and prints one JSON line with the
operation records, peak RSS and the trace summary.

    python3 perfbench/worker.py '<json spec written by run.py>'
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_tileproof():
    """The tileproof package of this checkout, with all six modules loaded."""
    sys.path.insert(0, str(SRC))
    import tileproof
    import tileproof.cli  # noqa: F401  (the package does not import it)

    if not Path(tileproof.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tileproof was imported from {tileproof.__file__}, not {SRC}")
    return tileproof


def main(spec):
    tp = import_tileproof()
    import workloads
    from spans import Tracer

    work_dir = Path(spec["work_dir"]) / f"{spec['workload']}-child{spec['child']}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.setup(spec["workload"], tp, spec["seed"], spec["child"], work_dir)
        result = {"setup_s": time.monotonic() - spec["spawned"]}
        if spec["role"] == "setup":
            return result
        tracer = Tracer() if spec["trace"] else None
        if tracer:
            tracer.install()
        ops = workloads.Ops(tracer)
        t0 = time.perf_counter()

        def more(k):
            return k < spec["min_ops"] or time.perf_counter() - t0 < spec["budget_s"]

        workloads.run(spec["workload"], tp, inputs, ops, spec["role"], more)
        result.update(
            records=ops.records,
            errors=ops.errors,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            trace=tracer.summary() if tracer else None,
        )
        if tracer:
            tracer.dump(spec["span_file"])
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
