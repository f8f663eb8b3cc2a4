"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload this_work_8bit --seed 0 --seconds 12 --trace 0

Run from the repository root.  The run pins BLAS/OpenMP to one thread, unsets
every ``REPRO_*`` variable (so the program's defaults are measured), sets up,
issues ops back to back for ``--seconds`` of op time and checks every op's
output.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record with provenance and raw op times is written to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> bool:
    """Pin threads, unset ``REPRO_*`` and make ``repro`` and ``benchlib`` importable.

    Must run before numpy is imported.  Returns False when the checkout has
    no ``src/repro`` package to measure.
    """
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return False
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = THREADS
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare_environment():
        return 2
    import benchlib

    wl = benchlib.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(benchlib.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        result = benchlib.run_traced(wl, args.seed, args.seconds)
        units = benchlib.per_layer_units()
    else:
        result = benchlib.run_untraced(wl, args.seed, args.seconds)
        units = benchlib.END_TO_END_UNITS
    log = result.log
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": benchlib.provenance(ROOT, args.seed),
        "ops": log.attempted,
        "failed": log.failed,
        "problems": log.problems,
        "op_seconds": log.seconds,
        "metrics": result.metrics,
        "info": result.info,
    }
    if result.spans:
        record["spans"] = [
            {"op": op, "name": name, "parent": None if name == "op" else "op",
             "start": start, "end": end, "peak_bytes": peak}
            for op, name, start, end, peak in result.spans
        ]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(path, "w") as handle:
        json.dump(record, handle)

    print(f"workload {wl.name}: {wl.why}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"ops attempted {log.attempted}, failed {log.failed}, "
          f"failed_frac {log.failed_frac}")
    for problem in log.problems:
        print(f"  failed: {problem}")
    for key, value in result.info.items():
        if not isinstance(value, list):
            print(f"{key} {value}")
    if not args.trace:
        print(f"op_ms_tail is p{result.info['op_ms_tail_percentile']:g} of "
              f"{log.attempted} ops ({result.info['op_ms_tail_beyond']} beyond)")
    for name, value in result.metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
