"""Measure run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out perfbench/evidence/steady-1.json

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, and
reports for every metric the median and the quartile spread (third minus
first quartile of ``statistics.quantiles(values, n=4)``, as a share of the
median) next to the metric's bound in ``BENCHMARK.json``.  The output file
keeps every run's last-line result and its full record (provenance, op
count, raw op times), so the figures can be recomputed from it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in doc["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=doc["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            record = next(line.split(" ", 1)[1] for line in lines if line.startswith("record "))
            runs.append({
                "seed": seed,
                "result": json.loads(lines[-1]),
                "record": json.loads((ROOT / record).read_text()),
            })
        summary = {}
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "spread": spread, "bound": bound}
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:18s} {name:20s} median {median:14.6g} "
                  f"spread {spread:7.4f} bound {bound}{flag}", flush=True)
        failed = sum(run["result"]["failed"] for run in runs)
        print(f"{workload:18s} failed ops {failed}, all correct "
              f"{all(run['result']['correct'] for run in runs)}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
