"""Record the pinned per-op digests of the default seed in ``digests.json``.

    python3 perfbench/record_digests.py

For each digest-checked workload this sets up once, then issues the same op
sequence a run issues (warm-up, then ops 0, 1, ...) on one network and the
traced rebuild on a twin, and stores per op: the predicted classes (hybrid),
the first layer's int64 ``(pos, neg)`` counts (hybrid) or the per-net toggle
vectors (netlist).  ``faulted_8bit`` gets invariant checks only, so it has no
digests.  Runs that issue more ops than recorded check the extra ops by
invariants alone.
"""

from __future__ import annotations

import json
import sys

from run import HERE, prepare_environment

#: Ops recorded per workload: about twice what a 12-second run issues on a
#: 2-CPU host.
OPS = {"this_work_8bit": 64, "old_sc_4bit": 192, "netlist_activity": 320}


def main() -> int:
    if not prepare_environment():
        return 2
    import benchlib
    import numpy as np

    seed = benchlib.DEFAULT_SEED
    recorded = {}
    for name, ops in OPS.items():
        wl = benchlib.WORKLOADS[name]
        a = benchlib.setup(wl, seed, {})
        b = a.twin()
        digests = {}
        for i in range(ops):
            if wl.kind == "hybrid":
                logits = benchlib.hybrid_op(a, i)
                replay = benchlib.hybrid_replay(b.net, b.images(i), benchlib.NULL_TRACER)
                if not np.array_equal(logits, replay.logits):
                    raise SystemExit(f"{name} op {i}: traced rebuild differs")
                classes = np.argmax(logits, axis=1).astype(np.int64)
                digests.setdefault("classes", []).append(benchlib.digest(classes))
                digests.setdefault("counts", []).append(
                    benchlib.digest(replay.positive, replay.negative)
                )
            else:
                out = benchlib.netlist_op(a, i, benchlib.NULL_TRACER)
                twin = benchlib.netlist_op(b, i, benchlib.NULL_TRACER)
                value = benchlib.toggles_digest(out["toggles"])
                if value != benchlib.toggles_digest(twin["toggles"]):
                    raise SystemExit(f"{name} op {i}: traced rebuild differs")
                digests.setdefault("toggles", []).append(value)
        recorded[name] = digests
        print(f"{name}: {ops} ops recorded")
    with open(HERE / "digests.json", "w") as handle:
        json.dump({"seed": seed, "workloads": recorded}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
