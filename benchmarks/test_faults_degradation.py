"""Benchmark -- graceful degradation under soft errors (Section I's claim).

The paper motivates stochastic computing with fault tolerance: a flipped
stream bit perturbs the encoded value by ``1/N``, while a flipped high-order
bit of a binary word is catastrophic.  This benchmark runs the
:mod:`repro.faults.sweep` degradation experiment at the committed artifact
geometry and asserts the claim quantitatively:

* at a per-bit per-cycle upset rate of 1e-3 (and 1e-2), the stochastic conv
  layer's sign-map accuracy drops *less* than the matched binary fixed-point
  baseline's;
* the stochastic value-domain error stays orders of magnitude below the
  binary one at every rate.

The sweep is fully deterministic (counter-hashed masks), so re-running this
benchmark regenerates ``BENCH_faults.json`` bit-for-bit.  It writes the
artifact under ``.bench_build/`` (untracked); CI compares that file byte for
byte against the committed copy at the repo root.
"""

from pathlib import Path

from repro.faults.sweep import (
    FaultSweepConfig,
    format_fault_sweep,
    run_fault_sweep,
    write_artifact,
)

ARTIFACT = Path(__file__).resolve().parent.parent / ".bench_build" / "BENCH_faults.json"


def test_sc_degrades_more_gracefully_than_binary():
    result = run_fault_sweep(FaultSweepConfig())
    print()
    print(format_fault_sweep(result))
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.unlink(missing_ok=True)  # a fresh file, not a merge into an old run
    write_artifact(result, ARTIFACT)

    rows = {row["rate"]: row for row in result.rows}
    clean = rows[0.0]
    assert clean["sc_sign_agreement"] == 1.0
    assert clean["binary_sign_agreement"] == 1.0

    # The acceptance criterion: at 1e-3 (and one decade up), the SC layer's
    # accuracy drop is smaller than the binary baseline's.
    for rate in (1e-3, 1e-2):
        row = rows[rate]
        sc_drop = 1.0 - row["sc_sign_agreement"]
        binary_drop = 1.0 - row["binary_sign_agreement"]
        assert sc_drop < binary_drop, (
            f"rate {rate}: SC drop {sc_drop:.4f} not below "
            f"binary drop {binary_drop:.4f}"
        )

    # Value-domain graceful degradation: the SC RMSE stays far below the
    # binary RMSE (high-order bit flips swing values by thousands of LSBs).
    for rate in (1e-4, 1e-3, 1e-2):
        row = rows[rate]
        assert row["sc_value_rmse"] * 10.0 < row["binary_value_rmse"], row

    # Degradation is monotone in the rate on both sides (the curve shape the
    # paper's Fig. 1 argument predicts).
    ordered = sorted(rows)
    sc_curve = [rows[r]["sc_sign_agreement"] for r in ordered]
    bin_curve = [rows[r]["binary_sign_agreement"] for r in ordered]
    assert sc_curve == sorted(sc_curve, reverse=True)
    assert bin_curve == sorted(bin_curve, reverse=True)
