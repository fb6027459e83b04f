"""Acceptance gate: every validated claim bundle at full pinned scale.

One test per criterion; each prints a single verdict line and, on
failure, the offending comparison rows.  The same bundles back the
``fractdim verify`` subcommand.
"""

import inspect
import math
import types

import numpy as np

from fractdim import acceptance


def _gate(label, rows):
    good = sum(r.passed for r in rows)
    verdict = "PASS" if good == len(rows) else "FAIL"
    print(f"[acceptance] {label}: {verdict} ({good}/{len(rows)} checks)")
    bad = "\n".join(r.row() for r in rows if not r.passed)
    assert good == len(rows), f"{label} failed:\n{bad}"


def test_01_closed_form_identities():
    _gate("closed-form identities", acceptance.closed_form_identities())


def test_02_legendre_grid_oracle():
    _gate("Legendre grid oracle", acceptance.legendre_oracle())


def test_03_optimal_measures():
    _gate("optimal measures", acceptance.optimal_measures())


def test_04_markov_approximation():
    _gate("Markov approximation", acceptance.markov_approximation_suite())


def test_05_gibbs_states():
    _gate("Gibbs states", acceptance.gibbs_suite())


def test_06_dimension_calibration():
    _gate("dimension calibration", acceptance.dimension_calibration())


def test_07_coarse_multifractal_spectrum():
    _gate("coarse multifractal spectrum", acceptance.multifractal_reproduction())


def test_08_projection_experiments():
    _gate("projection experiments", acceptance.marstrand_suite())


def test_09_separation_and_holder():
    _gate("separation and Holder", acceptance.separation_suite())


def test_10_transversality_exponent():
    _gate("transversality exponent", acceptance.transversality_suite())


def test_separation_gate_fails_a_nan_exponent(monkeypatch):
    # the builtin max drops a NaN unless it comes first; the gate must keep it
    calls = []

    def ede_check(ifs, word, depths, epsilon, tol):
        calls.append(word)
        worst = math.nan if len(calls) == 2 else 0.5
        return types.SimpleNamespace(
            all_passed=True, worst_exponent=worst,
            passed=np.zeros(1, dtype=bool), overlap_suspected=True,
        )

    monkeypatch.setattr(acceptance, "ede_check", ede_check)
    rows = {r.name: r for r in acceptance.separation_suite()}
    row = rows["worst separation exponent stays below 1 + eps"]
    assert math.isnan(row.got)
    assert not row.passed


def test_11_worker_determinism():
    _gate("worker determinism", acceptance.determinism_suite())


def test_every_suite_takes_workers():
    # `run_suite` calls each suite as fn(workers=...)
    for name, fns in acceptance.SUITES.items():
        for fn in fns:
            inspect.signature(fn).bind(workers=1)
