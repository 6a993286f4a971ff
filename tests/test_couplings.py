"""Bessel evaluation and modulated effective couplings."""

import csv
import json

import mpmath
import numpy as np
import pytest
import scipy.special

from topochain import (
    InvalidParameterError,
    bessel_jn,
    effective_coupling_identical,
    effective_coupling_matched,
)
from topochain.cli import main


def _bessel_series_oracle(n, x, terms=60):
    # independent power-series oracle summed to machine precision
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (x / 2.0) ** (n + 2 * k) / (
            scipy.special.factorial(k) * scipy.special.factorial(n + k)
        )
    return total


def test_bessel_trivial_values():
    js = bessel_jn(5, 0.0)
    assert js[0] == 1.0
    assert js[1] == 0.0
    assert js[5] == 0.0


def test_bessel_j0_of_one_against_series_oracle():
    oracle = _bessel_series_oracle(0, 1.0)
    assert oracle == pytest.approx(0.765197686557967, abs=1e-15)
    assert bessel_jn(0, 1.0)[0] == pytest.approx(oracle, abs=1e-13)


def _mp_bessel(n, x):
    # arbitrary-precision reference, independent of scipy.special.jv
    with mpmath.workdps(30):
        return float(mpmath.besselj(n, mpmath.mpf(float(x))))


@pytest.mark.parametrize("x", [0.03, 0.09, 0.11, 0.5, 1.0, 2.0, 7.5, 20.0, 49.5, -3.0, -0.05])
def test_bessel_matches_scipy_grid(x):
    mine = bessel_jn(45, x)
    ref = np.array([_mp_bessel(n, x) for n in range(46)])
    assert np.abs(mine - ref).max() <= 1e-12


def test_bessel_three_term_recurrence():
    for x in (0.5, 1.0, 2.0):
        js = bessel_jn(11, x)
        for n in range(1, 11):
            lhs = js[n - 1] + js[n + 1]
            rhs = (2.0 * n / x) * js[n]
            assert abs(lhs - rhs) <= 1e-10


def test_bessel_parseval():
    for x in (0.5, 1.0, 2.0):
        js = bessel_jn(40, x)
        total = js[0] ** 2 + 2.0 * np.sum(js[1:] ** 2)
        assert abs(total - 1.0) <= 1e-10


def test_bessel_domain_guard():
    with pytest.raises(InvalidParameterError):
        bessel_jn(0, 50.0)
    with pytest.raises(InvalidParameterError):
        bessel_jn(0, -63.0)


def test_identical_zero_drive_returns_bare():
    out = effective_coupling_identical(0.7, 0.0, 0.0)
    assert out == 0.7 and np.isrealobj(out)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_identical_equal_drives_graf_identity(alpha):
    # sum (-1)^n J_n(alpha)^2 = J_0(2 alpha), against mpmath rather than the
    # scipy.special.jv that the sum is built from
    out = effective_coupling_identical(1.0, alpha, alpha)
    assert abs(out - _mp_bessel(0, 2.0 * alpha)) <= 1e-10
    assert np.isrealobj(out)


def test_identical_symmetric_and_converged():
    a = effective_coupling_identical(1.3, 0.4, 1.1)
    b = effective_coupling_identical(1.3, 1.1, 0.4)
    assert a == b
    for alpha in (0.5, 1.0, 2.0):
        v20 = effective_coupling_identical(1.0, alpha, alpha, n_max=20)
        v40 = effective_coupling_identical(1.0, alpha, alpha, n_max=40)
        assert abs(v20 - v40) <= 1e-12


def test_default_order_reaches_graf_sum_over_whole_domain():
    # sum_n (-1)^n J_n(a1) J_n(a2) = J_0(a1 + a2) (Graf); the default n_max
    # must not truncate it anywhere in |alpha| < 50
    a1 = np.linspace(-49.9, 49.9, 37)
    a2 = np.linspace(-49.9, 49.9, 29)
    mine = effective_coupling_identical(1.0, a1[:, None], a2[None, :])
    ref = np.array([[_mp_bessel(0, x + y) for y in a2] for x in a1])
    assert np.abs(mine - ref).max() <= 1e-12


def test_matched_values():
    assert effective_coupling_matched(1.0, 0.3, 0.0) == 0.0
    out = effective_coupling_matched(1.0, 0.0, 1.8412)
    assert out.real == 0.0
    assert abs(out.imag) == pytest.approx(0.5819, abs=2e-4)
    q_form = effective_coupling_matched(2.0, 1.8412, 0.0, odd_bond=False)
    assert abs(q_form.imag) == pytest.approx(2 * 0.5819, abs=4e-4)


def test_coupling_magnitude_bounded_by_bare(rng):
    # empirical check over the working range; logged as an invariant, not
    # proven in general
    for _ in range(100):
        a1, a2 = rng.uniform(0.0, 3.0, size=2)
        out = effective_coupling_identical(1.0, a1, a2)
        assert abs(out) <= 1.0 + 1e-12
        out_m = effective_coupling_matched(1.0, a1, a2)
        assert abs(out_m) <= 1.0 + 1e-12


def _couplings_csv(tmp_path, scheme, run):
    out = tmp_path / f"{scheme}-{run}"
    cfg = {"schema": 1, "command": "couplings", "scheme": scheme, "bare_a": 0.8, "bare_b": 1.3,
           "alpha1": {"start": -45.0, "stop": 2.5, "points": 7}, "alpha2": {"start": -1.2, "stop": 0.6, "points": 5}}
    if scheme == "identical":  # the matched product J0 J1 has no series to cut
        cfg["n_max"] = 60
    cfg_path = tmp_path / "couplings.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return (out / "couplings.csv").read_bytes()


@pytest.mark.parametrize("scheme", ["identical", "matched"])
def test_couplings_grid_with_negative_drives_matches_mpmath(tmp_path, scheme):
    text = _couplings_csv(tmp_path, scheme, 1)
    assert _couplings_csv(tmp_path, scheme, 2) == text
    rows = list(csv.DictReader(text.decode().splitlines()))
    assert len(rows) == 35
    orders = range(-60, 61)
    worst = 0.0
    for row in rows:
        a1, a2 = float(row["alpha_1"]), float(row["alpha_2"])
        if scheme == "identical":
            dressing = sum((-1) ** n * _mp_bessel(n, a1) * _mp_bessel(n, a2) for n in orders)
            want_p, want_q = 0.8 * dressing, 1.3 * dressing
        else:
            want_p = 0.8 * _mp_bessel(0, a1) * _mp_bessel(1, a2)
            want_q = 1.3 * _mp_bessel(1, a1) * _mp_bessel(0, a2)
        worst = max(worst, abs(float(row["P"]) - want_p), abs(float(row["Q"]) - want_q))
    assert worst <= 1e-12


def test_array_drive_ratios_match_scalar_calls_bitwise():
    a1 = np.array([-45.0, -0.05, 0.0, 0.3, 7.5])
    a2 = np.array([-1.2, 0.0, 0.6, 20.0])
    grid_i = effective_coupling_identical(0.8, a1[:, None], a2[None, :], 60)
    grid_m = effective_coupling_matched(1.3, a1[:, None], a2[None, :], odd_bond=False)
    row_i = effective_coupling_identical(0.8, a1[1], a2, 60)  # scalar against array
    assert grid_i.shape == grid_m.shape == (5, 4)
    for i, x in enumerate(a1):
        for j, y in enumerate(a2):
            assert grid_i[i, j] == effective_coupling_identical(0.8, x, y, 60)
            assert grid_m[i, j] == effective_coupling_matched(1.3, x, y, odd_bond=False)
    assert np.array_equal(row_i, grid_i[1])
    assert bessel_jn(3, a1).shape == (5, 4)
    with pytest.raises(InvalidParameterError):
        effective_coupling_identical(1.0, np.array([0.5, 50.0]), 0.1)
