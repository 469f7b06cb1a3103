import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfc
import bfc.bounds
from bfc.bounds import (
    LP_CAP_TABLE,
    LP_CAPS,
    MARKOV_CAPS,
    MONOTONE_DEGREE_MAX_DMAX,
    MONOTONE_DT_MAX_DMAX,
    SQUARE_CAPS,
    cap_profile,
    cs_harmonic_bound,
    cs_sens_bound,
    dp_degree,
    dp_mixed_ds,
    dp_monotone_degree,
    ds_influence_min,
    markov_cap,
    monotone_dt_table,
    power_tail,
)
from bfc.bounds import (
    POW2_BITS, _base_sums, _pow2, _pow2_bounds, _pow2_sum_sign, _profile_step,
    _uniform_step,
)


def test_markov_cap_values():
    assert markov_cap(1) == 1
    assert markov_cap(2) == 3
    assert markov_cap(3) == 7
    # the LP table is strictly tighter at degree 3
    assert LP_CAP_TABLE[3] == 6 < markov_cap(3)


def test_cap_profiles_monotone_and_positive():
    for profile in (SQUARE_CAPS, LP_CAPS, MARKOV_CAPS):
        prev = 0
        for d in range(1, 40):
            b = profile.bd(d)
            assert b >= 1
            assert b >= prev
            prev = b


def test_cap_provenance():
    assert MARKOV_CAPS.source(3) == "lp-table"
    assert MARKOV_CAPS.source(20) == "markov"
    assert LP_CAPS.source(20) == "square"
    assert cap_profile("square") is SQUARE_CAPS
    with pytest.raises(ValueError):
        cap_profile("tight")


# --- tail closed forms -------------------------------------------------------

@pytest.mark.parametrize("a", [1, 15, 31])
@pytest.mark.parametrize("ratio", ["dyadic", "sqrt2"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_power_tail_matches_direct_summation(m, a, ratio):
    if ratio == "dyadic":
        r = Fraction(1, 2)
        closed = float(power_tail(m, a, r))
        rf = 0.5
    else:
        r = mpmath.power(2, mpmath.mpf(-0.5))
        closed = float(power_tail(m, a, r))
        rf = 2 ** -0.5
    direct, term = 0.0, None
    k = a
    while term is None or term > 1e-18:
        term = (k ** m) * rf ** k
        direct += term
        k += 1
    assert abs(closed - direct) < 1e-10


def test_power_tail_exact_dyadic():
    # sum_{k>=1} k/2^k = 2 exactly
    assert power_tail(1, 1, Fraction(1, 2)) == 2
    assert power_tail(0, 3, Fraction(1, 2)) == Fraction(1, 4)


# --- degree table --------------------------------------------------------------

def test_dp_degree_square_headline():
    grid = dp_degree(30, SQUARE_CAPS)
    assert grid.headline < 5.0782


def test_dp_degree_lp_headline():
    grid = dp_degree(30, LP_CAPS)
    assert grid.cell(900, 30) <= 4.4158
    assert grid.headline <= 4.4158


def test_dp_degree_markov_headline():
    grid = dp_degree(30, MARKOV_CAPS)
    assert grid.headline <= 4.3935


def test_dp_degree_grid_invariants():
    grid = dp_degree(12, LP_CAPS)
    for d in range(1, 13):
        bd = grid.bd[d]
        for b in range(bd + 1):
            v = grid.cell(b, d)
            assert v <= d / 2 + 1e-12
            if b + 1 <= bd:
                assert v <= grid.cell(b + 1, d) + 1e-12
        assert grid.cell(bd + 1, d) == 0.0
    assert grid.cell(0, 5) == 0.0


def test_headline_monotone_under_cap_tightening():
    h_sq = dp_degree(30, SQUARE_CAPS).headline
    h_lp = dp_degree(30, LP_CAPS).headline
    h_mk = dp_degree(30, MARKOV_CAPS).headline
    assert h_sq >= h_lp >= h_mk


def test_tail_first_form_below_second_form():
    # k (B_k - B_{k-1}) <= 2k^2 - k for the square profile, so the implemented
    # tail never beats the cruder cubic form
    grid = dp_degree(20, SQUARE_CAPS)
    d = 20
    crude_first = (d + 1) ** 3 / 2 ** (d + 1)
    crude_series = float(
        2 * power_tail(2, d + 2, Fraction(1, 2)) - power_tail(1, d + 2, Fraction(1, 2))
    )
    assert grid.tail_first <= crude_first + 1e-12
    assert grid.tail_series + grid.tail_remainder <= crude_series + 1e-12


def test_grid_text_format():
    text = dp_degree(4, LP_CAPS).to_text(b_step=2)
    lines = text.splitlines()
    assert lines[0].startswith("b\\d\t1\t2\t3\t4")
    assert any(ln.startswith("headline\t") for ln in lines)


# --- monotone degree ------------------------------------------------------------

def test_monotone_degree_base_and_values():
    table = dp_monotone_degree(30)
    assert table.values[1] == Fraction(1, 2)
    assert table.values[2] == Fraction(1, 2)
    assert table.values[30] <= Fraction(13243, 10000)
    assert table.headline <= Fraction(1325, 1000)
    # exact dyadic rationals, non-decreasing
    for d in range(1, 31):
        v = table.values[d]
        assert v.denominator & (v.denominator - 1) == 0
        if d > 1:
            assert v >= table.values[d - 1]


@lru_cache(maxsize=None)
def _monotone_degree_by_fractions():
    """The recursion in Fractions, one step at a time, to the largest d_max;
    a smaller d_max runs the same steps and stops sooner."""
    vals = [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    for d in range(3, MONOTONE_DEGREE_MAX_DMAX + 1):
        prev, best = vals[d - 1], Fraction(0)
        for k in range(1, d + 1):
            wk, wd = Fraction(1, 1 << k), Fraction(1, 1 << d)
            best = max(best, min(k * wk + (1 - wk) * prev, k * wd + prev))
        vals.append(best)
    return tuple(vals)


@pytest.mark.parametrize("d_max", [2, 3, 30, 120, MONOTONE_DEGREE_MAX_DMAX])
def test_monotone_degree_on_one_scale_equals_the_fraction_recursion(d_max):
    table = dp_monotone_degree(d_max)
    vals = _monotone_degree_by_fractions()[:d_max + 1]
    assert table.values == vals
    # the tail sum_{d > d_max} d / 2^d is (d_max + 2) / 2^d_max
    assert table.headline == vals[d_max] + Fraction(d_max + 2, 1 << d_max)


# --- mixed measures --------------------------------------------------------------

def test_ds_influence_min_beta_one_is_finite():
    # min_k (k + sum_{i>k} i^3 2^-i) / 2, attained at k=9: (9 + 2.7402...)/2
    res = ds_influence_min(Fraction(1, 1))
    assert res.k == 9
    assert res.value == pytest.approx(5.8701171875, abs=1e-9)


def test_ds_influence_min_monotone_in_beta():
    values = [
        ds_influence_min(Fraction(num, 4)).value for num in (1, 2, 3, 4)
    ]
    assert values == sorted(values, reverse=True)


def _plain_influence_scan(beta, k_max=200):
    """[(k, G(k))] for k = 1..k_max, where 2^(beta-2) G(k) is the objective of
    ``ds_influence_min`` evaluated as it does, from ``power_tail``'s closed
    form at the lower ends of the powers of two, with its base sums put over
    one denominator once."""
    base = _base_sums(_pow2(-beta))
    den = math.lcm(*(t.denominator for t in base))
    n0, n1, n2, n3 = (t.numerator * (den // t.denominator) for t in base)
    scan = []
    for k in range(1, k_max + 1):
        a = k + 1
        cubic = Fraction(((a * n0 + 3 * n1) * a + 3 * n2) * a + n3, den)
        scan.append((k, k + _pow2(-beta * a) * cubic))
    return scan


def test_ds_influence_min_settled_scan():
    # the minimiser at beta = 1/2 lies inside the plain scan, strictly below
    # its left neighbour and not above anything else
    beta = Fraction(1, 2)
    res = ds_influence_min(beta)
    scan = dict(_plain_influence_scan(beta))
    assert scan[res.k - 1] > scan[res.k]
    assert all(scan[res.k] <= v for v in scan.values())
    assert res.value == float(_pow2(beta - 2) * scan[res.k])


def test_ds_influence_min_matches_the_plain_scan():
    # every beta = p/q, q <= 40: where the plain scan's least argmin lies
    # below 200, the same k and value; where it is 200, F still falls there
    moved = 0
    for beta in sorted({Fraction(p, q) for q in range(1, 41) for p in range(1, q + 1)}):
        k, g = min(_plain_influence_scan(beta), key=lambda kv: kv[1])
        res = ds_influence_min(beta)
        if k < 200:
            assert (res.k, res.value) == (k, float(_pow2(beta - 2) * g)), beta
        else:
            assert res.k >= 200, beta
            moved += 1
    assert moved == 55


@pytest.mark.parametrize(
    "beta, k",
    [("7/64", 211), ("1/9", 207), ("3/4", 15), ("15/32", 31), ("1/1000003", 78_689_224)],
)
def test_ds_influence_min_pinned_argmins(beta, k):
    # 16^3 = 2^12 at 3/4 and 32^3 = 2^15 at 15/32: F(k) = F(k + 1), and the
    # least minimiser is reported
    assert ds_influence_min(Fraction(beta)).k == k


def _cube_within_power(x, beta) -> bool:
    """x^3 <= 2^(beta x): exactly when beta x is an integer, else at 60 digits."""
    e = beta * x
    if e.denominator == 1:
        return x ** 3 <= 2 ** e.numerator
    with mpmath.workdps(60):
        return x ** 3 <= mpmath.power(2, mpmath.mpf(e.numerator) / e.denominator)


@given(st.integers(1, 10 ** 6).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))))
@settings(max_examples=60, deadline=None)
def test_ds_influence_min_meets_its_optimality_condition(pq):
    beta = Fraction(*pq)
    k = ds_influence_min(beta).k
    assert _cube_within_power(k + 1, beta) and not _cube_within_power(k, beta)


def test_dp_mixed_ds_beta_one_degenerates_to_degree():
    for caps in (SQUARE_CAPS, LP_CAPS, MARKOV_CAPS):
        for d_max in (2, 30, 64):
            gd = dp_degree(d_max, caps)
            for step in ("profile", "uniform"):
                # field-by-field (NamedTuple) equality: every BoundGrid field, rows included
                assert dp_mixed_ds(1, d_max, caps, step) == gd, (caps.mode, d_max, step)


def _flat_degree_grid(d_max, caps):
    """The degree table from float weights d * 2^-d and caps d / 2, as
    (rows, corner, tail_first, tail_series, tail_remainder)."""
    bd = [0] + [caps.bd(d) for d in range(1, d_max + 1)]
    rows = [[0.0] * (bd[d] + 1) for d in range(d_max + 1)]
    for b in range(1, max(bd) + 1):
        prefix = 0.0
        for d in range(1, d_max + 1):
            if b - 1 <= bd[d]:
                prefix = max(prefix, rows[d][b - 1])
            if b <= bd[d]:
                rows[d][b] = min(d / 2.0, d * 2.0 ** -d + prefix)
    first = caps.bd(d_max + 1) * (d_max + 1) * 2.0 ** -(d_max + 1)
    series = 0.0
    for k in range(d_max + 2, 401):
        series += (caps.bd(k) - caps.bd(k - 1)) * k * 2.0 ** -k
    half = Fraction(1, 2)
    remainder = float(2 * power_tail(2, 401, half) - power_tail(1, 401, half))
    return rows, rows[d_max][bd[d_max]], first, series, remainder


def test_dp_degree_is_the_flat_dyadic_crank():
    for caps in (SQUARE_CAPS, LP_CAPS, MARKOV_CAPS):
        for d_max in (2, 14, 15, 30):
            g = dp_degree(d_max, caps)
            rows, corner, first, series, remainder = _flat_degree_grid(d_max, caps)
            assert g.rows == tuple(map(tuple, rows))
            assert (g.corner, g.tail_first, g.tail_series, g.tail_remainder) == (
                corner, first, series, remainder,
            )
            assert g.headline == corner + first + series + remainder


@pytest.mark.parametrize("d", [1, 2, 3, 4, 15, 64, 400])
def test_beta_one_steps_are_the_flat_dyadic_round(d):
    # rho = 2^(beta-1) = 1, so the staircase sums to exactly d
    assert _profile_step(d, Fraction(1)) == _uniform_step(d, Fraction(1)) == d * 2.0 ** -d


def _profile_step_by_powers(d, beta):
    """The staircase round with rho = n/m and the powers of m written out."""
    rho = _pow2(beta - 1)
    n, m = rho.numerator, rho.denominator
    root = math.isqrt(d)
    prof = d - root * root
    for k in range(root + 1, 1, -1):
        prof = prof * n + (2 * k - 3) * m ** (root + 2 - k)
    w = _pow2(-beta * d)
    return n * n * min(prof, d * m ** root) * w.numerator / (m ** (root + 2) * w.denominator)


@pytest.mark.parametrize(
    "beta", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(7, 64), Fraction(1)]
)
def test_profile_steps_by_shifts_equal_the_steps_by_powers(beta):
    for d in range(1, 401):
        assert _profile_step(d, beta) == _profile_step_by_powers(d, beta), d


@pytest.mark.parametrize(
    "beta", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(7, 64), Fraction(1)]
)
def test_uniform_steps_by_shifts_equal_the_rounded_fractions(beta):
    for d in range(1, 401):
        assert _uniform_step(d, beta) == float(d * _pow2(-(beta * d + 2 * (1 - beta)))), d


def test_a_cap_profile_that_falls_is_refused(monkeypatch):
    monkeypatch.setitem(bfc.bounds._CAP_RULES, "square", lambda d: max(1, 50 - d))
    with pytest.raises(AssertionError, match="caps fall with the degree"):
        dp_mixed_ds(Fraction(1, 2), 10, SQUARE_CAPS)


def test_pow2_is_exact_for_integers_and_fifty_digits_otherwise():
    assert _pow2(Fraction(-3)) == Fraction(1, 8) and _pow2(5) == 32 and _pow2(0) == 1
    assert isinstance(_pow2(-64), Fraction)
    for p in (-POW2_BITS, -3, 0, 7):
        assert _pow2_bounds(p, 1) == _pow2_bounds(2 * p, 2) == (1 << POW2_BITS + p,) * 2
    v = _pow2(Fraction(-1, 3))
    with mpmath.workdps(60):
        ref = mpmath.power(2, -mpmath.mpf(1) / 3)
        assert 0 <= ref - v < mpmath.mpf(10) ** -57


@given(st.integers(1, 10 ** 6), st.integers(-4 * 10 ** 6, 10 ** 6 - 1))
@settings(max_examples=200, deadline=None)
def test_pow2_bounds_enclose_the_sixty_digit_value(q, t):
    p = t * q // 10 ** 6  # exponent p/q in [-4, 1)
    lo, hi = _pow2_bounds(p, q)
    assert 0 <= hi - lo <= (0 if p % q == 0 else 2)
    with mpmath.workdps(60):
        ref = mpmath.power(2, mpmath.mpf(p) / q) * mpmath.power(2, POW2_BITS)
        slack = ref * mpmath.mpf(10) ** -59  # the reference's own rounding
        assert lo - slack <= ref <= hi + slack
    if q <= 100:  # small enough to check the q-th powers in integers
        assert lo ** q <= 2 ** (p + q * POW2_BITS) <= hi ** q


@pytest.mark.parametrize("w", [20, POW2_BITS + 12])
def test_root_chains_enclose_the_roots_of_two(w):
    # the i-th roots, raised back to the 2^i-th power, bracket 2 exactly
    down, up = bfc.bounds._root_chain(w, 0), bfc.bounds._root_chain(w, 1)
    for i in range(8):
        one = 1 << (w << i)
        assert down[i] ** (1 << i) <= 2 * one <= up[i] ** (1 << i)
        assert up[i] - down[i] <= 2


def test_pow2_sum_sign_refines_inside_the_enclosure():
    # x runs over a grid 16 times finer than the 192-bit enclosure of
    # sqrt(2), where only a finer one decides the sign of sqrt(2) - x; x^2
    # against 2 is the exact verdict
    lo, hi = _pow2_bounds(1, 2)
    for num in range(lo << 4, (hi << 4) + 1):
        x = Fraction(num, 1 << POW2_BITS + 4)
        sign = (x * x < 2) - (x * x > 2)
        assert _pow2_sum_sign([(1, Fraction(1, 2)), (-x, 0)]) == sign
        assert _pow2_sum_sign([(-1, Fraction(1, 2)), (x, 0)]) == -sign


def test_pow2_sum_sign_decides_an_exact_tie():
    # 2^(-3/2) - 2 * 2^(-5/2) is zero, its 2^(1/2) coefficients 1/4 - 1/4
    # cancelling; a term far below either enclosure tips the sign either way
    terms = [(-2, Fraction(-5, 2)), (1, Fraction(-3, 2))]
    assert _pow2_sum_sign(terms) == 0
    assert _pow2_sum_sign(terms + [(Fraction(1, 10 ** 30), -200)]) == 1
    assert _pow2_sum_sign(terms + [(-1, Fraction(-901, 3))]) == -1


def test_cap_rule_is_the_least_known_cap_from_the_first_source():
    for d in range(1, 80):
        lp = LP_CAP_TABLE.get(d)
        assert SQUARE_CAPS.bd(d) == d * d and SQUARE_CAPS.source(d) == "square"
        assert LP_CAPS.bd(d) == (d * d if lp is None else min(lp, d * d))
        assert LP_CAPS.source(d) == ("square" if lp is None else "lp-table")
        m = markov_cap(d)
        assert MARKOV_CAPS.bd(d) == (m if lp is None else min(lp, m))
        assert MARKOV_CAPS.source(d) == ("lp-table" if lp is not None and lp <= m else "markov")
    for caps in (SQUARE_CAPS, LP_CAPS, MARKOV_CAPS):
        with pytest.raises(ValueError):
            caps.bd(0)


def test_dp_mixed_ds_below_influence_minimum():
    grid = dp_mixed_ds(Fraction(1, 2), 30, MARKOV_CAPS)
    assert grid.headline <= ds_influence_min(Fraction(1, 2)).value


def test_dp_mixed_ds_profile_step_beats_uniform():
    prof = dp_mixed_ds(Fraction(1, 2), 30, MARKOV_CAPS, step="profile")
    unif = dp_mixed_ds(Fraction(1, 2), 30, MARKOV_CAPS, step="uniform")
    assert prof.headline <= unif.headline


def test_dp_mixed_validation():
    # one guard on beta serves the table and the influence minimum: beta in
    # (0, 1] with the upper end of 2^-beta below 1, true at 1e-57, not 1e-60
    for beta in (0, -1, Fraction(3, 2), Fraction(1, 10 ** 60)):
        with pytest.raises(ValueError, match="mixing weight"):
            dp_mixed_ds(beta, 20, MARKOV_CAPS)
        with pytest.raises(ValueError, match="mixing weight"):
            ds_influence_min(beta)
    tiny = Fraction(1, 10 ** 57)
    assert dp_mixed_ds(tiny, 2, MARKOV_CAPS).headline > 0
    assert ds_influence_min(tiny).value > 0
    with pytest.raises(ValueError):
        dp_mixed_ds(Fraction(1, 2), 20, MARKOV_CAPS, step="other")


# --- harmonic and sensitivity forms ----------------------------------------------

def test_cs_harmonic_values():
    assert cs_harmonic_bound(1) == Fraction(1, 2)
    assert cs_harmonic_bound(4) == Fraction(25, 24)


def test_cs_harmonic_vs_log_form_sweep():
    gamma = 0.5772156649
    h = Fraction(0)
    for d in range(1, 10001):
        h += Fraction(1, d)
        half_h = float(h) / 2
        assert half_h <= 0.5 * math.log(d) + gamma / 2 + 1 / (2 * d) + 1e-9


def test_cs_sens_bound():
    assert cs_sens_bound(1) == pytest.approx(0.5772156649 / 2)
    with pytest.raises(ValueError):
        cs_sens_bound(0)


# --- monotone decision-tree table ----------------------------------------------------

def test_monotone_dt_values():
    t = monotone_dt_table(20)
    assert t.values[1:6] == (1, 2, 4, 6, 10)
    assert t.values[10] == 2 ** 8 + 2
    for d in range(4, 21):
        assert t.values[d] == 2 ** (d - 2) + 2
    assert float(t.ratio) <= 0.2500020


def test_monotone_dt_cap_prints_below_the_int_digit_limit():
    # the largest value, 2^(d-2) + 2, must still convert to a decimal string
    assert len(str(2 ** (MONOTONE_DT_MAX_DMAX - 2) + 2)) <= sys.get_int_max_str_digits()


def test_monotone_dt_ratio_approaches_quarter():
    t = monotone_dt_table(24)
    assert t.ratio == Fraction(2 ** 22 + 2, 2 ** 24)
    assert float(t.ratio) > 0.25


# --- mpmath precision stays local ----------------------------------------------

def test_import_leaves_mpmath_precision_alone():
    src = str(Path(bfc.__file__).resolve().parents[1])
    code = "import mpmath; before = mpmath.mp.dps; import bfc; print(before, mpmath.mp.dps)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["15", "15"]


def test_import_does_not_load_mpmath():
    src = str(Path(bfc.__file__).resolve().parents[1])
    code = "import sys, bfc, bfc.cli; print('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("args", [
    ["table", "degree", "--dmax", "30", "--caps", "markov"],
    ["table", "ds", "--beta", "1", "--dmax", "30"],
])
def test_integral_exponent_tables_do_not_load_mpmath(args):
    src = str(Path(bfc.__file__).resolve().parents[1])
    code = (
        "import sys; from bfc.cli import main; rc = main(sys.argv[1:]); "
        "print('mpmath' in sys.modules, rc, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    err = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stderr
    assert err.split() == ["False", "0"]


def test_reproduce_bounds_quick_prints_the_pinned_summary():
    # the script's summary, the stored cap row included, as printed; only
    # the closing "done in" time varies
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_bounds.py"), "--quick"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert "stored: [1, 3, 6, 10, 15, 21, 29, 38, 47, 58, 71, 84, 99, 114]" in out
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("done in ")
    want = (Path(__file__).parent / "data" / "reproduce_bounds_quick.txt").read_text()
    assert "".join(lines[:-1]) == want


def test_mpmath_evaluations_restore_precision():
    before = mpmath.mp.dps
    dp_mixed_ds(Fraction(1, 2), 8, MARKOV_CAPS)
    ds_influence_min(Fraction(1, 2))
    bfc.potential(bfc.family("MAJ", 3), bfc.mix_cs(Fraction(1, 2)))
    assert mpmath.mp.dps == before
