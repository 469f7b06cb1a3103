"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, in the assertions; nothing is deferred to
later calibration.  Expected wall time for the whole module is a few
minutes, dominated by the exhaustive four-variable sweep and the full LP
cap scan.
"""

import math
import random
from fractions import Fraction

import mpmath

from bfc.bf import BooleanFunction, family, fourier_vector, mobius_vector
from bfc.bounds import (
    LP_CAPS,
    MARKOV_CAPS,
    SQUARE_CAPS,
    dp_degree,
    dp_mixed_ds,
    dp_monotone_degree,
    ds_influence_min,
    monotone_dt_table,
    power_tail,
)
from bfc.corpus import parse_corpus
from bfc.lp import LinearProgram, lp_bs_cap, simplex_feasible
from bfc.measures import approx_degree, block_sensitivity, degree
from bfc.verify import (
    certify_doubling_recurrence,
    check_influence_restriction_average,
    dt_doubling_family,
    run_theorem_suite,
    suite_failures,
)

PUBLISHED_CAP_ROW = [1, 3, 6, 10, 15, 21, 29, 38, 47, 58, 71, 84, 99, 114]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")


def test_criterion_01_lp_cap_table():
    caps = [lp_bs_cap(d).cap for d in range(1, 15)]
    ok = caps == PUBLISHED_CAP_ROW
    _report(1, "lp cap table", ok, f"row={caps}")
    assert caps == PUBLISHED_CAP_ROW


def test_criterion_02_degree_headlines():
    sq = dp_degree(30, SQUARE_CAPS)
    lp = dp_degree(30, LP_CAPS)
    mk = dp_degree(30, MARKOV_CAPS)
    ok = (
        sq.headline < 5.0782
        and lp.cell(900, 30) <= 4.4158 + 5e-4
        and lp.headline <= 4.4158 + 5e-4
        and mk.headline <= 4.3935 + 5e-4
    )
    _report(
        2,
        "degree potential headlines",
        ok,
        f"square={sq.headline:.6f} lp_corner={lp.cell(900, 30):.6f} "
        f"lp={lp.headline:.6f} markov={mk.headline:.6f}",
    )
    assert sq.headline < 5.0782
    assert lp.cell(900, 30) <= 4.4158 + 5e-4
    assert lp.headline <= 4.4158 + 5e-4
    assert mk.headline <= 4.3935 + 5e-4


def test_criterion_03_monotone_degree():
    table = dp_monotone_degree(30)
    ok = (
        table.values[1] == Fraction(1, 2)
        and table.values[2] == Fraction(1, 2)
        and table.values[30] <= Fraction(13243, 10000)
        and table.headline <= Fraction(1325, 1000)
    )
    _report(
        3,
        "monotone degree recursion",
        ok,
        f"value30={float(table.values[30]):.7f} headline={float(table.headline):.7f}",
    )
    assert table.values[1] == Fraction(1, 2) and table.values[2] == Fraction(1, 2)
    assert table.values[30] <= Fraction(13243, 10000)
    assert table.headline <= Fraction(1325, 1000)


PUBLISHED_INFLUENCE_MIN = (32, 11.602)


def _half_mix_influence_scan(k_max: int, i_max: int = 600) -> list:
    """(k, objective) of the influence minimum at beta = 1/2, k = 1..k_max,
    evaluated without ``power_tail``.

    At beta = 1/2 the tail term i^3 / 2^(i/2) is the dyadic rational
    i^3 / 2^(i//2), times 1/sqrt(2) when i is odd.  The tail over i > k is
    therefore E_k + O_k/sqrt(2) with E_k, O_k exact Fractions, and the
    objective (k + tail) / 2^(3/2) is (k + E_k)/(2 sqrt 2) + O_k/4.  Terms
    past i_max = 600 sum to below 1e-80 and are dropped; the one irrational
    step runs at 60 digits.
    """
    even = odd = Fraction(0)
    tails = {}
    for i in range(i_max, 0, -1):
        tails[i] = (even, odd)  # sums over i' > i
        term = Fraction(i ** 3, 2 ** (i // 2))
        if i % 2:
            odd += term
        else:
            even += term
    scan = []
    with mpmath.workdps(60):
        root2 = mpmath.sqrt(2)
        for k in range(1, k_max + 1):
            e, o = tails[k]
            e_mp = mpmath.mpf(e.numerator) / e.denominator
            o_mp = mpmath.mpf(o.numerator) / o.denominator
            scan.append((k, (k + e_mp) / (2 * root2) + o_mp / 4))
    return scan


def test_criterion_04_mixed_measures():
    """Both routes to the mixed degree/sensitivity constant at beta = 1/2.

    The bound table's headline must stay at or below 8.28.  The crude
    influence minimum must agree with an independent evaluation of its
    expression, min_k [k + sum_{i>k} i^3 / 2^(i/2)] / 2^(3/2): the same
    argmin, and the value within 1e-9.  That argmin must lie inside the scan,
    and the minimum must not exceed the published constant 11.602, which the
    expression then certifies as an upper bound.  The published argmin
    k* = 32 is not a point of the expression (see the README).
    """
    k_max = 200
    mn = ds_influence_min(Fraction(1, 2))
    k_star, v_star = min(_half_mix_influence_scan(k_max), key=lambda kv: kv[1])
    grid = dp_mixed_ds(Fraction(1, 2), 48, MARKOV_CAPS)
    dp_ok = grid.headline <= 8.28
    excess = grid.headline - 8.277
    pub_k, pub_value = PUBLISHED_INFLUENCE_MIN
    argmin_ok = mn.k == k_star
    value_ok = abs(mn.value - v_star) <= 1e-9
    interior_ok = mn.k < k_max
    published_ok = mn.value <= pub_value
    mn_ok = argmin_ok and value_ok and interior_ok and published_ok
    _report(
        4,
        "mixed measures",
        mn_ok and dp_ok,
        f"influence_min=(k={mn.k}, {mn.value:.12f}) "
        f"independent=(k={k_star}, {float(v_star):.12f}) "
        f"published=(k={pub_k}, {pub_value}) margin={pub_value - mn.value:.6f} "
        f"dp_headline={grid.headline:.6f}"
        + (f" exceeds 8.277 by {excess:.6f}" if excess > 0 else " (no excess over 8.277)"),
    )
    assert dp_ok, f"mixed table headline {grid.headline:.6f} > 8.28"
    assert argmin_ok, (
        f"ds_influence_min(1/2) minimises at k={mn.k}; the independent "
        f"evaluation minimises at k={k_star}"
    )
    assert value_ok, (
        f"ds_influence_min(1/2) = {mn.value!r}; the independent evaluation "
        f"gives {mpmath.nstr(v_star, 20)}, off by more than 1e-9"
    )
    assert interior_ok, f"argmin k={mn.k} sits at the end of the scan 1..{k_max}"
    assert published_ok, (
        f"influence minimum {mn.value:.6f} exceeds the published constant "
        f"{pub_value}"
    )


def test_criterion_05_monotone_dt():
    table = monotone_dt_table(20)
    seq_ok = table.values[1:6] == (1, 2, 4, 6, 10)
    closed_ok = all(table.values[d] == 2 ** (d - 2) + 2 for d in range(4, 21))
    measured = {}
    for level in (1, 2, 3, 4, 5, 6):
        f = dt_doubling_family(level)
        measured[level] = f.num_relevant()
    table_ok = all(
        measured[d] == 2 * measured[d - 2] + 2 for d in (3, 4, 5, 6)
    )
    odd = certify_doubling_recurrence(9)
    even = certify_doubling_recurrence(8)
    cert_ok = odd == [(1, 1), (3, 4), (5, 10), (7, 22), (9, 46)] and even == [
        (2, 2), (4, 6), (6, 14), (8, 30),
    ]
    ok = seq_ok and closed_ok and table_ok and cert_ok
    _report(
        5,
        "monotone decision-tree table",
        ok,
        f"seq={table.values[1:6]} doubling_measured={measured} "
        f"certified_odd={odd} certified_even={even}",
    )
    assert seq_ok and closed_ok and table_ok and cert_ok


def test_criterion_06_exhaustive_four_variable_corpus():
    checks = run_theorem_suite(parse_corpus("all:4"))
    failures = suite_failures(checks)
    by_id = {c.check_id: c for c in checks}
    required = (
        "chain", "deg_le_s2", "bs_quartic", "relvars_cert",
        "relvars_inf_deg", "relvars_inf_sens", "cert_potential",
        "rrcm", "influence_bound", "monomial_sens", "monomial_potential",
    )
    coverage_ok = all(by_id[cid].checked == 65536 for cid in required)
    ok = failures == 0 and coverage_ok
    _report(
        6,
        "exhaustive corpus all:4",
        ok,
        f"failures={failures} checks={len(checks)}",
    )
    assert failures == 0, [c.row() for c in checks if not c.passed]
    assert coverage_ok


def test_criterion_07_monotone_five_corpus():
    checks = run_theorem_suite(parse_corpus("monotone:5"))
    failures = suite_failures(checks)
    by_id = {c.check_id: c for c in checks}
    ok = (
        failures == 0
        and by_id["mono_s_bs_C"].checked == 7581
        and by_id["mono_triple"].checked == 7581
        and by_id["mono_dt_intersect"].checked + by_id["mono_dt_intersect"].skipped == 7581
    )
    _report(7, "monotone corpus monotone:5", ok, f"failures={failures}")
    assert failures == 0, [c.row() for c in checks if not c.passed]
    assert ok


def test_criterion_08_kushilevitz():
    f = family("KUSHILEVITZ")  # construction itself checks Boolean-valuedness
    d = degree(f)
    bs = block_sensitivity(f).bs
    ratio_ok = math.log(bs) >= 1.63 * math.log(d)
    ok = d == 3 and bs == 6 and ratio_ok
    _report(8, "kushilevitz function", ok, f"deg={d} bs={bs}")
    assert d == 3 and bs == 6
    assert ratio_ok


def test_criterion_09_approximate_degree_three_variables():
    worst = None
    for t in range(1 << 8):
        f = BooleanFunction(3, t)
        ad = approx_degree(f, Fraction(1, 3))
        d = degree(f)
        bs = block_sensitivity(f).bs
        assert ad <= d, f"table {t:#x}: adeg {ad} > deg {d}"
        assert bs <= 5 * ad * ad or bs == 0, f"table {t:#x}: bs {bs} vs 5*{ad}^2"
        assert bs <= 6 * ad * ad or bs == 0, f"table {t:#x}: bs {bs} vs 6*{ad}^2"
        if ad and (worst is None or bs / ad ** 2 > worst[0]):
            worst = (bs / ad ** 2, t)
    _report(9, "approximate degree on all:3", True, f"max bs/adeg^2={worst[0]:.3f}")


def test_criterion_10_property_suites():
    # Mobius round-trip and exact Parseval, exhaustively through arity 4
    for n in range(0, 5):
        for t in range(1 << (1 << n)):
            mob = mobius_vector(n, t)
            for x in range(1 << n):
                acc = 0
                sub = x
                while True:
                    acc += mob[sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & x
                assert acc == (t >> x) & 1
            w = fourier_vector(n, t)
            assert sum(v * v for v in w) == 4 ** n

    # averaging of influence under random restrictions, exact in integers
    rng = random.Random(20240809)
    for _ in range(100):
        n = rng.randint(2, 6)
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        i = rng.randint(1, n)
        H = [j for j in range(1, n + 1) if j != i and rng.random() < 0.5]
        assert check_influence_restriction_average(f, i, H)

    # simplex witnesses re-substitute exactly on systems built around a point
    rng = random.Random(99)
    for _ in range(60):
        nv = rng.randint(1, 4)
        point = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nv)]
        rows = []
        for _ in range(rng.randint(1, 8)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nv)]
            lhs = sum(c * p for c, p in zip(coeffs, point))
            kind = rng.choice(["<=", ">=", "="])
            margin = Fraction(rng.randint(0, 6), 3)
            rhs = lhs + margin if kind == "<=" else lhs - margin if kind == ">=" else lhs
            rows.append((coeffs, kind, rhs))
        prog = LinearProgram.build(nv, rows)
        res = simplex_feasible(prog)
        assert res.feasible and prog.satisfies(res.witness)

    # closed-form tails agree with direct summation at both ratios
    for ratio, rf in ((Fraction(1, 2), 0.5), (mpmath.power(2, -0.5), 2 ** -0.5)):
        for a in (1, 15, 31):
            for m in (1, 2, 3):
                closed = float(power_tail(m, a, ratio))
                direct, k = 0.0, a
                while True:
                    term = (k ** m) * rf ** k
                    direct += term
                    k += 1
                    if term < 1e-18:
                        break
                assert abs(closed - direct) < 1e-10

    _report(10, "property suites", True)
