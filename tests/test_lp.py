import json
import random
import signal
import time
from fractions import Fraction
from itertools import permutations
from math import comb, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfc.lp
import bfc.measures
from bfc.bf import ArityError, BooleanFunction, family
from bfc.lp import (
    LP_CAP_SCAN_MAX_DEGREE,
    LinearProgram,
    _automorphisms,
    _mask_orbits,
    _orbit_feasible,
    _orbit_lp,
    _point_map,
    adeg_lp,
    lp_bs_cap,
    moment_lp,
    simplex_feasible,
)
from bfc.measures import approx_degree, degree


PIVOT_PATH = Path(__file__).parent / "data" / "lp_pivot_path.json"

RELATIONS = ("<=", "=", ">=")


def lp(num_vars, constraints):
    return LinearProgram.build(num_vars, constraints)


def _fraction_rows(constraints):
    """The rows a.x <= r of rational constraints, in Fractions: each scaled
    by the lcm of its denominators, its <= side and then its >= side
    negated."""
    rows = []
    for coeffs, rel, rhs in constraints:
        qs = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
        scale = lcm(*(q.denominator for q in qs))
        *a, r = (q * scale for q in qs)
        if rel in ("<=", "="):
            rows.append((a, r))
        if rel in (">=", "="):
            rows.append(([-c for c in a], -r))
    return rows


def assert_farkas(num_vars, constraints, y):
    """Re-check a Farkas certificate in Fractions against the rows of the
    constraints, derived here and not read from the program."""
    rows = _fraction_rows(constraints)
    assert y is not None and len(y) == len(rows)
    assert all(v >= 0 for v in y)
    total = [Fraction(0)] * num_vars
    bound = Fraction(0)
    for (a, r), v in zip(rows, y):
        total = [t + v * c for t, c in zip(total, a)]
        bound += v * r
    assert all(t == 0 for t in total)
    assert bound < 0


def test_trivial_feasible():
    res = simplex_feasible(lp(1, [([1], ">=", 1), ([1], "<=", 2)]))
    assert res.feasible
    assert 1 <= res.witness[0] <= 2


def test_trivial_infeasible():
    constraints = [([1], ">=", 1), ([1], "<=", 0)]
    res = simplex_feasible(lp(1, constraints))
    assert not res.feasible
    assert res.witness is None
    assert_farkas(1, constraints, res.farkas)


def test_build_scales_by_the_lcm_of_denominators_le_side_first():
    half = Fraction(1, 2)
    assert lp(2, [([half, 2], "=", Fraction(3, 4))]).rows == (((2, 8), 3), ((-2, -8), -3))
    # no gcd reduction: 2x <= 4 stays as written
    assert lp(1, [([2], "<=", 4)]).rows == (((2,), 4),)
    assert lp(1, [([half], ">=", 1)]).rows == (((-1,), -2),)
    with pytest.raises(ValueError, match="unknown relation '<'"):
        lp(1, [([1], "<", 1)])


def test_empty_lp_is_feasible_at_zero():
    res = simplex_feasible(lp(2, []))
    assert res.feasible and res.witness == (0, 0)


def test_equality_system():
    res = simplex_feasible(lp(2, [([1, 1], "=", 3), ([1, -1], "=", 1)]))
    assert res.feasible
    assert res.witness == (Fraction(2), Fraction(1))


def test_moment_lp_hand_example():
    prog = moment_lp(2, 3, 0)
    res = simplex_feasible(prog)
    assert res.feasible
    # the hand point (3/2, -1/2) satisfies it: p(1)=1, p(2)=1, p(3)=0
    assert prog.satisfies((Fraction(3, 2), Fraction(-1, 2)))


def test_moment_lp_small_infeasible():
    assert not simplex_feasible(moment_lp(1, 2, 0)).feasible
    assert not simplex_feasible(moment_lp(1, 2, 1)).feasible
    assert not simplex_feasible(moment_lp(2, 4, 0)).feasible
    assert not simplex_feasible(moment_lp(2, 4, 1)).feasible


def test_moment_lp_validation():
    with pytest.raises(ValueError):
        moment_lp(0, 3, 0)
    with pytest.raises(ValueError):
        moment_lp(2, 1, 0)
    with pytest.raises(ValueError):
        moment_lp(2, 3, 2)


def test_lp_cap_small_degrees():
    assert lp_bs_cap(1).cap == 1
    assert lp_bs_cap(2).cap == 3
    scan = lp_bs_cap(3)
    assert scan.cap == 6
    assert scan.monotone
    # the profile covers the whole scan window
    assert scan.profile[0][0] == 3 and scan.profile[-1][0] == 18


def test_lp_cap_guard():
    with pytest.raises(ValueError):
        lp_bs_cap(0)
    with pytest.raises(ValueError):
        lp_bs_cap(17)


def test_simplex_determinism():
    prog = moment_lp(3, 5, 1)
    a = simplex_feasible(prog)
    b = simplex_feasible(prog)
    assert a == b


@st.composite
def _system_with_known_point(draw):
    nv = draw(st.integers(1, 3))
    point = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(nv)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [Fraction(draw(st.integers(-3, 3))) for _ in range(nv)]
        lhs = sum(c * p for c, p in zip(coeffs, point))
        margin = Fraction(draw(st.integers(0, 5)), 2)
        rel = draw(st.sampled_from(["<=", ">=", "="]))
        if rel == "<=":
            rows.append((coeffs, rel, lhs + margin))
        elif rel == ">=":
            rows.append((coeffs, rel, lhs - margin))
        else:
            rows.append((coeffs, rel, lhs))
    return nv, rows


@given(_system_with_known_point())
@settings(max_examples=120, deadline=None)
def test_systems_with_a_known_point_are_feasible_and_witnessed(system):
    prog = lp(*system)
    res = simplex_feasible(prog)
    assert res.feasible
    assert prog.satisfies(res.witness)


@given(_system_with_known_point())
@settings(max_examples=60, deadline=None)
def test_embedding_a_contradiction_makes_it_infeasible(system):
    nv, base = system
    one = tuple([Fraction(1)] + [Fraction(0)] * (nv - 1))
    base = [*base, (one, ">=", Fraction(10)), (one, "<=", Fraction(9))]
    assert not simplex_feasible(lp(nv, base)).feasible


@st.composite
def _system_infeasible_by_construction(draw):
    """Rows whose sign-compatible combination c.x <= r is then contradicted."""
    nv = draw(st.integers(1, 3))
    rows = []
    combo = [Fraction(0)] * nv
    combo_rhs = Fraction(0)
    for _ in range(draw(st.integers(1, 5))):
        coeffs = [
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            for _ in range(nv)
        ]
        rhs = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        rel = draw(st.sampled_from(RELATIONS))
        lam = Fraction(draw(st.integers(0, 3)))
        if rel == ">=" or (rel == "=" and draw(st.booleans())):
            lam = -lam
        rows.append((coeffs, rel, rhs))
        combo = [t + lam * c for t, c in zip(combo, coeffs)]
        combo_rhs += lam * rhs
    excess = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        rows.append((combo, ">=", combo_rhs + excess))
    else:
        rows.append(([-c for c in combo], "<=", -combo_rhs - excess))
    order = draw(st.permutations(range(len(rows))))
    return nv, [rows[i] for i in order]


@given(_system_infeasible_by_construction())
@settings(max_examples=150, deadline=None)
def test_infeasible_systems_carry_a_farkas_certificate(system):
    res = simplex_feasible(lp(*system))
    assert not res.feasible and res.witness is None
    assert_farkas(*system, res.farkas)


@st.composite
def _with_a_dependent_column(draw, systems):
    """A drawn system with one more column: a rational combination of the
    others, or zero.  It keeps the verdict of the system it extends."""
    nv, constraints = draw(systems)
    lam = [
        Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        for _ in range(nv)
    ]
    rows = [
        ((*coeffs, sum(c * v for c, v in zip(coeffs, lam))), rel, rhs)
        for coeffs, rel, rhs in constraints
    ]
    return nv + 1, rows


@given(_with_a_dependent_column(_system_with_known_point()))
@settings(max_examples=120, deadline=None)
def test_a_dependent_column_keeps_a_system_feasible_and_witnessed(system):
    prog = lp(*system)
    res = simplex_feasible(prog)
    assert res.feasible
    assert prog.satisfies(res.witness)


@given(_with_a_dependent_column(_system_infeasible_by_construction()))
@settings(max_examples=120, deadline=None)
def test_a_dependent_column_keeps_a_system_infeasible_and_certified(system):
    res = simplex_feasible(lp(*system))
    assert not res.feasible and res.witness is None
    assert_farkas(*system, res.farkas)


def test_zero_rows_and_no_rows():
    for rel in RELATIONS:
        constraints = [([0, 0], rel, 1 if rel == ">=" else -1), ([1, 0], "<=", 5)]
        res = simplex_feasible(lp(2, constraints))
        assert not res.feasible
        assert_farkas(2, constraints, res.farkas)
        assert simplex_feasible(lp(2, [([0, 0], rel, 0)])).feasible
    res = simplex_feasible(LinearProgram.build(3, []))
    assert res.feasible and res.witness == (0, 0, 0)
    # no columns: w is empty, so a violated row is its own certificate
    assert simplex_feasible(LinearProgram(0, [((), 0)])).feasible
    res = simplex_feasible(LinearProgram(0, [((), 1), ((), -2)]))
    assert not res.feasible and res.farkas == (0, 1)


def test_a_wide_lp_with_few_rows_is_cheap():
    # three rows over 5000 columns: the basis is at most 3 x 3
    n = 5000
    prog = lp(
        n,
        [
            ([(j % 7) - 3 for j in range(n)], "<=", -1),
            ([(j * j % 5) - 2 for j in range(n)], ">=", 2),
            ([1] * n, "=", 3),
        ],
    )
    start = time.perf_counter()
    res = simplex_feasible(prog)
    assert time.perf_counter() - start < 1.0
    assert res.feasible and prog.satisfies(res.witness)


def test_infeasible_adeg_lp_certificate_has_at_most_num_vars_plus_one_rows():
    # the certificate sits on the leaving row and the basis rows
    f, eps = family("PARITY", 5), Fraction(1, 3)
    prog = adeg_lp(f, 4, eps)
    res = simplex_feasible(prog)
    assert not res.feasible
    assert_farkas(prog.num_vars, _band_constraints(f, 4, eps), res.farkas)
    assert sum(1 for v in res.farkas if v) <= prog.num_vars + 1


def test_a_wrong_farkas_certificate_is_refused(monkeypatch):
    # rows x <= -1 (key 0) and -x <= 5 (key 1); each forgery fails one
    # condition: y.A = 0, the signs, y.b < 0
    prog = lp(1, [([1], "<=", -1), ([1], ">=", -5)])
    for cert in (([0], [1]), ([0, 1], [-1, -1]), ([0, 1], [1, 1])):
        monkeypatch.setattr(bfc.lp._VertexBasis, "run", lambda *args: cert)
        with pytest.raises(AssertionError):
            simplex_feasible(prog)


def test_simplex_switches_to_blands_rule_when_a_basis_repeats(monkeypatch):
    # as in the scan: re-picking the row that has just entered is a pivot
    # that changes nothing, so the basis repeats and the solve falls back to
    # the lowest-keyed leaving row and entering slot
    progs = [moment_lp(d, b, tau) for d in range(2, 6) for b in (d, 3 * d) for tau in (0, 1)]
    rng = random.Random(20261019)
    progs += [adeg_lp(BooleanFunction(3, rng.getrandbits(8)), d, Fraction(1, 3)) for d in (1, 2)]
    want = [simplex_feasible(prog).feasible for prog in progs]
    assert any(want) and not all(want)
    violated_row, pivot = bfc.lp._violated_row, bfc.lp._VertexBasis._pivot
    entered = []
    modes = []  # the bland flag of each pick; phase 0 pivots come before any

    def stubborn(rows, point, det, bland):
        modes.append(bland)
        key = violated_row(rows, point, det, bland)
        if bland or key < 0:
            return key
        if entered:
            return entered.pop()
        entered.append(key)
        return key

    def blands_pivot(self, j, w, key):
        if modes and modes[-1]:
            assert j == min((i for i, v in enumerate(w) if v > 0), key=self.keys.__getitem__)
        pivot(self, j, w, key)

    monkeypatch.setattr(bfc.lp, "_violated_row", stubborn)
    monkeypatch.setattr(bfc.lp._VertexBasis, "_pivot", blands_pivot)
    fell_back = 0
    for prog, feasible in zip(progs, want):
        entered.clear()
        modes.clear()
        res = simplex_feasible(prog)
        assert res.feasible == feasible
        if feasible:
            assert prog.satisfies(res.witness)
        else:
            assert bfc.lp._is_farkas(prog.num_vars, prog.rows, res.farkas)
        fell_back += True in modes
    assert fell_back


# approx_degree's pivots, phase 0 included, over ten seeded 5-input tables
ADEG_PIVOTS = 938


def test_approx_degree_pivot_total_is_pinned(monkeypatch):
    pivot = bfc.lp._VertexBasis._pivot
    calls = []

    def counted(self, *args):
        calls.append(1)
        return pivot(self, *args)

    monkeypatch.setattr(bfc.lp._VertexBasis, "_pivot", counted)
    rng = random.Random(1005)
    values = [approx_degree(BooleanFunction(5, rng.getrandbits(32))) for _ in range(10)]
    assert values == [3, 4, 3, 3, 4, 3, 4, 3, 4, 3]
    assert len(calls) == ADEG_PIVOTS


def test_lp_scan_reproduces_the_pinned_pivot_path():
    # profiles recorded from the earlier gcd-reduced tableau, cap witnesses
    # from the vertex-basis dual simplex; neither may change
    pinned = json.loads(PIVOT_PATH.read_text())
    assert sorted(map(int, pinned)) == list(range(1, 10))
    for d, want in pinned.items():
        scan = lp_bs_cap(int(d))
        assert scan.cap == want["cap"]
        assert [list(p) for p in scan.profile] == want["profile"]
        for tau, witness in want["witness"].items():
            prog = moment_lp(int(d), scan.cap, int(tau))
            res = simplex_feasible(prog)
            got = None if res.witness is None else [str(q) for q in res.witness]
            assert got == witness, (d, tau)
            assert witness is None or prog.satisfies([Fraction(q) for q in witness])


def test_scan_start_basis_is_the_inverse_binomial_matrix():
    # the closed-form start is where the adjugate's phase 0 over the scan
    # rows ends: it admits p(k) <= hi_k for k = 1..d
    for d in range(1, LP_CAP_SCAN_MAX_DEGREE + 1):
        basis = bfc.lp._ScanBasis(d)
        assert basis.keys == [2 * k for k in range(1, d + 1)]
        assert basis.cols == list(range(d))
        rows = [bfc.lp._scan_row(key, d) for key in basis.keys]
        assert basis.det == 1
        adj = [basis._column(j) for j in range(d)]
        for i in range(d):
            for j in range(d):
                assert sum(rows[i][t] * adj[j][t] for t in range(d)) == (i == j)
        oracle = bfc.lp._VertexBasis(d, [(bfc.lp._scan_row(key, d), 0) for key in range(2 * d + 2)])
        assert (basis.keys, basis.det) == (oracle.keys, oracle.det), d
        assert adj == [list(column) for column in zip(*oracle.adj)], d


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8), st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_scan_values_are_binomial_sums(coeffs, extra):
    b = len(coeffs) + extra
    want = [sum(c * comb(t, j) for j, c in enumerate(coeffs, 1)) for t in range(b + 1)]
    assert bfc.lp._scan_values(coeffs, b) == want


def _candidate_list_most_violated(vals, det, b, tau):
    """The scan's row picker as a list of (gap, key) candidates, the largest
    gap and then the lowest key winning: the oracle of ``_most_violated``."""
    cand = [
        (vals[1] - det, 2),
        (det - vals[1], 3),
        (vals[b] - tau * det, 2 * b),
        (tau * det - vals[b], 2 * b + 1),
    ]
    inner = vals[2:b]
    if inner:
        top, low = max(inner), min(inner)
        cand.append((top - det, 2 * (inner.index(top) + 2)))
        cand.append((-low, 2 * (inner.index(low) + 2) + 1))
    gap, key = max(cand, key=lambda t: (t[0], -t[1]))
    return key if gap > 0 else -1


@pytest.mark.parametrize(
    "vals, det, b, tau, want",
    [
        # inner top gap 2 at point 3 equals inner low gap 2 at point 2
        ([0, 2, -2, 4, 1, 0], 2, 5, 0, 5),
        ([0, 2, 4, -2, 1, 2], 2, 5, 1, 4),
        # the first of two equal largest inner values
        ([0, 2, 3, 3, 0], 2, 4, 0, 4),
        # the endpoint, point 1 and an inner point tie at gap 3
        ([0, 5, 5, 1, 3], 2, 4, 0, 2),
        ([0, -1, 1, -3, -1], 2, 4, 1, 3),
        ([0, 2, 5, 1, 5], 2, 4, 1, 4),
        ([0, 2, 1, -3, -3], 2, 4, 0, 7),
        # b = 2: no inner points
        ([0, 3, 3], 2, 2, 0, 4),
        ([0, 3, 3], 2, 2, 1, 2),
        ([0, 2, -1], 2, 2, 1, 5),
        # every gap <= 0
        ([0, 3, 0, 3, 1, 0], 3, 5, 0, -1),
        ([0, 3, 3], 3, 2, 1, -1),
    ],
)
def test_one_pass_pick_on_forced_ties(vals, det, b, tau, want):
    assert _candidate_list_most_violated(vals, det, b, tau) == want
    assert bfc.lp._most_violated(vals, det, b, tau) == want


@st.composite
def _scan_points(draw):
    b = draw(st.integers(2, 9))
    det = draw(st.integers(1, 3))
    vals = draw(st.lists(st.integers(-2 * det, 3 * det), min_size=b + 1, max_size=b + 1))
    return vals, det, b, draw(st.sampled_from((0, 1)))


@given(_scan_points())
@settings(max_examples=400, deadline=None)
def test_one_pass_pick_matches_the_candidate_list(point):
    assert bfc.lp._most_violated(*point) == _candidate_list_most_violated(*point)


def _scan_profiles(dmax):
    return {d: lp_bs_cap(d).profile for d in range(1, dmax + 1)}


def test_scan_verdicts_match_the_power_basis_simplex():
    for d, profile in _scan_profiles(6).items():
        for b, *feas in profile:
            for tau in (0, 1):
                assert feas[tau] == simplex_feasible(moment_lp(d, b, tau)).feasible, (d, b, tau)


def test_scan_with_blands_rule_throughout_gives_the_same_profiles(monkeypatch):
    want = _scan_profiles(6)
    monkeypatch.setattr(bfc.lp, "_most_violated", bfc.lp._first_violated)
    assert _scan_profiles(6) == want


def test_scan_switches_to_blands_rule_when_a_basis_repeats(monkeypatch):
    # re-picking the row that has just entered is a pivot that changes
    # nothing, so the basis repeats at once and the solve must fall back
    want = _scan_profiles(6)
    most_violated, first_violated = bfc.lp._most_violated, bfc.lp._first_violated
    solve = bfc.lp._ScanBasis.solve
    entered = []
    fallbacks = []

    def fresh_solve(self, b, tau):
        entered.clear()
        return solve(self, b, tau)

    def stubborn(vals, det, b, tau):
        key = most_violated(vals, det, b, tau)
        if key >= 0 and entered:
            return entered.pop()
        entered.append(key)
        return key

    def spy(*args):
        fallbacks.append(args[2])
        return first_violated(*args)

    monkeypatch.setattr(bfc.lp._ScanBasis, "solve", fresh_solve)
    monkeypatch.setattr(bfc.lp, "_most_violated", stubborn)
    monkeypatch.setattr(bfc.lp, "_first_violated", spy)
    assert _scan_profiles(6) == want
    assert fallbacks


def test_a_basis_repeated_under_blands_rule_fails(monkeypatch):
    # entering weights with the wrong sign for the lower rows off the nodes
    # make pivots that undo each other; with Bland's rule too the basis
    # repeats, and the solve must fail there instead of looping
    weights = bfc.lp._ScanBasis._weights

    def flipped(self, key):
        w = weights(self, key)
        return [-v for v in w] if key & 1 and key >> 1 not in self.nodes else w

    def looping(*_):
        raise TimeoutError("the solve loops")

    monkeypatch.setattr(bfc.lp._ScanBasis, "_weights", flipped)
    old = signal.signal(signal.SIGALRM, looping)
    signal.alarm(10)
    try:
        for d in (2, 3, 4):
            with pytest.raises(AssertionError, match="basis repeated under Bland's rule"):
                lp_bs_cap(d)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_scan_refuses_a_forged_farkas_sign(monkeypatch):
    solve = bfc.lp._ScanBasis.solve

    def forged(self, b, tau):
        cert = solve(self, b, tau)
        if cert is None:
            return None
        keys, y = cert
        j = next(i for i, v in enumerate(y) if i and v)
        return keys, [-v if i == j else v for i, v in enumerate(y)]

    monkeypatch.setattr(bfc.lp._ScanBasis, "solve", forged)
    with pytest.raises(AssertionError):
        lp_bs_cap(3)


# the scan's LP solves per degree d = 1..11, 503 in all (the scan that solves
# every (b, tau) up to 2d^2 makes 1912); the pivot rule is deterministic
SCAN_SOLVES = (2, 5, 10, 15, 24, 33, 48, 63, 80, 99, 124)
# every pivot of those scans; the scan bases start in closed form, past the
# 2d phase-0 pivots of each degree that the adjugate start made
SCAN_PIVOTS = 1532 - 2 * sum(range(1, 12))


def _plain_scan(d):
    """The profile of two chains that solve every (b, tau) up to 2d^2."""
    chains = (bfc.lp._ScanBasis(d), bfc.lp._ScanBasis(d))
    return tuple(
        (b, *(chain.solve(b, tau) is None for tau, chain in enumerate(chains)))
        for b in range(max(2, d), 2 * d * d + 1)
    )


def _check_each_pick(monkeypatch, dmax, picker):
    """The plain scans of d = 1..dmax, with ``picker`` choosing every row to
    leave and each pick asserting that the values it reads are those of the
    basis's vertex; returns (picks, full value passes)."""
    pick, scan_values = bfc.lp._ScanBasis._pick, bfc.lp._scan_values
    at, picks, passes = [], [], []

    def spy_pick(self, point, bland):
        at.append(self)
        try:
            return pick(self, point, bland)
        finally:
            at.pop()

    def checked(choose):
        def spy(vals, det, b, tau):
            basis = at[-1]
            assert vals == scan_values(basis.point, b), ("stale values", b, basis.keys)
            picks.append(1)
            return choose(vals, det, b, tau)
        return spy

    def counted_values(coeffs, b):
        passes.append(1)
        return scan_values(coeffs, b)

    monkeypatch.setattr(bfc.lp._ScanBasis, "_pick", spy_pick)
    monkeypatch.setattr(bfc.lp, "_scan_values", counted_values)
    monkeypatch.setattr(bfc.lp, "_first_violated", checked(bfc.lp._first_violated))
    monkeypatch.setattr(bfc.lp, "_most_violated", checked(picker))
    for d in range(1, dmax + 1):
        _plain_scan(d)
    return len(picks), len(passes)


@pytest.mark.parametrize("rule", ["most-violated", "bland"])
def test_each_pick_reads_the_values_at_its_vertex(monkeypatch, rule):
    # a basis keeps det p(t) with its vertex: a pick after a pivot or a
    # moved right-hand side reads them afresh, and one at an unmoved vertex
    # only adds the points that b gained
    picker = bfc.lp._first_violated if rule == "bland" else bfc.lp._most_violated
    picks, passes = _check_each_pick(monkeypatch, 12, picker)
    assert 0 < passes < picks


def test_a_pivot_that_keeps_stale_values_fails(monkeypatch):
    pivot = bfc.lp._ScanBasis._pivot

    def stale_pivot(self, *args):
        vals = self.vals
        pivot(self, *args)
        self.vals = vals

    monkeypatch.setattr(bfc.lp._ScanBasis, "_pivot", stale_pivot)
    with pytest.raises(AssertionError, match="stale values"):
        _check_each_pick(monkeypatch, 12, bfc.lp._most_violated)


def _scan_rows(d, b, tau, keys):
    return [(bfc.lp._scan_row(k, d), bfc.lp._scan_rhs(k, b, tau)) for k in keys]


# the solves over d = 1..11 that return a Farkas certificate, the closing
# ones among them; only these get a full exact check
SCAN_REFUTED = 27


def test_closed_scan_equals_the_plain_scan(monkeypatch):
    plain = {d: _plain_scan(d) for d in range(1, 12)}
    solve, is_farkas = bfc.lp._ScanBasis.solve, bfc.lp._is_farkas
    solved, checked = {}, []
    total = 0

    def spy_solve(self, b, tau):
        solved[b, tau] = cert = solve(self, b, tau)
        return cert

    def spy_farkas(num_vars, rows, y):
        checked.append((rows, y))
        return is_farkas(num_vars, rows, y)

    monkeypatch.setattr(bfc.lp._ScanBasis, "solve", spy_solve)
    monkeypatch.setattr(bfc.lp, "_is_farkas", spy_farkas)
    for d in range(1, 12):
        solved.clear()
        checked.clear()
        assert lp_bs_cap(d).profile == plain[d], d
        # one exact check per solve that returns a certificate, on its rows
        refuted = [(b, tau) for (b, tau), cert in solved.items() if cert is not None]
        assert len(checked) == len(refuted), d
        for (b, tau), (rows, y) in zip(refuted, checked):
            keys, want_y = solved[b, tau]
            assert (rows, y) == (_scan_rows(d, b, tau, keys), want_y), (d, b, tau)
        total += len(checked)
        # after the last solve only its certificate can have closed the scan,
        # and it must refute every later LP of the plain scan on that LP's rows
        last = solved[max(solved)]
        for b, *feas in plain[d]:
            for tau in (0, 1):
                if not feas[tau]:
                    keys, y = solved.get((b, tau), last)
                    assert is_farkas(d, _scan_rows(d, b, tau, keys), y), (d, b, tau)
    assert total == SCAN_REFUTED


@pytest.mark.parametrize("step", [1, -1], ids=["raised", "lowered"])
def test_a_bound_past_closing_may_fall_but_not_rise(monkeypatch, step):
    # the closing certificate covers a later LP only while no row it uses
    # has a larger right-hand side there: move the bound of one interior row
    # with a nonzero multiplier at the b after closing
    solve, bounds = bfc.lp._ScanBasis.solve, bfc.lp._scan_bounds
    solved = {}
    moved = {}

    def spy_solve(self, b, tau):
        solved[b, tau] = cert = solve(self, b, tau)
        return cert

    def moved_bounds(k, b, tau):
        lo, hi = bounds(k, b, tau)
        lower = moved.get((k, b))
        if lower is None:
            return lo, hi
        # the row's right-hand side is hi, or -lo for the lower row
        return (lo - step, hi) if lower else (lo, hi + step)

    monkeypatch.setattr(bfc.lp._ScanBasis, "solve", spy_solve)
    monkeypatch.setattr(bfc.lp, "_scan_bounds", moved_bounds)
    for d in range(3, 12):
        solved.clear()
        moved.clear()
        want = lp_bs_cap(d)
        b, tau = max(solved)
        keys, y = solved[b, tau]
        key = next(key for key, v in zip(keys, y) if v and 2 <= key >> 1 < b)
        moved[key >> 1, b + 1] = key & 1
        if step > 0:
            with pytest.raises(AssertionError, match="cap scan Farkas certificate"):
                lp_bs_cap(d)
        else:
            assert lp_bs_cap(d) == want, d


def test_bounds_below_the_endpoint_are_those_of_the_next_point():
    # so past b0 + 1 a closing certificate, whose rows are at points <= b0,
    # has the bounds it was confirmed with at b0 + 1
    for b in range(2, 2 * LP_CAP_SCAN_MAX_DEGREE**2 + 1):
        for k in range(1, b):
            want = bfc.lp._scan_bounds(k, k + 1, 0)
            assert bfc.lp._scan_bounds(k, b, 0) == bfc.lp._scan_bounds(k, b, 1) == want, (k, b)


def test_the_closing_certificate_is_confirmed_only_where_a_bound_can_move(monkeypatch):
    # after the closing solve at (b0, tau0) the scan reads right-hand sides
    # at (b0, 1) when tau0 = 0 and at b0 + 1 for both tau, and nowhere else
    solve, rhs = bfc.lp._ScanBasis.solve, bfc.lp._scan_rhs
    events = []

    def spy_solve(self, b, tau):
        events.append(("solve", b, tau))
        return solve(self, b, tau)

    def spy_rhs(key, b, tau):
        events.append(("rhs", b, tau))
        return rhs(key, b, tau)

    monkeypatch.setattr(bfc.lp._ScanBasis, "solve", spy_solve)
    monkeypatch.setattr(bfc.lp, "_scan_rhs", spy_rhs)
    for d in range(1, 12):
        events.clear()
        lp_bs_cap(d)
        last = max(i for i, event in enumerate(events) if event[0] == "solve")
        _, b0, tau0 = events[last]
        # the closing solve's own exact check reads (b0, tau0)
        confirmed = {event[1:] for event in events[last + 1:]} - {(b0, tau0)}
        want = {(b0, 1)} if tau0 == 0 else set()
        want |= {(b0 + 1, 0), (b0 + 1, 1)} if b0 < 2 * d * d else set()
        assert confirmed == want, d


def test_scan_solve_counts_are_pinned(monkeypatch):
    run = bfc.lp._VertexBasis.run
    calls = []

    def counted(self, *args):
        calls.append(1)
        return run(self, *args)

    monkeypatch.setattr(bfc.lp._VertexBasis, "run", counted)
    counts = []
    for d in range(1, 12):
        calls.clear()
        lp_bs_cap(d)
        counts.append(len(calls))
    assert tuple(counts) == SCAN_SOLVES


def test_scan_pivot_total_is_pinned(monkeypatch):
    pivot = bfc.lp._ScanBasis._pivot
    calls = []

    def counted(self, *args):
        calls.append(1)
        return pivot(self, *args)

    monkeypatch.setattr(bfc.lp._ScanBasis, "_pivot", counted)
    for d in range(1, 12):
        lp_bs_cap(d)
    assert len(calls) == SCAN_PIVOTS


# d = 15 and 16 as the adjugate basis scanned them: (cap, LP solves,
# pivots less the 2d of phase 0)
HIGH_SCANS = {15: (131, 236, 1201 - 30), 16: (149, 269, 1666 - 32)}


def test_high_degree_scans_are_pinned(monkeypatch):
    run, pivot = bfc.lp._VertexBasis.run, bfc.lp._ScanBasis._pivot
    solves, pivots = [], []

    def counted_run(self, *args):
        solves.append(1)
        return run(self, *args)

    def counted_pivot(self, *args):
        pivots.append(1)
        return pivot(self, *args)

    monkeypatch.setattr(bfc.lp._VertexBasis, "run", counted_run)
    monkeypatch.setattr(bfc.lp._ScanBasis, "_pivot", counted_pivot)
    for d, want in HIGH_SCANS.items():
        solves.clear()
        pivots.clear()
        assert (lp_bs_cap(d).cap, len(solves), len(pivots)) == want, d


class _AdjugateScan(bfc.lp._VertexBasis):
    """The adjugate ``_VertexBasis`` with the scan's right-hand sides and
    picks, over a list of the scan's rows that grows with b: the oracle of
    the node basis ``_ScanBasis``.  Phase 0 skips the zero rows of point 0
    and admits p(k) <= hi_k for k = 1..d, so J is every column and the rows
    on J are the rows."""

    def __init__(self, d):
        self.d, self.b, self.tau = d, d, 0  # for phase 0; each solve sets its own
        super().__init__(d, [(bfc.lp._scan_row(key, d), 0) for key in range(2 * d + 2)])

    def _rhs(self, key):
        return bfc.lp._scan_rhs(key, self.b, self.tau)

    def _pick(self, point, bland):
        lp, b, tau = bfc.lp, self.b, self.tau
        vals = lp._scan_values(point, b)
        return (lp._first_violated if bland else lp._most_violated)(vals, self.det, b, tau)

    def solve(self, b, tau):
        self.b, self.tau = b, tau
        rows = self.rows
        rows.extend((bfc.lp._scan_row(key, self.d), 0) for key in range(len(rows), 2 * b + 2))
        self.r_b = [self._rhs(key) for key in self.keys]
        return self.run()


def test_node_basis_equals_the_adjugate_basis_solve_by_solve(monkeypatch):
    # every solve of the plain scans of d = 1..12 returns the same
    # certificate integers and leaves the same keys, det, vertex and adj;
    # up to d = 6 every row of points 1..b has the same entering weights.
    # Up to d = 8 each vertex the node basis reads within a solve must be
    # adj r_B with B adj = det I, so a wrong pivot fails there, not looping
    vertex = bfc.lp._ScanBasis._vertex

    def checked_vertex(self):
        point = vertex(self)
        d = len(self.keys)
        if d > 8:
            return point
        cols = [self._column(j) for j in range(d)]
        rows = [bfc.lp._scan_row(key, d) for key in self.keys]
        eye = [[sum(map(mul, a, col)) for col in cols] for a in rows]
        assert self.det > 0 and eye == [[self.det * (i == j) for j in range(d)] for i in range(d)]
        assert point == [sum(map(mul, line, self.r_b)) for line in zip(*cols)]
        return point

    monkeypatch.setattr(bfc.lp._ScanBasis, "_vertex", checked_vertex)
    for d in range(1, 13):
        for tau in (0, 1):
            node, oracle = bfc.lp._ScanBasis(d), _AdjugateScan(d)
            for b in range(max(2, d), 2 * d * d + 1):
                assert node.solve(b, tau) == oracle.solve(b, tau), (d, b, tau)
                assert (node.keys, node.det) == (oracle.keys, oracle.det), (d, b, tau)
                assert (node.r_b, node.point) == (oracle.r_b, oracle._vertex()), (d, b, tau)
                adj = [list(column) for column in zip(*oracle.adj)]
                assert [node._column(j) for j in range(d)] == adj, (d, b, tau)
                if d <= 6:
                    for key in range(2, 2 * b + 2):
                        assert node._weights(key) == oracle._weights(key), (d, b, tau, key)


def test_closing_on_a_raised_endpoint_bound_is_refused(monkeypatch):
    # at tau = 0 the row p(b) <= 0 becomes p(b) <= 1 at tau = 1, so a
    # certificate that uses it proves nothing there; the check must catch it
    def closes_too_often(keys, b, tau):
        return all(key <= 2 * b + 1 - tau for key in keys)

    assert bfc.lp._closes([2, 5], 2, 0) and bfc.lp._closes([4, 6], 3, 1)
    assert not bfc.lp._closes([6], 3, 0) and not bfc.lp._closes([7], 3, 1)
    monkeypatch.setattr(bfc.lp, "_closes", closes_too_often)
    with pytest.raises(AssertionError, match="cap scan Farkas certificate"):
        for d in range(1, 12):
            lp_bs_cap(d)


def test_adeg_lp_examples():
    assert simplex_feasible(adeg_lp(family("CONST0", 2), 0, Fraction(1, 3))).feasible
    assert not simplex_feasible(adeg_lp(family("DICT", 2), 0, Fraction(1, 3))).feasible
    or2 = family("OR", 2)
    assert simplex_feasible(adeg_lp(or2, 2, Fraction(1, 3))).feasible


def test_adeg_lp_and_approx_degree_share_one_arity_cap():
    cap = bfc.measures.APPROX_DEGREE_MAX_ARITY
    assert bfc.lp.APPROX_DEGREE_MAX_ARITY == cap
    assert adeg_lp(family("CONST0", cap), 0, Fraction(1, 3)).num_vars == 1
    with pytest.raises(ArityError, match=f"arity <= {cap}, got {cap + 1}"):
        adeg_lp(family("CONST0", cap + 1), 0, Fraction(1, 3))
    with pytest.raises(ArityError, match=f"arity <= {cap}, got {cap + 1}"):
        bfc.measures.approx_degree(family("CONST0", cap + 1))


def test_adeg_lp_shape():
    or2 = family("OR", 2)
    prog = adeg_lp(or2, 1, Fraction(1, 3))
    assert prog.num_vars == 3  # {}, {1}, {2}
    assert len(prog.rows) == 8  # two sides per input point
    # eps = 0 is the exact degree; a degree outside 0..n or a negative eps
    # has no LP
    assert not simplex_feasible(adeg_lp(or2, 1, 0)).feasible
    assert simplex_feasible(adeg_lp(or2, 2, 0)).feasible
    for d, eps in ((-1, Fraction(1, 3)), (3, Fraction(1, 3)), (1, Fraction(-1, 3))):
        with pytest.raises(ValueError):
            adeg_lp(or2, d, eps)


def _band(fx, coeffs, eps):
    return [(coeffs, "<=", fx + eps), (coeffs, ">=", fx - eps)]


def _band_constraints(f, d, eps):
    """The rational bands of ``adeg_lp``: f(x) - eps <= sum of c_m over the
    monomials m <= x with |m| <= d, ordered by (size, mask), <= f(x) + eps."""
    monomials = sorted(
        (m for m in range(1 << f.n) if m.bit_count() <= d), key=lambda m: (m.bit_count(), m)
    )
    constraints = []
    for x in range(1 << f.n):
        coeffs = [Fraction(m & x == m) for m in monomials]
        constraints += _band(Fraction((f.table >> x) & 1), coeffs, eps)
    return constraints


def _orbit_band_constraints(f, orbits, d, eps):
    """The rational bands of ``_orbit_lp``: one per point orbit, at its
    least member x and in the order of those, with #{m in O : m <= x} on
    each monomial orbit O of size <= d, the orbits ordered by the
    (size, mask) of their least members."""
    least = [min(o) for o in orbits]
    cols = sorted(
        (o for o, m in zip(orbits, least) if m.bit_count() <= d),
        key=lambda o: (min(o).bit_count(), min(o)),
    )
    constraints = []
    for x in sorted(least):
        coeffs = [Fraction(sum(m & x == m for m in o)) for o in cols]
        constraints += _band(Fraction((f.table >> x) & 1), coeffs, eps)
    return constraints


def _group_orbits(f, group):
    """The orbits of f's masks under ``group`` by brute force, each in
    ascending order, listed by least member."""
    maps = [_point_map(p) for p in group]
    return sorted({tuple(sorted({m[x] for m in maps})) for x in range(1 << f.n)})


_PINNED_EPSILONS = (Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))


@pytest.mark.parametrize(
    "name, k", [("ALL", 3), ("PARITY", 5), ("MAF", 3), ("KUSHILEVITZ", None)]
)
def test_adeg_rows_are_the_built_band_constraints(name, k):
    # q = eps's denominator on every coefficient, q f(x) + p and p - q f(x)
    # on the right, the <= side of each point first
    fs = [BooleanFunction(3, t) for t in range(256)] if name == "ALL" else [family(name, k)]
    for f in fs:
        group = _automorphisms(f)
        orbits = _mask_orbits(f.n, group)
        assert list(map(tuple, orbits)) == _group_orbits(f, group), f
        for eps in _PINNED_EPSILONS:
            for d in range(f.n + 1):
                full = adeg_lp(f, d, eps)
                assert full == lp(full.num_vars, _band_constraints(f, d, eps)), (f, d, eps)
                reduced, _ = _orbit_lp(f, orbits, d, eps)
                want = lp(reduced.num_vars, _orbit_band_constraints(f, orbits, d, eps))
                assert reduced == want, (f, d, eps)


def test_reduced_bands_sit_at_least_members_of_any_partition():
    # on a group's orbits every member gives the same band, so the rows
    # are pinned to the least member on arbitrary partitions of the masks
    rng = random.Random(38)
    for n in (3, 4):
        for _ in range(10):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            parts = {}
            for x in range(1 << n):
                parts.setdefault(rng.randrange(5), []).append(x)
            orbits = sorted(parts.values())
            for d in range(n + 1):
                reduced, _ = _orbit_lp(f, orbits, d, Fraction(2, 5))
                want = _orbit_band_constraints(f, orbits, d, Fraction(2, 5))
                assert reduced == lp(reduced.num_vars, want), (f, orbits, d)


@pytest.mark.parametrize("side", [0, 1], ids=["upper", "lower"])
def test_a_band_side_without_q_fails(monkeypatch, side):
    # a copy of adeg_lp whose rows of one side (keys 2x or 2x + 1) lack q
    real = bfc.lp.adeg_lp
    f, d, eps = family("MAF", 3), 2, Fraction(2, 5)

    def without_q(f, d, eps):
        prog, q = real(f, d, eps), eps.denominator
        rows = [
            ([c // q for c in a], r) if key % 2 == side else (a, r)
            for key, (a, r) in enumerate(prog.rows)
        ]
        return LinearProgram(prog.num_vars, rows)

    assert without_q(f, d, eps) != lp(real(f, d, eps).num_vars, _band_constraints(f, d, eps))
    monkeypatch.setattr(bfc.lp, "adeg_lp", without_q)
    with pytest.raises(AssertionError, match="failed the full LP"):
        bfc.measures.approx_degree(f, eps)


# ---------------------------------------------------------------------------
# the approximation LP on the orbits of f's coordinate symmetries
# ---------------------------------------------------------------------------

def _full_lp_adeg(f, eps):
    """Least d whose full ``adeg_lp`` is feasible; deg f is (see
    test_adeg_lp_is_feasible_at_the_degree)."""
    top = degree(f)
    return next((d for d in range(top) if simplex_feasible(adeg_lp(f, d, eps)).feasible), top)


def _permuted(f, p):
    """The table of x -> f(p(x))."""
    image = _point_map(p)
    return sum(((f.table >> image[x]) & 1) << x for x in range(1 << f.n))


def _symmetrised(n, table, coords):
    """A table that every permutation of ``coords`` fixes: each point takes
    the value of ``table`` at the least point of its orbit under them."""
    maps = []
    for q in permutations(coords):
        p = list(range(n))
        for i, j in zip(coords, q):
            p[i] = j
        maps.append(_point_map(p))
    return sum(((table >> min(m[x] for m in maps)) & 1) << x for x in range(1 << n))


def _seeded_tables(n, count, seed):
    """``count`` random n-input tables, then ``count`` made symmetric in a
    random set of two to four coordinates."""
    rng = random.Random(seed)
    plain = [BooleanFunction(n, rng.getrandbits(1 << n)) for _ in range(count)]
    sym = []
    for _ in range(count):
        coords = rng.sample(range(n), rng.randint(2, min(4, n)))
        sym.append(BooleanFunction(n, _symmetrised(n, rng.getrandbits(1 << n), coords)))
    return plain + sym


_EPSILONS = (Fraction(1, 3), Fraction(1, 10))


def test_automorphisms_are_exactly_the_permutations_that_fix_f():
    rng = random.Random(20261019)
    fs = [BooleanFunction(n, rng.getrandbits(1 << n)) for n in range(6) for _ in range(3)]
    fs += _seeded_tables(5, 3, 7) + [family("MAJ", 5), family("ADDR", 1), family("CONST1", 3)]
    for f in fs:
        found = _automorphisms(f)
        assert found[0] == tuple(range(f.n)) and len(set(found)) == len(found)
        fixing = {p for p in permutations(range(f.n)) if _permuted(f, p) == f.table}
        assert set(found) == fixing, f


@pytest.mark.parametrize("name, k, order", [
    ("KUSHILEVITZ", None, 60), ("MAF", 3, 6), ("MAJ", 5, 120), ("ADDR", 2, 2),
    ("PARITY", 6, 720), ("DICT", 3, 2),
])
def test_group_orders_are_pinned(name, k, order):
    assert len(_automorphisms(family(name, k))) == order


def test_the_orbit_lp_of_a_trivial_group_is_adeg_lp_row_for_row():
    rng = random.Random(11)
    fs = [BooleanFunction(3, t) for t in range(256)]
    fs += [BooleanFunction(5, rng.getrandbits(32)) for _ in range(3)]
    for f in fs:
        trivial = _mask_orbits(f.n, [tuple(range(f.n))])
        assert [len(o) for o in trivial] == [1] * (1 << f.n)
        group = _automorphisms(f)
        own = _mask_orbits(f.n, group) if len(group) == 1 else None
        for d in range(f.n + 1):
            full = adeg_lp(f, d, Fraction(1, 3))
            assert _orbit_lp(f, trivial, d, Fraction(1, 3))[0] == full, (f, d)
            if own is not None:
                assert _orbit_lp(f, own, d, Fraction(1, 3))[0] == full, (f, d)


@pytest.mark.parametrize("eps", _EPSILONS)
def test_orbit_lp_matches_the_full_lp_on_all_three_input_tables(eps):
    for t in range(256):
        f = BooleanFunction(3, t)
        assert bfc.measures.approx_degree(f, eps) == _full_lp_adeg(f, eps), t


@pytest.mark.parametrize("n, count", [(4, 8), (5, 3), (6, 1)])
def test_orbit_lp_matches_the_full_lp_on_seeded_tables(n, count):
    for f in _seeded_tables(n, count, 100 + n):
        eps = _EPSILONS[n % 2]
        assert bfc.measures.approx_degree(f, eps) == _full_lp_adeg(f, eps), f


@pytest.mark.parametrize("eps", _EPSILONS)
@pytest.mark.parametrize("name, k", [
    ("MAJ", 5), ("AND", 6), ("OR", 6), ("PARITY", 6),
    ("KUSHILEVITZ", None), ("MAF", 3), ("ADDR", 2),
])
def test_orbit_lp_matches_the_full_lp_on_named_functions(name, k, eps):
    f = family(name, k)
    assert bfc.measures.approx_degree(f, eps) == _full_lp_adeg(f, eps)


def test_a_permutation_that_does_not_fix_f_is_caught():
    f = family("MAF", 3)
    group = _automorphisms(f)
    bad = next(p for p in permutations(range(f.n)) if p not in group)
    orbits = _mask_orbits(f.n, [*group, bad])
    with pytest.raises(AssertionError, match="failed the full LP"):
        for d in range(degree(f)):
            _orbit_feasible(f, orbits, d, Fraction(1, 3))


def test_a_farkas_lift_without_its_orbit_factor_is_caught(monkeypatch):
    def lift_unscaled(y, orbits):
        lifted = [0] * (2 * sum(map(len, orbits)))
        for k, members in enumerate(orbits):
            for x in members:
                lifted[2 * x], lifted[2 * x + 1] = y[2 * k], y[2 * k + 1]
        return lifted

    monkeypatch.setattr(bfc.lp, "_lift_farkas", lift_unscaled)
    with pytest.raises(AssertionError, match="failed the full LP"):
        bfc.measures.approx_degree(family("MAJ", 3))


def test_orbit_lp_rows_are_pinned(monkeypatch):
    # the full LPs of the same solves have 384, 384 and 32 rows
    built = []
    reduce = bfc.lp._orbit_lp

    def counted(f, orbits, d, eps):
        prog, cols = reduce(f, orbits, d, eps)
        built.append(len(prog.rows))
        return prog, cols

    monkeypatch.setattr(bfc.lp, "_orbit_lp", counted)
    rows = {}
    for name, k in (("KUSHILEVITZ", None), ("MAF", 3), ("MAJ", 3)):
        built.clear()
        bfc.measures.approx_degree(family(name, k))
        rows[name] = sum(built)
    assert rows == {"KUSHILEVITZ": 48, "MAF": 120, "MAJ": 16}
