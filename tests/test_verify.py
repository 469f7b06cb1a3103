import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfc.bf
from bfc import coordinate, measures, verify
from bfc import corpus as corpus_module
from bfc.bf import ArityError, BooleanFunction, family, mobius_vector
from bfc.corpus import DEDEKIND, Corpus, parse_corpus
from bfc.measures import TableMeasures, block_sensitivity, degree, table_measures
from bfc.verify import (
    DoublingFunction,
    certify_doubling_recurrence,
    check_standard_form_lemmas,
    dt_doubling_family,
    run_theorem_suite,
    standard_form,
    suite_failures,
)


# --- corpora -----------------------------------------------------------------

def test_all_corpus_counts():
    assert len(parse_corpus("all:2")) == 16
    labels = [lab for lab, _ in parse_corpus("all:1")]
    assert labels == ["all1:0x0", "all1:0x1", "all1:0x2", "all1:0x3"]


def test_monotone_corpus_counts():
    for n in range(0, 6):
        corpus = parse_corpus(f"monotone:{n}")
        fs = list(corpus)
        assert len(fs) == DEDEKIND[n] == len(corpus)
        if n <= 3:
            assert all(f.is_monotone() for _, f in fs)
    with pytest.raises(ValueError):
        parse_corpus("monotone:6")


def _is_monotone_table(n, table):
    """f(x) <= f(x + e_i) at every point x with x_i = 0, read point by point."""
    return all(
        not table >> x & 1 or table >> (x | 1 << i) & 1
        for x in range(1 << n) for i in range(n) if not x >> i & 1
    )


def test_monotone_tables_come_in_increasing_order():
    # Corpus.representatives meets each orbit's least member first only
    # while the tables come in increasing order, which _monotone_tables
    # builds in place of a sort
    assert DEDEKIND == {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
    for n in range(6):
        tables = corpus_module._monotone_tables(n)
        assert len(tables) == DEDEKIND[n]
        assert all(a < b for a, b in zip(tables, tables[1:])), n
        if n <= 3:
            want = [t for t in range(1 << (1 << n)) if _is_monotone_table(n, t)]
            assert list(tables) == want, n


def test_random_corpus_reproducible():
    a = list(parse_corpus("random:4:10:7"))
    b = list(parse_corpus("random:4:10:7"))
    assert a == b
    c = list(parse_corpus("random:4:10:8"))
    assert a != c


def test_named_corpus():
    fs = dict(parse_corpus("named:KUSHILEVITZ,MAJ:3"))
    assert fs["KUSHILEVITZ"].n == 6
    assert fs["MAJ:3"] == family("MAJ", 3)


def test_parse_corpus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_corpus("some:4")
    with pytest.raises(ValueError):
        parse_corpus("random:4:10")
    with pytest.raises(ValueError):
        parse_corpus("named:")


# --- standard form --------------------------------------------------------------

def test_standard_form_or2_fixed_point():
    assert standard_form(family("OR", 2)) == family("OR", 2)


def test_standard_form_and2_is_or2():
    assert standard_form(family("AND", 2)) == family("OR", 2)


def test_standard_form_kushilevitz():
    g = standard_form(family("KUSHILEVITZ"))
    assert g.n == 6
    assert degree(g) <= 3


def test_standard_form_rejects_constants():
    with pytest.raises(ValueError):
        standard_form(family("CONST0", 2))


def test_standard_form_idempotent_up_to_permutation():
    for f in (family("MAJ", 3), family("AND", 3), family("KUSHILEVITZ")):
        g = standard_form(f)
        h = standard_form(g)
        assert h.n == g.n
        perms = itertools.permutations(range(g.n))
        assert any(
            all(
                h.evaluate([bits[p[i]] for i in range(g.n)]) == g.evaluate(bits)
                for bits in itertools.product((0, 1), repeat=g.n)
            )
            for p in perms
        )


@given(st.integers(1, (1 << 16) - 2))
@settings(max_examples=120, deadline=None)
def test_standard_form_arity_and_linear_coefficient(table):
    f = BooleanFunction(4, table)
    bs = block_sensitivity(f).bs
    g = standard_form(f)
    assert g.n == bs
    p = verify._symmetrized(g.n, g.table)
    assert (p[1] if len(p) > 1 else 0) == bs


# --- symmetrisation ---------------------------------------------------------------

def test_symmetrize_examples():
    assert verify._symmetrized(2, family("OR", 2).table) == [0, 2, -1]
    assert verify._symmetrized(2, family("PARITY", 2).table) == [0, 2, -2]
    g = standard_form(family("MAJ", 3))
    p = verify._symmetrized(g.n, g.table)
    assert p[1] == block_sensitivity(family("MAJ", 3)).bs == 2


def test_symmetrize_endpoints():
    f = family("MAJ", 3)
    p = verify._symmetrized(f.n, f.table)
    assert sum(p) == f.evaluate((1, 1, 1))
    assert p[0] == f.evaluate((0, 0, 0))


def test_standard_form_lemmas():
    or2 = family("OR", 2)
    rep = check_standard_form_lemmas(or2)
    assert rep.passed
    # single pair coefficient -1, so p''(0) = -2 = -b(b-1)
    assert mobius_vector(2, or2.table)[0b11] == -1
    p = verify._symmetrized(2, or2.table)
    assert 2 * p[2] == -2
    g = standard_form(family("AND", 3))
    assert check_standard_form_lemmas(g).passed
    mob = mobius_vector(g.n, g.table)
    assert all(
        mob[(1 << i) | (1 << j)] in (-1, -2)
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert check_standard_form_lemmas(family("DICT", 1)).passed  # vacuous pairs
    with pytest.raises(ValueError):
        check_standard_form_lemmas(family("AND", 2))  # not standard form


# --- consequences of the curvature bound -------------------------------------------

def test_markov_consequence_examples():
    ku = family("KUSHILEVITZ")
    bs = block_sensitivity(ku).bs
    d = degree(ku)
    assert verify._markov_quartic(bs, d) and verify._markov_quadratic(bs, d)
    assert bs * bs - bs == 30
    assert Fraction(2, 3) * (d ** 4 - d * d) == 48
    # PARITY 4: bs = deg = 4, so 12 <= 160 and 3 * 3^2 <= 2 * 4^4
    assert verify._markov_quartic(4, 4) and verify._markov_quadratic(4, 4)


# --- monotone decision-tree structure ------------------------------------------------

def _reference_dt_intersect(n, table, i0):
    """The former per-root ``_dt_intersect``: (Cmin0(f0) + Cmin1(f1),
    |shared| + 1) at the 0-based root i0 of a monotone f, or None when a
    branch is constant, each root reading the record afresh."""
    rec = table_measures(n, table)
    lo = bfc.bf.half_mask(n, i0)
    halves = [table & lo, table >> (1 << i0) & lo]
    if any(h in (0, lo) for h in halves):
        return None
    shared = sum(1 for k, d in enumerate(rec.diffs) if k != i0 and d & lo and d >> (1 << i0) & lo)
    bits = 8 << n
    block = rec.branch_cert_lanes >> bits * i0 & (1 << bits) - 1
    zeros, ones = rec._value_masks()
    lo_lanes = measures._lane_halves(n)[i0][0]
    cmin0, cmin1 = (
        measures._lane_min(block | (1 << bits) - 1 ^ points, n)
        for points in (zeros & lo_lanes, ones & ~lo_lanes)
    )
    return cmin0 + cmin1, shared + 1


def _dt_roots(n, table):
    """``_dt_intersect``'s sides at every root, on a private record."""
    return list(verify._dt_intersect(TableMeasures(n, table)))


def test_dt_intersect_maj3():
    assert _dt_roots(3, family("MAJ", 3).table)[0] == (2, 3)


def test_dt_intersect_skips_constant_branch():
    assert _dt_roots(2, family("AND", 2).table)[0] is None


def test_dt_intersect_all_monotone_four_variable():
    for _, f in parse_corpus("monotone:4"):
        for sides in _dt_roots(4, f.table):
            assert sides is None or sides[0] <= sides[1]


def test_dt_intersect_counts_only_coordinates_relevant_to_both_branches():
    # f = (x1 and x2) or x3: f0 = x3 and f1 = x2 or x3 share x3 alone
    table = sum(1 << x for x in range(8) if (x & 1 and x & 2) or x & 4)
    assert _dt_roots(3, table)[0] == (2, 2)


def test_dt_intersect_matches_the_former_per_root_reads():
    # one pass over the roots gives each root the sides of the former
    # per-root function, on monotone tables and on any table
    rng = random.Random(40)
    tables = [(f.n, f.table) for spec in ("all:3", "monotone:5") for _, f in parse_corpus(spec)]
    tables += [(n, rng.getrandbits(1 << n)) for n in (1, 2, 6, 8) for _ in range(6)]
    for n, t in tables:
        want = [_reference_dt_intersect(n, t, i0) for i0 in range(n)]
        assert _dt_roots(n, t) == want, (n, t)


def test_mono_dt_intersect_row_reports_the_first_failing_root(monkeypatch):
    rec = table_measures(3, family("MAJ", 3).table)
    assert verify._check_mono_dt_intersect(rec) == ("PASS", "-", "-")
    sides = {0: None, 1: (3, 3), 2: (4, 3)}
    monkeypatch.setattr(verify, "_dt_intersect", lambda rec: (sides[i0] for i0 in range(rec.n)))
    assert verify._check_mono_dt_intersect(rec) == ("FAIL", "root=3 4", 3)
    sides[2] = None
    assert verify._check_mono_dt_intersect(rec) == ("PASS", "-", "-")
    sides[1] = None
    assert verify._check_mono_dt_intersect(rec) == ("SKIP", 0, 0)


# --- doubling family -----------------------------------------------------------------

def test_doubling_family_small_levels():
    f3 = dt_doubling_family(3)
    assert f3.n == 4 and f3.num_relevant() == 4
    f5 = dt_doubling_family(5)
    assert f5.n == 10 and f5.num_relevant() == 10
    from bfc.measures import dt_depth

    assert dt_depth(f3) <= 3
    assert f3.is_monotone() and f5.is_monotone()


def test_doubling_family_arity_guard():
    with pytest.raises(ArityError):
        dt_doubling_family(7)  # would need 22 inputs


def test_doubling_lazy_matches_table():
    for level in (3, 4, 5, 6):
        ev = DoublingFunction(level)
        f = dt_doubling_family(level)
        assert ev.arity == f.n
        for idx in range(0, 1 << f.n, 7):
            bits = tuple((idx >> i) & 1 for i in range(f.n))
            assert ev.evaluate(bits) == f.evaluate(bits)


def test_doubling_recurrence_certificates():
    odd = certify_doubling_recurrence(9)
    assert odd == [(1, 1), (3, 4), (5, 10), (7, 22), (9, 46)]
    even = certify_doubling_recurrence(8)
    assert even == [(2, 2), (4, 6), (6, 14), (8, 30)]


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=7), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_grid_bound_matches_fraction_evaluation(coeffs, b):
    def value(k):
        total = Fraction(0)
        for c in reversed(coeffs):
            total = total * Fraction(k, b) + c
        return total

    expected = all(abs(value(k)) <= 1 for k in range(b + 1))
    assert verify._grid_bounded(coeffs, b) == expected


# --- the suite over small corpora ------------------------------------------------------

def test_suite_all_two_variable():
    checks = run_theorem_suite(parse_corpus("all:2"))
    assert suite_failures(checks) == 0


def test_suite_named():
    checks = run_theorem_suite(
        parse_corpus("named:KUSHILEVITZ,MAJ:3,ADDR:2,MAF:3,PARITY:4")
    )
    assert suite_failures(checks) == 0


def test_suite_monotone_three():
    checks = run_theorem_suite(parse_corpus("monotone:3"))
    assert suite_failures(checks) == 0
    by_id = {c.check_id: c for c in checks}
    assert by_id["mono_s_bs_C"].checked == 20
    assert by_id["adeg"].checked == 20


def test_suite_random_corpus():
    checks = run_theorem_suite(parse_corpus("random:5:40:3"))
    assert suite_failures(checks) == 0


# --- the orbit sweep -------------------------------------------------------------

def _transposed(f, i):
    """f with 0-based coordinates i and i+1 exchanged, tabulated pointwise."""
    def value(x):
        y = list(x)
        y[i], y[i + 1] = y[i + 1], y[i]
        return f.evaluate(y)

    return BooleanFunction.from_callable(f.n, value)


def _invariance_tables():
    rng = random.Random(11)
    tables = [f for _, f in parse_corpus("all:3")]
    tables += [f for _, f in parse_corpus("monotone:4")]
    tables += [BooleanFunction(n, rng.getrandbits(1 << n)) for n in (5, 6) for _ in range(8)]
    return tables


def _row_verdict(fn, f):
    status, left, right = verify._run_check(fn, table_measures(f.n, f.table))
    return status, verify._margin(left, right)


def test_every_suite_row_is_invariant_under_coordinate_permutations():
    # the orbit sweep runs each row on one member per orbit, which is sound
    # only while no row's status or margin depends on the coordinate order
    for f in _invariance_tables():
        for i in range(f.n - 1):
            g = _transposed(f, i)
            for check_id, _, fn in verify._GENERAL_CHECKS:
                assert _row_verdict(fn, f) == _row_verdict(fn, g), (check_id, f, i)


def _plain_suite(corpus):
    """The suite as a plain loop over every function, each of weight 1."""
    accs = [verify._Accumulator(cid, ineq) for cid, ineq, _ in verify._GENERAL_CHECKS]
    for label, f in corpus:
        rec = table_measures(f.n, f.table)
        for acc, (_, _, fn) in zip(accs, verify._GENERAL_CHECKS):
            try:
                status, left, right = fn(rec)
            except ArityError:
                status, left, right = "SKIP", 0, 0
            acc.record(status, left, right, label, 1)
    return [acc.report() for acc in accs]


@pytest.mark.parametrize("spec", ["all:3", "monotone:4", "random:5:40:3"])
def test_orbit_sweep_equals_the_plain_loop(spec):
    corpus = parse_corpus(spec)
    assert run_theorem_suite(corpus) == _plain_suite(corpus)


@pytest.mark.parametrize("spec", ["monotone:4", "random:5:40:3"])
def test_suite_is_the_same_from_a_cold_and_a_warm_memo(spec):
    corpus = parse_corpus(spec)
    table_measures.cache_clear()
    cold = run_theorem_suite(corpus)
    hits = table_measures.cache_info().hits
    warm = run_theorem_suite(corpus)
    assert table_measures.cache_info().hits > hits
    assert cold == warm


@pytest.mark.parametrize("spec", ["random:8:12:1", "monotone:4", "random:14:2:1"])
def test_suite_keeps_no_record_of_its_own_functions(spec):
    # each representative's record is private to the suite and let go after
    # its rows; only shared records (DT restrictions, standard forms of
    # fewer inputs) stay
    corpus = parse_corpus(spec)
    table_measures.cache_clear()
    run_theorem_suite(corpus)
    for _, f, _ in corpus.representatives():
        misses = table_measures.cache_info().misses
        table_measures(f.n, f.table)
        assert table_measures.cache_info().misses == misses + 1, (spec, f)


def _old_margin(left, right):
    """The witness rule before text sides were parsed once: float(left) -
    float(right), or -inf where either raises TypeError or ValueError."""
    try:
        return float(left) - float(right)
    except (TypeError, ValueError):
        return float("-inf")


def _outcome(fn, left, right):
    """What ``fn`` returns on the pair, or the type of what it raises; NaN
    stands for itself so that two NaNs compare equal."""
    try:
        got = fn(left, right)
    except Exception as exc:  # an exception the rule lets through
        return type(exc)
    return "nan" if math.isnan(got) else got


def test_margin_keeps_the_float_difference_rule():
    sides = [
        0, 3, -2, True, 10 ** 400, 0.5, -1.25, float("inf"),
        "4.3935", " 7 ", "1e999", "nan", "-inf", "-", "s=1,bs=1,C=1", "3/4", "", "0x10",
        Fraction(3, 4), Fraction(-7, 2), [1], {"a": 1}, None, b"12",
    ]
    verify._text_number.cache_clear()
    for _ in range(2):  # once parsing each text, once reading it back
        for left in sides:
            for right in sides:
                want = _outcome(_old_margin, left, right)
                assert _outcome(verify._margin, left, right) == want, (left, right)
    assert verify._text_number.cache_info().hits > 0


@functools.lru_cache(maxsize=None)
def _index_moves(n):
    """Per permutation of the n coordinates, where each input index goes."""
    return [
        [sum((x >> i & 1) << perm[i] for i in range(n)) for x in range(1 << n)]
        for perm in itertools.permutations(range(n))
    ]


def _images(n, table):
    """Every table obtained from ``table`` by permuting its n coordinates."""
    ones = [x for x in range(1 << n) if table >> x & 1]
    return {sum(1 << move[x] for x in ones) for move in _index_moves(n)}


@pytest.mark.parametrize(
    "spec, orbits",
    [("all:3", 80), ("all:4", 3984), ("monotone:4", 30), ("monotone:5", 210)],
)
def test_orbit_representatives(spec, orbits):
    corpus = parse_corpus(spec)
    reps = list(corpus.representatives())
    assert len(reps) == orbits
    assert sum(w for _, _, w in reps) == len(corpus)
    tables = [f.table for _, f, _ in reps]
    assert tables == sorted(tables) and len(set(tables)) == orbits
    labels = dict((f.table, label) for label, f in corpus)
    for label, f, weight in reps:
        assert label == labels[f.table]
        images = _images(f.n, f.table)
        assert min(images) == f.table and len(images) == weight


def test_representatives_label_only_the_tables_they_yield(monkeypatch):
    label, calls = Corpus._label, []

    def spy(self, i, t):
        calls.append(t)
        return label(self, i, t)

    monkeypatch.setattr(Corpus, "_label", spy)
    reps = list(parse_corpus("monotone:5").representatives())
    assert calls == [f.table for _, f, _ in reps] and len(calls) == 210


def test_random_and_named_corpora_take_every_function_once():
    for spec in ("random:4:25:9", "named:KUSHILEVITZ,MAJ:3,AND:3"):
        corpus = parse_corpus(spec)
        assert list(corpus.representatives()) == [(lab, f, 1) for lab, f in corpus]


def test_progress_counts_the_functions_covered():
    calls = []
    run_theorem_suite(parse_corpus("all:4"), progress=calls.append)
    assert calls == sorted(set(calls)) and calls[-1] <= 65536
    # one call per multiple of 4096 passed, orbits being far smaller
    assert [c // 4096 for c in calls] == list(range(1, 17))


def test_theorem_check_row_format():
    checks = run_theorem_suite(parse_corpus("named:MAJ:3"))
    row = checks[0].row()
    assert row.split("\t")[0] == "chain"
    assert row.split("\t")[1] == "pass"


# --- failure paths of the shared check kernels ------------------------------------
#
# The theorems hold, so no real corpus reaches a FAIL branch.  Each test makes
# one coordinate-measure field of the measure record wrong on 2-input tables,
# runs the suite on OR2 and the row's kernel (or check_rrcm), and requires
# both to report the same first violation.

def _suite_row(check_id):
    checks = run_theorem_suite(parse_corpus("named:OR:2"))
    return {c.check_id: c for c in checks}[check_id]


def _break_on_arity_two(monkeypatch, field, value):
    """Make the record's ``field`` read ``value`` at every coordinate of
    every 2-input table; other arities compute it as before."""
    kernel = getattr(TableMeasures, field).func
    monkeypatch.setattr(
        TableMeasures,
        field,
        property(lambda rec: (value,) * rec.n if rec.n == 2 else kernel(rec)),
    )


def test_rrcm_failure_path(monkeypatch):
    # deg_i = 0 on OR2 while its restriction to x1 = 0, the dictator x2,
    # keeps deg_i = 1: fixing x1 = 0 grows the measure of x2
    _break_on_arity_two(monkeypatch, "deg_i", 0)
    row = _suite_row("rrcm")
    assert not row.passed
    assert (row.left, row.right) == ("deg i=2 j=1 b=0", "axiom1")
    res = coordinate.check_rrcm(family("OR", 2), 2, coordinate.DEG_I)
    assert not res.passed
    assert res.counterexample == (1, 0)
    assert res.detail.startswith("axiom1")


def test_influence_bound_failure_path(monkeypatch):
    # with sens_i = 0 the weight 2^-0 = 1 exceeds 2^-2 * Inf_1 = 1/8
    _break_on_arity_two(monkeypatch, "sens_i", 0)
    row = _suite_row("influence_bound")
    assert not row.passed
    assert (row.left, row.right) == ("sens i=1", "per-coordinate")
    rec = table_measures(2, family("OR", 2).table)
    assert coordinate._influence_violation(rec, coordinate.SENS_I) == 0
    # deg_i is untouched, so the deg kind, checked first, still passes
    assert coordinate._influence_violation(rec, coordinate.DEG_I) is None


def test_monomial_sens_failure_path(monkeypatch):
    # with sens_i = 1 the monomial x1 of OR2 holds one coordinate with
    # sens_i <= 1, above the k = 1 limit (1 - 1)^2 = 0
    _break_on_arity_two(monkeypatch, "sens_i", 1)
    row = _suite_row("monomial_sens")
    assert not row.passed
    assert (row.left, row.right) == ("k=1 mask=0x1 count=1", "0")
    rec = table_measures(2, family("OR", 2).table)
    assert coordinate._monomial_sens_violation(rec, (1,)) == (1, 1, 1)


def _suite_tables():
    rng = random.Random(5)
    tables = [f for n in (1, 2, 3) for _, f in parse_corpus(f"all:{n}")]
    tables += [f for _, f in parse_corpus("monotone:4")]
    tables += [BooleanFunction(n, rng.getrandbits(1 << n)) for n in (6, 7, 8) for _ in range(5)]
    return tables


def test_cert_potential_matches_the_fraction_potential(monkeypatch):
    # the true sums stay below 1/2, so low cert_i stand in for the FAIL side
    for cert in (None, 1, 2, 3):
        if cert is not None:
            monkeypatch.setattr(TableMeasures, "cert_i", property(lambda r, c=cert: (c,) * r.n))
        for f in _suite_tables():
            total = coordinate.potential(f, coordinate.CERT_I).value
            cell = f"{total.numerator}/{total.denominator}"
            want = ("PASS" if total <= Fraction(1, 2) else "FAIL", cell, "1/2")
            got = verify._check_cert_potential(table_measures(f.n, f.table))
            assert got == want, (f, cert)


def test_relvars_ds_exact_and_slack_verdicts_agree():
    # every (nrel, deg, s) with all three at most the largest arity
    top = bfc.bf.MAX_ARITY
    for nrel in range(top + 1):
        for deg in range(top + 1):
            for s in range(top + 1):
                slack = nrel <= 8.277 * 2.0 ** (deg / 2.0 + s) + 1e-6
                assert verify._within_mixed_ds(nrel, deg, s) == slack, (nrel, deg, s)


def test_relvars_cs_float_verdict_matches_60_digits():
    # the float bound (ln s + gamma/2) 4^((C + s)/2) is compared with no
    # slack; over every 1 <= s <= C <= 20 and nrel <= 20 its verdict is the
    # one at 60 digits, and no nrel comes within 0.15 of the bound
    gap = math.inf
    with mpmath.workdps(60):
        for C in range(1, 21):
            for s in range(1, C + 1):
                rhs = (mpmath.log(s) + mpmath.euler / 2) * 2 ** (C + s)
                for nrel in range(21):
                    rec = SimpleNamespace(sens=(s,), certs=SimpleNamespace(C=C), nrel=nrel)
                    want = "PASS" if nrel <= rhs else "FAIL"
                    assert verify._check_relvars_mixed_cs(rec)[0] == want, (s, C, nrel)
                    gap = min(gap, abs(rhs - nrel))
    assert gap > 0.15


def _reference_monomial_potential(n, table, sens):
    """S(M) = sum_{i in M} 2^-sens_i per nonzero monomial, in Fractions."""
    mob = mobius_vector(n, table)
    for mask in range(1, 1 << n):
        if not mob[mask]:
            continue
        subset = [i for i in range(n) if (mask >> i) & 1]
        total = sum((Fraction(1, 1 << sens[i]) for i in subset), Fraction(0))
        if total >= Fraction(3, 2):
            return f"mask={mask:#x} S={total}", "3/2"
        d = len(subset)
        root = math.isqrt(d)
        cap = sum(Fraction(2 * k - 3, 1 << k) for k in range(2, root + 2))
        cap += Fraction(d - root * root, 1 << (root + 2))
        if total > cap:
            return f"mask={mask:#x} S={total}", f"profile cap {cap}"
    return "-", "-"


@pytest.mark.parametrize(
    "name, sens",
    [
        ("AND:2", (0, 0)),  # S(x1 x2) = 2 reaches 3/2
        ("OR:2", (1, 1)),  # S(x1) = 1/2 exceeds the size-1 cap 1/4
        ("OR:2", (2, 0)),  # S(x2) = 1
        ("OR:2", (2, 3)),  # S(x1 x2) = 3/8 meets the size-2 cap exactly
        ("MAJ:3", (2, 1, 2)),  # S(x1 x2) = 3/4 exceeds the size-2 cap 3/8
    ],
)
def test_monomial_potential_failure_path(monkeypatch, name, sens):
    # the suite scales S(M) to integers; its cells must match the Fraction sums
    f = dict(parse_corpus(f"named:{name}"))[name]
    kernel = TableMeasures.sens_i.func
    monkeypatch.setattr(
        TableMeasures, "sens_i", property(lambda rec: sens if rec.n == f.n else kernel(rec))
    )
    checks = run_theorem_suite(parse_corpus(f"named:{name}"))
    row = {c.check_id: c for c in checks}["monomial_potential"]
    expected = _reference_monomial_potential(f.n, f.table, sens)
    assert (row.left, row.right) == expected
    assert row.passed == (expected == ("-", "-"))


# ---------------------------------------------------------------------------
# the rrcm row: one pass for every base kind, in the order of kinds
# ---------------------------------------------------------------------------

def _lower_on_record(rec, field, i0):
    """Make ``field`` of f's own record read 0 at coordinate ``i0``: each
    branch on which i0 matters then exceeds it, an axiom1 hit."""
    vals = getattr(rec, field)
    vars(rec)[field] = vals[:i0] + (0,) + vals[i0 + 1:]


def test_rrcm_row_reports_the_first_kind_before_the_first_restriction():
    # a CERT hit at j = 1 and a SENS hit at j = 2: the row names SENS, at
    # the (i, j, b, axiom) of the SENS scan alone
    n, t = 5, random.Random(27).getrandbits(32)
    rec = TableMeasures(n, t)
    assert all(rec.diffs)
    _lower_on_record(rec, "sens_i", 0)
    _lower_on_record(rec, "cert_i", 4)
    sens = coordinate._rrcm_violation(rec, (coordinate.SENS_I,), range(n))
    cert = coordinate._rrcm_violation(rec, (coordinate.CERT_I,), range(n))
    assert coordinate._rrcm_violation(rec, (coordinate.DEG_I,), range(n)) is None
    assert sens[1:] == (0, 1, 0, "axiom1") and cert[1:] == (4, 0, 0, "axiom1")
    assert coordinate._rrcm_violation(rec, coordinate.ALL_BASE_KINDS, range(n)) == sens
    assert verify._check_rrcm(rec) == ("FAIL", "sens i=1 j=2 b=0", "axiom1")


def test_rrcm_row_fails_on_a_deg_hit_where_cert_is_capped():
    # cert_i of a 15-input table is past the certificate cap, which skips
    # the row; a DEG hit, scanned first, still makes it fail
    n, t = 15, random.Random(15).getrandbits(1 << 15)
    rec = TableMeasures(n, t)
    with pytest.raises(ArityError):
        rec.cert_i
    assert verify._run_check(verify._check_rrcm, rec) == ("SKIP", 0, 0)
    rec = TableMeasures(n, t)
    _lower_on_record(rec, "deg_i", 2)
    hit = coordinate._rrcm_violation(rec, (coordinate.DEG_I,), range(n))
    assert hit[1:] == (2, 0, 0, "axiom1")
    want = ("FAIL", "deg i=3 j=1 b=0", "axiom1")
    assert verify._run_check(verify._check_rrcm, rec) == want


def test_rrcm_row_builds_no_restriction_record():
    # the rrcm and mono_dt_intersect rows read the restrictions' values off
    # f's own record, and no other record is built
    table_measures.cache_clear()
    seen = set()
    for spec in ("random:8:12:1", "monotone:4"):
        for _, f in parse_corpus(spec):
            rec = table_measures(f.n, f.table)
            size = table_measures.cache_info().currsize
            assert verify._check_rrcm(rec) == ("PASS", "-", "-")
            seen.add(verify._check_mono_dt_intersect(rec)[0])
            assert table_measures.cache_info().currsize == size
    assert seen == {"PASS", "SKIP"}


# ---------------------------------------------------------------------------
# the per-point loops built by doubling, against the loops they replaced
# ---------------------------------------------------------------------------

def _old_monomial_potential(rec, mobius):
    """The row's former loop: w[mask] built one mask at a time over all 2^n,
    each mask tested where its coefficient in ``mobius`` is nonzero."""
    sens = rec.sens_i
    top = max((0,) + sens)
    caps = [verify._monomial_sens_cap(d) for d in range(rec.n + 1)]
    w = [0] * (1 << rec.n)
    for mask in range(1, 1 << rec.n):
        low = mask & -mask
        w[mask] = w[mask ^ low] + (1 << (top - sens[low.bit_length() - 1]))
        if not mobius[mask]:
            continue
        total = w[mask]
        if 2 * total >= 3 << top:
            return "FAIL", f"mask={mask:#x} S={Fraction(total, 1 << top)}", "3/2"
        num, e = caps[mask.bit_count()]
        if total << e > num << top:
            return (
                "FAIL",
                f"mask={mask:#x} S={Fraction(total, 1 << top)}",
                f"profile cap {Fraction(num, 1 << e)}",
            )
    return "PASS", "-", "-"


def _old_standard_form_table(f):
    """The former loop of ``standard_form``: each of the 2^b points read
    through an inner loop over the b blocks."""
    rep = table_measures(f.n, f.table).bs
    zidx = sum(bit << i for i, bit in enumerate(rep.witness_input))
    block_masks = [sum(1 << (i - 1) for i in blk) for blk in rep.witness_blocks]
    flipped = f.bit(zidx) == 1
    table = 0
    for y in range(1 << rep.bs):
        idx = zidx
        for j in range(rep.bs):
            if (y >> j) & 1:
                idx ^= block_masks[j]
        table |= (f.bit(idx) ^ flipped) << y
    return table


def test_doubled_loops_match_the_former_per_point_loops():
    rng = random.Random(20261026)
    verdicts, witness_values = set(), set()
    for n in range(4, 11):
        for _ in range(3):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            rec = table_measures(n, f.table)
            # forced sens_i that fail one test or the other: all 0 (a lone
            # coordinate exceeds the size-1 cap 1/4, a pair reaches 3/2),
            # one low coordinate among high ones, and all 3 (seven
            # coordinates exceed the size-7 cap 13/16)
            forced = ((0,) * n, (1,) + (6,) * (n - 1), (3,) * n)
            for sens in (rec.sens_i, tuple(rng.randint(0, 4) for _ in range(n))) + forced:
                probe = SimpleNamespace(n=n, sens_i=sens, support=rec.support)
                got = verify._check_monomial_potential(probe)
                want = _old_monomial_potential(probe, mobius_vector(n, f.table))
                assert got == want, (n, hex(f.table), sens)
                verdicts.add(got[2])
            g = standard_form(f)
            assert g.table == _old_standard_form_table(f), (n, hex(f.table))
            witness_values.add(f.evaluate(rec.bs.witness_input))
    # both failure details and the pass are met, and witnesses of both values
    assert {"3/2", "-"} <= verdicts and any(v.startswith("profile cap") for v in verdicts)
    assert witness_values == {0, 1}


def _symmetrized_by_mobius(n, table):
    """The Moebius coefficients summed by |S|, trailing zeros dropped."""
    out = [0] * (n + 1)
    for mask, c in enumerate(mobius_vector(n, table)):
        out[mask.bit_count()] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _pairs_by_mobius(n, table):
    mob = mobius_vector(n, table)
    return [mob[1 << i | 1 << j] for i in range(n) for j in range(i + 1, n)]


def test_weight_popcounts_match_the_mobius_sums():
    # every table of at most 4 inputs, then seeded tables up to 12 inputs
    # and the standard forms of some of them
    rng = random.Random(3707)
    tables = [(n, t) for n in range(5) for t in range(1 << (1 << n))]
    tables += [(n, rng.getrandbits(1 << n)) for n in range(5, 13) for _ in range(4)]
    tables += [(n, (1 << (1 << n)) - 1) for n in range(5, 13)]
    for n in range(5, 9):
        g = standard_form(BooleanFunction(n, rng.getrandbits(1 << n)))
        tables.append((g.n, g.table))
    for n, table in tables:
        assert verify._symmetrized(n, table) == _symmetrized_by_mobius(n, table), (n, table)
        assert verify._pair_coefficients(n, table) == _pairs_by_mobius(n, table), (n, table)


# ---------------------------------------------------------------------------
# the top_monomial_deg_i row: the support at size deg, not every mask
# ---------------------------------------------------------------------------

def _top_monomial_full_scan(rec):
    """The top_monomial_deg_i row by a walk over all 2^n masks and each
    mask's coordinates in order: the oracle of the support walk."""
    d = rec.deg
    if d == 0:
        return "PASS", 0, 0
    for mask, c in enumerate(mobius_vector(rec.n, rec.table)):
        if c and mask.bit_count() == d:
            for i in range(rec.n):
                if mask >> i & 1 and rec.deg_i[i] != d:
                    return "FAIL", f"mask={mask:#x} i={i + 1}", f"deg_i != {d}"
    return "PASS", "-", "-"


def test_top_monomial_row_matches_the_full_scan_on_forged_records():
    # deg_i forged one low at one coordinate, or at every coordinate, with
    # deg read first: each FAIL row, mask and coordinate included, is the
    # full scan's, and so is each PASS row
    rng = random.Random(564)
    tables = [(n, rng.getrandbits(1 << n)) for n in range(1, 10) for _ in range(3)]
    tables += [(f.n, f.table) for f in (family("MAJ", 5), family("ADDR", 2), family("AND", 4))]
    tables += [(3, 0), (4, 0x8000), (12, rng.getrandbits(1 << 12))]
    fails = 0
    for n, t in tables:
        rec = TableMeasures(n, t)
        assert verify._check_top_monomial_deg_i(rec) == _top_monomial_full_scan(rec)
        for lowered in [(i,) for i in range(n)] + [tuple(range(n))]:
            rec = TableMeasures(n, t)
            rec.deg
            vars(rec)["deg_i"] = tuple(k - (i in lowered) for i, k in enumerate(rec.deg_i))
            row = verify._check_top_monomial_deg_i(rec)
            assert row == _top_monomial_full_scan(rec), (n, t, lowered)
            fails += row[0] == "FAIL"
    assert fails > 50


def test_standard_form_row_symmetrises_once(monkeypatch):
    # the row and its lemmas share one symmetrised polynomial of g
    symmetrized = verify._symmetrized
    calls = []

    def counted(n, table):
        calls.append((n, table))
        return symmetrized(n, table)

    monkeypatch.setattr(verify, "_symmetrized", counted)
    for f in (family("MAJ", 3), family("KUSHILEVITZ"), family("OR", 4), family("ADDR", 2)):
        calls.clear()
        assert verify._check_standard_form(table_measures(f.n, f.table))[0] == "PASS"
        g = standard_form(f)
        assert calls == [(g.n, g.table)]
        calls.clear()
        assert check_standard_form_lemmas(g).passed
        assert calls == [(g.n, g.table)]
