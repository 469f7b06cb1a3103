import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfc import coordinate, measures
from bfc.bf import (
    ArityError,
    BooleanFunction,
    diff_mask,
    family,
    fourier_vector,
    mobius_vector,
    restrict_bit,
)
from bfc.bounds import _pow2_sum_sign
from bfc.corpus import parse_corpus
from bfc.measures import TableMeasures, table_measures
from bfc.coordinate import (
    _influence_violation,
    _kind_values,
    _monomial_sens_violation,
    _rrcm_violation,
    ALL_BASE_KINDS,
    CERT_I,
    DEG_I,
    SENS_I,
    STANDARD_KINDS,
    CoordinateMeasureKind,
    cert_i,
    check_rrcm,
    deg_i,
    mix_cs,
    mix_ds,
    potential,
    sens_i,
)

DICT1 = family("DICT", 1)
OR2 = family("OR", 2)
MAJ3 = family("MAJ", 3)


def test_kind_validation():
    with pytest.raises(ValueError):
        CoordinateMeasureKind("deg", Fraction(1, 2))
    with pytest.raises(ValueError):
        mix_ds(Fraction(3, 2))
    with pytest.raises(ValueError):
        CoordinateMeasureKind("bogus")


def test_deg_i_examples():
    assert deg_i(DICT1, 1) == 1
    assert deg_i(OR2, 1) == 2
    assert deg_i(family("CONST0", 3), 2) == 0
    # coordinate 3 of a 2-junta padded to 3 inputs
    padded = BooleanFunction(3, OR2.table | (OR2.table << 4))
    assert deg_i(padded, 3) == 0


def test_sens_i_examples():
    assert sens_i(DICT1, 1) == 2
    assert sens_i(OR2, 1) == 3
    assert sens_i(family("CONST1", 2), 1) == 0


def test_cert_i_examples():
    assert cert_i(DICT1, 1) == 2
    assert cert_i(OR2, 1) == 3
    assert cert_i(family("CONST0", 2), 2) == 0


def test_potential_examples():
    assert potential(DICT1, DEG_I).value == Fraction(1, 2)
    assert potential(DICT1, CERT_I).value == Fraction(1, 4)
    assert potential(OR2, DEG_I).value == Fraction(1, 2)


def test_mixed_potential_carries_error_bound():
    pv = potential(MAJ3, mix_ds(Fraction(1, 2)))
    assert not pv.exact
    assert pv.error_bound <= 1e-12
    # deg_i = 3 and sens_i = 4 on every coordinate: 3 * 2^-(3.5)
    assert abs(pv.value - 3 * 2 ** -3.5) < 1e-12


def test_potential_is_exact_iff_every_exponent_is_integral():
    import mpmath

    kinds = ALL_BASE_KINDS + (
        mix_ds(Fraction(1, 2)), mix_cs(Fraction(1, 2)), mix_ds(Fraction(1, 3)),
    )
    for _, f in parse_corpus("all:3"):
        for kind in kinds:
            pv = potential(f, kind)
            rel = f.relevant_variables()
            values = _kind_values(table_measures(f.n, f.table), kind)
            ms = [Fraction(values[i - 1]) for i in rel]
            assert pv.exact == all(m.denominator == 1 for m in ms)
            if pv.exact:
                assert pv.value == sum(Fraction(1, 2 ** m.numerator) for m in ms)
                continue
            with mpmath.workdps(60):
                ref = sum(mpmath.power(2, -mpmath.mpf(m.numerator) / m.denominator) for m in ms)
                assert abs(pv.value - ref) < 1e-15


def test_potential_report_format():
    lines = potential(OR2, DEG_I).format_lines()
    assert lines == ["1\t2/1\t1/4", "2\t2/1\t1/4", "total\t1/2"]


def test_check_rrcm_examples():
    assert check_rrcm(OR2, 1, DEG_I).passed
    assert check_rrcm(MAJ3, 1, SENS_I).passed
    padded = BooleanFunction(3, OR2.table | (OR2.table << 4))
    for kind in STANDARD_KINDS:
        assert check_rrcm(padded, 3, kind).passed  # vacuous: coordinate 3 idle


@given(st.integers(0, (1 << 16) - 1), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_rrcm_axioms_random_four_variable(table, i):
    f = BooleanFunction(4, table)
    for kind in STANDARD_KINDS:
        assert check_rrcm(f, i, kind).passed


@given(st.integers(0, (1 << 16) - 1))
@settings(max_examples=80, deadline=None)
def test_restriction_inequality_random(table):
    # the step of the potential argument for one restricted coordinate
    # follows from the axioms: fixing x_j either way never lowers the
    # average weight 2^-m_i of a relevant x_i, decided exactly as the sign
    # of w_0 + w_1 - 2 w (a branch that kills x_i weighs 0)
    rec = table_measures(4, table)
    for kind in STANDARD_KINDS + (mix_ds(Fraction(1, 3)), mix_cs(Fraction(2, 3))):
        assert _rrcm_violation(rec, (kind,), range(4)) is None
        vals = _kind_values(rec, kind)
        for j0 in range(4):
            subs = [table_measures(3, restrict_bit(table, 4, j0, b)) for b in (0, 1)]
            for i0 in range(4):
                if i0 == j0 or not rec.diffs[i0]:
                    continue
                ii = i0 - (i0 > j0)
                terms = [(-2, -vals[i0])] + [
                    (1, -_kind_values(sub, kind)[ii]) for sub in subs if sub.diffs[ii]
                ]
                assert _pow2_sum_sign(terms) >= 0, (table, kind, i0, j0)


def test_influence_bound_examples():
    for f, kind in ((OR2, DEG_I), (DICT1, SENS_I), (family("CONST0", 3), CERT_I)):
        assert _influence_violation(table_measures(f.n, f.table), kind) is None


@pytest.mark.parametrize(
    "beta, f",
    [
        (Fraction(1, 2), BooleanFunction(2, 0b0110)),
        (Fraction(1, 3), BooleanFunction(3, 0b11000)),
    ],
)
def test_influence_bound_is_exact_at_a_forced_tie(monkeypatch, beta, f):
    # sens_1 is forced so that 2^-m_1 = 2^-r * Inf_1 exactly (a tie, which
    # passes), then one lower (which fails) and one higher (which passes);
    # the other coordinates pass
    import mpmath

    kind = mix_ds(beta)
    r = coordinate._dictator_floor(kind)
    rec = table_measures(f.n, f.table)
    deg1 = rec.deg_i[0]
    cnt = rec.inf_counts[0]
    log_cnt = cnt.bit_length() - 1
    assert cnt == 1 << log_cnt
    tie = (f.n + r - beta * deg1 - log_cnt) / (1 - beta)
    assert tie.denominator == 1
    tie = tie.numerator
    for sens1 in (tie, tie - 1, tie + 1):
        fails = sens1 < tie
        monkeypatch.setattr(
            TableMeasures, "sens_i", property(lambda r: (sens1,) + (2 * r.n + 9,) * (r.n - 1))
        )
        m = beta * deg1 + (1 - beta) * sens1
        with mpmath.workdps(60):
            lhs = mpmath.power(2, -mpmath.mpf(m.numerator) / m.denominator)
            rhs = (
                mpmath.power(2, -mpmath.mpf(r.numerator) / r.denominator)
                * cnt / mpmath.mpf(1 << f.n)
            )
            assert (lhs > rhs * (1 + mpmath.mpf(10) ** -50)) == fails
            assert sens1 != tie or abs(lhs - rhs) < mpmath.mpf(10) ** -55
        assert (_influence_violation(rec, kind) == 0) == fails


def _reference_monomial_sens(n, table, sens):
    """The per-k scan: first (k, basis, mask, count) over k = 1..6."""
    spectra = [
        (name, [mask for mask, c in enumerate(vector(n, table)) if c])
        for name, vector in (("monomial", mobius_vector), ("spectral", fourier_vector))
    ]
    for k in range(1, 7):
        low = [i for i in range(n) if sens[i] <= k]
        for name, masks in spectra:
            for mask in masks:
                cnt = sum(1 for i in low if (mask >> i) & 1)
                if cnt > (k - 1) ** 2:
                    return k, name, mask, cnt
    return None


def test_monomial_sens_one_pass_matches_the_per_k_scan(monkeypatch):
    # true sens_i never fail, so random ones stand in to reach every k, and
    # forced ones pass k = 1, 2 (and 3) to reach k = 3 and 4 on the larger
    # monomials of the seeded tables of 7-12 inputs
    rng = random.Random(11)
    tables = [(n, t) for n in (2, 3) for _, f in parse_corpus(f"all:{n}") for t in [f.table]]
    tables += [(n, rng.getrandbits(1 << n)) for n in (4, 5, 6) for _ in range(30)]
    wide = random.Random(37)
    tables += [(n, wide.getrandbits(1 << n)) for n in range(7, 13) for _ in range(2)]
    hits = set()
    for n, table in tables:
        rec = table_measures(n, table)
        drawn = [tuple(rng.randint(0, 7) for _ in range(n)) for _ in range(4)]
        for sens in [rec.sens_i] + drawn + [(2,) + (3,) * (n - 1), (4,) * n]:
            monkeypatch.setattr(TableMeasures, "sens_i", property(lambda r, s=sens: s))
            ref = _reference_monomial_sens(n, table, sens)
            # the reference scans both bases; the monomial one always decides
            if ref is not None:
                k, basis, mask, cnt = ref
                assert basis == "monomial", (n, table, sens)
                ref = k, mask, cnt
                hits.add(k)
            assert _monomial_sens_violation(rec, range(1, 7)) == ref, (n, table, sens)
            monkeypatch.undo()
    assert hits == {1, 2, 3, 4}


def _fourier_sets_covered(n, table, monomials):
    """Whether every nonempty Fourier support set of 1 - 2f lies inside
    some mask of ``monomials``."""
    return all(
        any(s & ~m == 0 for m in monomials)
        for s, w in enumerate(fourier_vector(n, table)) if s and w
    )


def test_every_fourier_support_set_lies_inside_a_monomial():
    # the lemma that lets _monomial_sens_violation scan the Moebius basis alone
    rng = random.Random(26)
    tables = list(_lemma_corpus())
    tables += [(n, rng.getrandbits(1 << n)) for n in (5, 6, 7, 8) for _ in range(10)]
    for n, table in tables:
        support = [m for m, c in enumerate(mobius_vector(n, table)) if c]
        assert _fourier_sets_covered(n, table, support), (n, table)
        # the largest monomial lies in no other, so it is a Fourier set too:
        # without it the check fails on every nonconstant table
        if support and support[-1]:
            assert not _fourier_sets_covered(n, table, support[:-1]), (n, table)


def test_monomial_sensitivity_examples():
    # k = 1 forces a zero count: relevant coordinates have sens_i >= 2
    for f, k in ((MAJ3, 1), (MAJ3, 4), (family("KUSHILEVITZ"), 6)):
        assert _monomial_sens_violation(table_measures(f.n, f.table), (k,)) is None


def test_c_potential_below_half_on_three_variables():
    for t in range(1 << 8):
        f = BooleanFunction(3, t)
        assert potential(f, CERT_I).value <= Fraction(1, 2)


def test_top_monomial_coordinates_have_full_deg_i():
    from bfc.measures import degree

    for t in range(1 << 8):
        f = BooleanFunction(3, t)
        d = degree(f)
        if d == 0:
            continue
        for mask, c in enumerate(mobius_vector(3, t)):
            if c and mask.bit_count() == d:
                for i in range(3):
                    if mask >> i & 1:
                        assert deg_i(f, i + 1) == d


def _lemma_corpus():
    """Every table of all:3 and monotone:4, as (n, table)."""
    for spec in ("all:3", "monotone:4"):
        for _, f in parse_corpus(spec):
            yield f.n, f.table


def test_rrcm_mixes_pass_where_base_kinds_pass():
    # the theorem suite checks only DEG, SENS and CERT; this pins the lemma
    # that lets it skip the mixes
    mixes = [
        mix(beta)
        for mix in (mix_ds, mix_cs)
        for beta in (Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(1))
    ]
    checked = 0
    for n, t in _lemma_corpus():
        rec = table_measures(n, t)
        if _rrcm_violation(rec, ALL_BASE_KINDS, range(n)):
            continue
        checked += 1
        for kind in mixes:
            assert _rrcm_violation(rec, (kind,), range(n)) is None, (n, t, kind)
    assert checked == 256 + 168


def _reference_rrcm(rec, kinds, coords):
    """The record-reading rrcm kernel: both restrictions of each j0 built as
    records, and each kind's values read off them; first (kind, i0, j0, b,
    axiom) in the order of kinds, then j0, then i0 in coords, then b."""
    coords = tuple(coords)
    n, table = rec.n, rec.table
    vals = []
    capped = None
    for kind in kinds:
        try:
            vals.append(_kind_values(rec, kind))
        except ArityError as err:
            capped = err
            break
    if not vals and capped is not None:
        raise capped
    js = [j0 for j0 in range(n) if any(i0 != j0 for i0 in coords)]
    subs = [[table_measures(n - 1, restrict_bit(table, n, j0, b)) for b in (0, 1)] for j0 in js]
    hit = None
    live = len(vals)  # the kinds before the first one found failing
    for j0, pair in zip(js, subs):
        for k in range(live):
            found = _reference_axiom_hit(rec.diffs, vals[k], pair, kinds[k], j0, coords)
            if found:
                hit = (kinds[k], *found)
                live = k
                break
        if not live:
            break
    if hit is None and capped is not None:
        raise capped
    return hit


def _reference_axiom_hit(diffs, vals, pair, kind, j0, coords):
    """First (i0, j0, b, axiom) of ``_reference_rrcm`` at one j0, whose two
    restriction records are ``pair``; ``vals`` are f's values of ``kind``."""
    sub_vals = [_kind_values(sub, kind) for sub in pair]
    for i0 in coords:
        if i0 == j0:
            continue
        ii = i0 - 1 if i0 > j0 else i0  # index of i0 once j0 is removed
        m_f = vals[i0]
        for b in (0, 1):
            if sub_vals[b][ii] > m_f:
                return i0, j0, b, "axiom1"
            if diffs[i0] and not pair[b].diffs[ii] and sub_vals[1 - b][ii] > m_f - 1:
                return i0, j0, b, "axiom2"
    return None


_RRCM_KIND_LISTS = [ALL_BASE_KINDS] + [
    (mix(beta),) for mix in (mix_ds, mix_cs)
    for beta in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
]


def test_rrcm_kernel_matches_the_record_reading_kernel():
    # true measures never fail, so the lane tests must pass exactly where
    # the reference passes: every kind list on all:3 and on the orbit
    # representatives of monotone:5, the base kinds on those of all:4 and
    # on seeded random tables of 6..10 inputs
    tables = [(f.n, f.table, True) for _, f in parse_corpus("all:3")]
    for spec, mixes in (("monotone:5", True), ("all:4", False)):
        tables += [(f.n, f.table, mixes) for _, f, _ in parse_corpus(spec).representatives()]
    rng = random.Random(30)
    tables += [(n, rng.getrandbits(1 << n), False) for n in range(6, 11) for _ in range(4)]
    for n, t, mixes in tables:
        rec = table_measures(n, t)
        for kinds in _RRCM_KIND_LISTS if mixes else _RRCM_KIND_LISTS[:1]:
            assert _rrcm_violation(rec, kinds, range(n)) is None, (n, t, kinds)
            assert _reference_rrcm(rec, kinds, range(n)) is None, (n, t, kinds)


def test_rrcm_kernel_matches_the_reference_on_lowered_records():
    # 3,000 records, each with its own deg_i, sens_i or cert_i lowered at
    # one coordinate by 1..3 (to -1 at most): the first hit, its kind, i,
    # j, b and axiom, must be the reference's for the base kinds, over every
    # coordinate and over one coordinate alone, and for one mix
    rng = random.Random(3000)
    tables = list(_lemma_corpus())
    while len(tables) < 3000:
        n = rng.randrange(2, 6)
        t = rng.getrandbits(1 << n)
        if rng.randrange(2):  # a sparse table, where coordinates drop out
            t &= rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
        tables.append((n, t))
    hits = 0
    for r, (n, t) in enumerate(tables):
        field = ("deg_i", "sens_i", "cert_i")[r % 3]
        rec = TableMeasures(n, t)
        vals = getattr(rec, field)
        i0 = rng.randrange(n)
        vars(rec)[field] = vals[:i0] + (max(vals[i0] - rng.randint(1, 3), -1),) + vals[i0 + 1:]
        mix = rng.choice(_RRCM_KIND_LISTS[1:])
        for kinds, coords in (
            (ALL_BASE_KINDS, range(n)), (ALL_BASE_KINDS, (rng.randrange(n),)), (mix, range(n)),
        ):
            want = _reference_rrcm(rec, kinds, coords)
            assert _rrcm_violation(rec, kinds, coords) == want, (n, t, field, kinds, coords)
            hits += want is not None
    assert hits > 2500, hits


def test_rrcm_branch_values_are_the_restriction_records():
    # the per-branch deg_i, sens_i and cert_i the kernel reads off f's own
    # record (its Moebius support, and the blocks of branch_sens_lanes and
    # branch_cert_lanes), at every (i, j, b), against the records of the
    # restrictions themselves
    rng = random.Random(2026)
    tables = list(_lemma_corpus())
    tables += [(n, rng.getrandbits(1 << n)) for n in range(6, 11) for _ in range(3)]
    tables += [(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n)) for n in range(6, 11)]
    for n, t in tables:
        rec = TableMeasures(n, t)
        axioms = coordinate._Axioms(rec, tuple(range(n)))
        for j in range(n):
            for b in (0, 1):
                sub = table_measures(n - 1, restrict_bit(t, n, j, b))
                for tag in ("deg", "sens", "cert"):
                    got = [axioms._base(tag, i, j, b) for i in range(n) if i != j]
                    assert tuple(got) == getattr(sub, f"{tag}_i"), (n, t, j, b, tag)


def _degree_of_vector(coeffs):
    """The largest |S| with coeffs[S] != 0, by a walk over every mask."""
    deg = 0
    for m, c in enumerate(coeffs):
        if c:
            deg = max(deg, m.bit_count())
    return deg


def _reference_deg_i_all(n, table):
    """deg_i by definition: the Moebius transform of f(x) - f(x^i), per coordinate."""
    out = []
    for i in range(n):
        if not diff_mask(table, n, i):
            out.append(0)
            continue
        bit = 1 << i
        g = [((table >> x) & 1) - ((table >> (x ^ bit)) & 1) for x in range(1 << n)]
        for j in range(n):
            bj = 1 << j
            for m in range(1 << n):
                if m & bj:
                    g[m] -= g[m ^ bj]
        out.append(_degree_of_vector(g))
    return tuple(out)


def _select(a, g, b, h):
    """The table of g(x_2..x_a+1) where x_1 = 0 and h(x_a+2..x_a+b+1) where
    x_1 = 1; its deg_i is deg_i(g) + 1 or deg_i(h) + 1 off the selector."""
    return sum(
        ((h >> (x >> (a + 1)) if x & 1 else g >> ((x >> 1) & ((1 << a) - 1))) & 1) << x
        for x in range(1 << (1 + a + b))
    )


def test_deg_i_matches_per_coordinate_transform():
    tables = [(n, t) for n in range(4) for t in range(1 << (1 << n))]
    tables += [(f.n, f.table) for _, f in parse_corpus("monotone:4")]
    rng = random.Random(20261018)
    tables += [(n, rng.getrandbits(1 << n)) for n in range(6, 13) for _ in range(4 if n < 11 else 1)]
    # below full degree at n = 11 and 12: ADDR 3 (degree 4), a random 5-input
    # table padded to 12 inputs, and a selector between random tables of
    # 4 and 6 inputs (n = 11) and of 5 and 6 inputs (n = 12)
    addr = family("ADDR", 3)
    tables.append((addr.n, addr.table))
    tables.append((12, rng.getrandbits(32) * (((1 << 4096) - 1) // ((1 << 32) - 1))))
    tables.append((11, _select(4, rng.getrandbits(16), 6, rng.getrandbits(64))))
    tables.append((12, _select(5, rng.getrandbits(32), 6, rng.getrandbits(64))))
    for n, t in tables:
        assert table_measures(n, t).deg_i == _reference_deg_i_all(n, t), (n, t)


def test_size_levels_mark_the_masks_of_each_size():
    for n in range(11):
        levels = measures._size_levels(n)
        assert len(levels) == n + 1
        for k, level in enumerate(levels):
            assert level == sum(1 << m for m in range(1 << n) if m.bit_count() == k), (n, k)


def test_deg_is_the_largest_deg_i():
    for n in range(13):
        for name in ("CONST0", "CONST1"):
            rec = TableMeasures(n, family(name, n).table)
            assert (rec.deg, rec.deg_i) == (0, (0,) * n), (name, n)
    for n in range(1, 13):
        for name in ("AND", "PARITY"):
            rec = TableMeasures(n, family(name, n).table)
            assert rec.deg_i == (n,) * n and rec.deg == max(rec.deg_i) == n, (name, n)
    # ADDR 3 has degree 4 on all 11 inputs; a padded junta keeps its degree
    rec = TableMeasures(11, family("ADDR", 3).table)
    assert rec.deg_i == (4,) * 11 and rec.deg == 4
    rec = TableMeasures(6, OR2.table * 0x1111_1111_1111_1111)
    assert rec.deg_i == (2, 2, 0, 0, 0, 0) and rec.deg == 2
