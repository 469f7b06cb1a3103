import ast
import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfc.bf
from bfc.bf import (
    MAX_ARITY,
    PERMUTATION_MAX_ARITY,
    ArityError,
    BooleanFunction,
    PartialAssignment,
    family,
    fourier_vector,
    mobius_support,
    mobius_vector,
)
from bfc.bounds import CapProfile, cap_profile
from bfc import coordinate
from bfc.coordinate import CoordinateMeasureKind, mix_ds
from bfc.corpus import ALL_ENUM_MAX_ARITY, MONOTONE_ENUM_MAX_ARITY, Corpus, parse_corpus
from bfc.lp import LinearProgram, adeg_lp
from bfc.measures import (
    APPROX_DEGREE_MAX_ARITY,
    EXACT_SEARCH_MAX_ARITY,
    approx_degree,
    block_sensitivity,
    certificate_complexity,
    degree,
    dt_depth,
    table_measures,
)
from bfc.verify import dt_doubling_family


def random_function(draw_n=(0, 4)):
    return st.integers(*draw_n).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
            lambda t: BooleanFunction(n, t)
        )
    )


# --- evaluate -----------------------------------------------------------

def test_evaluate_or2():
    or2 = family("OR", 2)
    assert or2.evaluate((0, 0)) == 0
    assert or2.evaluate((1, 0)) == 1
    assert or2.evaluate((0, 1)) == 1


def test_evaluate_parity3():
    assert family("PARITY", 3).evaluate((1, 1, 1)) == 1


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        family("OR", 2).evaluate((1,))


def test_index_convention_coordinate1_is_lsb():
    # table bit at index x1 + 2 x2
    f = BooleanFunction(2, 0b0010)
    assert f.evaluate((1, 0)) == 1
    assert f.evaluate((0, 1)) == 0


# --- restrict ------------------------------------------------------------

def test_restrict_or2():
    or2 = family("OR", 2)
    assert or2.restrict([(2, 1)]) == BooleanFunction(1, 0b11)  # constant 1
    assert or2.restrict([(2, 0)]) == family("DICT", 1)


def test_restrict_maj3_gives_or2():
    assert family("MAJ", 3).restrict([(3, 1)]) == family("OR", 2)
    assert family("MAJ", 3).restrict([(3, 0)]) == family("AND", 2)


def test_restrict_rejects_duplicates_and_range():
    f = family("MAJ", 3)
    with pytest.raises(ValueError):
        f.restrict([(1, 0), (1, 1)])
    with pytest.raises(ValueError):
        f.restrict([(4, 0)])


def test_partial_assignment_validation():
    with pytest.raises(ValueError):
        PartialAssignment([(0, 1)])
    with pytest.raises(ValueError):
        PartialAssignment([(1, 2)])


# the package's immutable value types: one field of each, and two equal
# values built by different routes
@pytest.mark.parametrize(
    "field, a, b",
    [
        ("tag", mix_ds(Fraction(1, 2)), mix_ds("1/2")),
        ("pairs", PartialAssignment([(2, 1), (1, 0)]), PartialAssignment(((2, True), (1, 0)))),
        ("count", parse_corpus("random:3:5:1"), Corpus("random", 3, 5, 1)),
        (
            "num_vars",
            LinearProgram.build(1, [((1,), "<=", 2)]),
            LinearProgram.build(1, [([Fraction(1)], "<=", Fraction(4, 2))]),
        ),
        ("mode", cap_profile("lp"), CapProfile("lp")),
    ],
    ids=["CoordinateMeasureKind", "PartialAssignment", "Corpus", "LinearProgram", "CapProfile"],
)
def test_value_types_are_immutable_and_hash_by_value(field, a, b):
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "found"}[b] == "found"
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CoordinateMeasureKind("bogus"), "unknown coordinate measure 'bogus'"),
        (lambda: CoordinateMeasureKind("deg", Fraction(1, 2)), "deg takes no mixing weight"),
        (lambda: Corpus("bogus"), "unknown corpus kind 'bogus'"),
        (lambda: Corpus("random", 3, -1), "corpus random:3:-1:0 needs a count >= 0"),
        (lambda: LinearProgram(-1, ()), "num_vars must be >= 0, got -1"),
        (
            # Bareiss's exact // would floor a Fraction entry silently
            lambda: LinearProgram(1, [((Fraction(1, 2),), 1)]),
            "LinearProgram rows take int entries; "
            "rational constraints go through LinearProgram.build",
        ),
        (
            lambda: PartialAssignment([(1, 0), (1, 1)]),
            "duplicate coordinates in assignment: [1, 1]",
        ),
    ],
    ids=[
        "unknown-tag", "beta-on-deg", "corpus-kind", "negative-count", "lp-vars", "lp-entries",
        "duplicates",
    ],
)
def test_value_types_keep_their_validation(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, (1 << (1 << n)) - 1),
            st.integers(1, n),
            st.integers(0, 1),
        )
    )
)
def test_restrict_is_subsampling(args):
    n, t, j, b = args
    f = BooleanFunction(n, t)
    g = f.restrict([(j, b)])
    assert g.n == n - 1
    for idx in range(1 << (n - 1)):
        bits = [(idx >> i) & 1 for i in range(n - 1)]
        full = bits[: j - 1] + [b] + bits[j - 1:]
        assert g.evaluate(bits) == f.evaluate(full)


# --- relevant variables ---------------------------------------------------

def test_relevant_variables():
    assert family("CONST0", 5).relevant_variables() == frozenset()
    assert family("OR", 2).relevant_variables() == {1, 2}
    assert family("MAF", 3).relevant_variables() == {1, 2, 3, 4, 5, 6}


# --- transforms -----------------------------------------------------------

def test_mobius_or2():
    # coefficients of the empty set, {1}, {2} and {1, 2}
    assert mobius_vector(2, family("OR", 2).table) == [0, 1, 1, -1]


def test_mobius_dictator():
    assert mobius_vector(2, family("DICT", 2).table) == [0, 1, 0, 0]


def test_mobius_kushilevitz_matches_defining_polynomial():
    # x1 + ... + x6 minus every pair plus ten cubics
    cubics = (
        (1, 3, 4), (1, 2, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        (1, 2, 6), (1, 3, 6), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    )
    expected = [0] * 64
    for i in range(6):
        expected[1 << i] = 1
        for j in range(i + 1, 6):
            expected[(1 << i) | (1 << j)] = -1
    for a, b, c in cubics:
        expected[(1 << (a - 1)) | (1 << (b - 1)) | (1 << (c - 1))] = 1
    assert mobius_vector(6, family("KUSHILEVITZ").table) == expected


# fourier_vector holds 2^n times each coefficient, in the ±1 convention
# (input/output 0 -> +1, 1 -> -1)

def test_fourier_parity2():
    # with inputs mapped 0 -> +1 as well, the parity of two bits is exactly
    # the product character, so the single coefficient is +1
    assert fourier_vector(2, family("PARITY", 2).table) == [0, 0, 0, 4]


def test_fourier_constants():
    assert fourier_vector(2, 0)[0] == 4
    assert fourier_vector(2, family("CONST1", 2).table)[0] == -4


def test_fourier_maj3_symmetry_and_parseval():
    w = fourier_vector(3, family("MAJ", 3).table)
    assert w[0b001] == w[0b010] == w[0b100]
    assert sum(c * c for c in w) == 8 ** 2


@given(st.integers(0, 3).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: (n, t))
))
def test_mobius_roundtrip_and_parseval(args):
    n, t = args
    f = BooleanFunction(n, t)
    v = mobius_vector(n, t)
    for idx in range(1 << n):
        bits = [(idx >> i) & 1 for i in range(n)]
        # over {0,1} a monomial is 1 iff its subset lies inside the support
        assert sum(c for m, c in enumerate(v) if m & ~idx == 0) == f.evaluate(bits)
    w = fourier_vector(n, t)
    assert sum(c * c for c in w) == 4 ** n


def _substitute(v, n, j, b):
    """Coefficients after x_j = b in the polynomial with coefficients v;
    the coordinates above j move down by one."""
    bit = 1 << (j - 1)
    out = [0] * (1 << (n - 1))
    for m, c in enumerate(v):
        if m & bit:
            if not b:
                continue
            m ^= bit
        out[(m & (bit - 1)) | ((m >> 1) & ~(bit - 1))] += c
    return out


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, (1 << (1 << n)) - 1),
            st.integers(1, n),
            st.integers(0, 1),
        )
    )
)
def test_restriction_commutes_with_mobius(args):
    n, t, j, b = args
    direct = mobius_vector(n - 1, BooleanFunction(n, t).restrict([(j, b)]).table)
    assert direct == _substitute(mobius_vector(n, t), n, j, b)


def _list_mobius(n, table):
    """The in-place butterfly over a list of the 2**n values that the lane
    transform replaced, one Python step per mask and coordinate."""
    v = [(table >> x) & 1 for x in range(1 << n)]
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                v[m] -= v[m ^ bit]
    return v


def _check_lane_mobius(n, t):
    """The lane transform and its support against the list butterfly."""
    v = _list_mobius(n, t)
    assert mobius_vector(n, t) == v, (n, t)
    assert mobius_support(n, t) == sum(1 << m for m, c in enumerate(v) if c), (n, t)
    return v


@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))
))
@settings(max_examples=100, deadline=None)
def test_lane_mobius_matches_the_list_butterfly(args):
    _check_lane_mobius(*args)


def test_lane_mobius_matches_the_list_butterfly_seeded():
    # 16-bit lanes up to n = 15 and 32-bit lanes above; PARITY and its
    # negation reach the largest coefficients, |c_S| = 2**(|S|-1), with both
    # signs at S = [n], and c_[n] = +-2**(n-1) has a zero low byte
    rng = random.Random(20261019)
    for n in range(10, 17):
        _check_lane_mobius(n, rng.getrandbits(1 << n))
    for n in (14, 15, 16):
        parity = family("PARITY", n).table
        for t in (parity, parity ^ ((1 << (1 << n)) - 1)):
            v = _check_lane_mobius(n, t)
            assert max(map(abs, v)) == abs(v[-1]) == 1 << (n - 1)
    # supports known in closed form: PARITY has c_S = (-2)**(|S|-1) for
    # every S != {} (at n = 17 c_[17] = 2**16 lies in the third byte of its
    # lane), its negation adds c_{} = 1, AND has only c_[n] = 1, OR has
    # c_S = +-1 for every S != {}, and MAJ 3 padded to n inputs is
    # x1x2 + x1x3 + x2x3 - 2x1x2x3, the masks 3, 5, 6 and 7
    for n in (14, 15, 16, 17):
        full = (1 << (1 << n)) - 1
        parity = family("PARITY", n).table
        assert mobius_support(n, parity) == mobius_support(n, family("OR", n).table) == full - 1
        assert mobius_support(n, parity ^ full) == full
        assert mobius_support(n, family("AND", n).table) == 1 << ((1 << n) - 1)
        assert mobius_support(n, 0xE8 * (full // 0xFF)) == 0xE8


def _list_fourier(n, table):
    """The in-place Walsh-Hadamard butterfly over a list of the 2**n values
    +-1 that the lane transform replaced, one Python step per mask and
    coordinate."""
    v = [1 - 2 * ((table >> x) & 1) for x in range(1 << n)]
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                a, b = v[m ^ bit], v[m]
                v[m ^ bit], v[m] = a + b, a - b
    return v


def test_lane_fourier_matches_the_list_butterfly():
    # 16-bit lanes up to n = 14 and 32-bit lanes above; the constants and
    # PARITY reach |w_S| = 2**n, the most a lane holds, with both signs
    rng = random.Random(20261020)
    for n in range(17):
        full = (1 << (1 << n)) - 1
        for t in (0, full, rng.getrandbits(1 << n)):
            assert fourier_vector(n, t) == _list_fourier(n, t), (n, t)
    for n in (14, 15, 16):
        parity = family("PARITY", n).table
        assert fourier_vector(n, parity)[-1] == 1 << n
        assert fourier_vector(n, parity ^ ((1 << (1 << n)) - 1))[-1] == -1 << n
    members = [
        ("AND", 16), ("OR", 15), ("DICT", 14), ("PARITY", 13), ("MAJ", 13), ("MAJ", 15),
        ("ADDR", 3), ("MAF", 3), ("MAF", 5), ("KUSHILEVITZ", None),
    ]
    for name, k in members:
        f = family(name, k)
        assert fourier_vector(f.n, f.table) == _list_fourier(f.n, f.table), (name, k)


# --- families --------------------------------------------------------------

def test_kushilevitz_boolean_valued():
    f = family("KUSHILEVITZ")
    assert f.n == 6
    assert set(f.bits()) <= {0, 1}


def test_maf3_monotone():
    f = family("MAF", 3)
    assert f.n == 6
    assert f.is_monotone()


def test_maf5_monotone():
    assert family("MAF", 5).is_monotone()


def test_addr_relevant_count():
    f = family("ADDR", 2)
    assert f.n == 6
    assert len(f.relevant_variables()) == 6


def test_whole_family_tables_equal_the_tabulated_rules():
    # the tables family() writes down whole, against the rule run per point
    rules = {
        "CONST0": lambda x: 0, "CONST1": lambda x: 1, "DICT": lambda x: x[0],
        "AND": all, "OR": any, "PARITY": lambda x: sum(x) & 1,
    }
    for name, rule in rules.items():
        for n in range(0 if name.startswith("CONST") else 1, 13):
            assert family(name, n) == BooleanFunction.from_callable(n, rule), (name, n)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        family("MAJ", 4)
    with pytest.raises(ValueError):
        family("MAF", 2)
    with pytest.raises(ArityError):
        family("MAF", 7)  # needs 42 inputs
    with pytest.raises(ValueError):
        family("KUSHILEVITZ", 3)
    with pytest.raises(ValueError):
        family("NOPE", 1)


@pytest.mark.parametrize("name, k", [("ADDR", 100_000_000_000), ("MAF", 10_000_001)])
def test_family_refuses_a_huge_k_before_computing_its_arity(name, k, monkeypatch):
    # ADDR's arity k + 2^k and MAF's k + C(k, k/2) are never computed
    def no_arity(_):
        raise AssertionError("arity computed past the cap")

    monkeypatch.setitem(bfc.bf._FAMILIES, name, bfc.bf._FAMILIES[name]._replace(arity=no_arity))
    with pytest.raises(ArityError, match=f"family {name} supports arity <= {MAX_ARITY}, got {k}"):
        family(name, k)


def test_monotonicity_checks():
    assert family("AND", 3).is_monotone()
    assert not family("PARITY", 2).is_monotone()


# --- composition and degree ---------------------------------------------------

def _compose(f, g):
    """f with an independent copy of g substituted for each input."""
    k, m = f.n, g.n
    table = 0
    for z in range(1 << (k * m)):
        idx = 0
        for i in range(k):
            idx |= g.bit((z >> (i * m)) & ((1 << m) - 1)) << i
        table |= f.bit(idx) << z
    return BooleanFunction(k * m, table)


def test_compose_parity():
    assert _compose(family("PARITY", 2), family("PARITY", 2)) == family("PARITY", 4)


def test_compose_dictator_identity():
    g = family("MAJ", 3)
    assert _compose(family("DICT", 1), g) == g


def test_compose_or_and_degree():
    h = _compose(family("OR", 2), family("AND", 2))
    assert h.n == 4
    assert degree(h) == 4


@given(
    st.tuples(
        st.integers(0, (1 << 4) - 1),
        st.integers(0, (1 << 8) - 1),
    )
)
@settings(max_examples=60)
def test_compose_multiplies_degree(tables):
    tf, tg = tables
    f, g = BooleanFunction(2, tf), BooleanFunction(3, tg)
    if degree(f) < 1 or degree(g) < 1:
        return
    assert degree(_compose(f, g)) == degree(f) * degree(g)


def test_compose_multiplies_degree_exhaustive_small():
    small = [
        BooleanFunction(n, t)
        for n in (1, 2)
        for t in range(1 << (1 << n))
    ]
    three = [BooleanFunction(3, t) for t in range(1 << 8)]
    small = [f for f in small if degree(f) >= 1]
    three_pos = [g for g in three if degree(g) >= 1]
    for f in small:
        for g in three_pos:
            assert degree(_compose(f, g)) == degree(f) * degree(g)
    for f in three_pos:
        for g in small:
            assert degree(_compose(f, g)) == degree(f) * degree(g)


# --- truth-table file format -------------------------------------------------

def test_tt_roundtrip():
    f = family("MAJ", 3)
    assert BooleanFunction.from_tt(f.to_tt()) == f
    assert f.to_tt() == "n=3\n00010111\n"


def test_tt_roundtrip_at_the_arity_cap():
    # PARITY 20, built a coordinate at a time
    t = 0
    for k in range(MAX_ARITY):
        t |= (t ^ ((1 << (1 << k)) - 1)) << (1 << k)
    f = BooleanFunction(MAX_ARITY, t)
    text = f.to_tt()
    assert text[:13] == "n=20\n01101001" and len(text) == len("n=20\n\n") + (1 << MAX_ARITY)
    assert BooleanFunction.from_tt(text) == f


@given(st.integers(0, 8).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: (n, t))
))
@settings(max_examples=100, deadline=None)
def test_one_pass_bit_reads_match_the_per_bit_definition(args):
    n, t = args
    per_bit = [(t >> x) & 1 for x in range(1 << n)]
    f = BooleanFunction(n, t)
    assert f.bits() == tuple(per_bit)
    assert f.to_tt() == f"n={n}\n{''.join(map(str, per_bit))}\n"
    # each Moebius coefficient by inclusion-exclusion over the subsets of m
    mobius = mobius_vector(n, t)
    for m in range(1 << n):
        s, total = m, 0
        while True:
            total += (-1) ** bin(m ^ s).count("1") * per_bit[s]
            if s == 0:
                break
            s = (s - 1) & m
        assert mobius[m] == total
    # the empty and the single-coordinate Fourier coefficients, by their sums
    fourier = fourier_vector(n, t)
    for m in (0, *(1 << i for i in range(n))):
        assert fourier[m] == sum(
            (1 - 2 * v) * (-1) ** bin(m & x).count("1") for x, v in enumerate(per_bit)
        )


def test_tt_rejects_bad_input():
    with pytest.raises(ValueError):
        BooleanFunction.from_tt("n=2\n011\n")
    with pytest.raises(ValueError):
        BooleanFunction.from_tt("m=2\n0110\n")
    with pytest.raises(ValueError):
        BooleanFunction.from_tt("n=1\n0x\n")
    with pytest.raises(ValueError, match="after the table line"):
        BooleanFunction.from_tt("n=2\n0110\n1111\n")
    with pytest.raises(ValueError, match="after the table line"):
        BooleanFunction.from_tt("n=2\n0110\ngarbage\n")
    # trailing blank lines stay accepted
    assert BooleanFunction.from_tt("n=2\n0110\n\n \n") == family("PARITY", 2)


def test_immutability():
    f = family("OR", 2)
    with pytest.raises(AttributeError):
        f.table = 0
    # the shared record keeps its Moebius support as an int; mobius_vector
    # hands out a fresh list on every call
    assert table_measures(f.n, f.table).support == 0b1110
    v = mobius_vector(f.n, f.table)
    v[0] = 5
    assert mobius_vector(f.n, f.table) == [0, 1, 1, -1]


# --- pinned family tables ------------------------------------------------------

# (n, table) of each family member from its least k up to 4 (ADDR up to 3);
# MAF 5 has 15 inputs and is pinned by the SHA-256 of its hex table
FAMILY_TABLES = {
    ("CONST0", 0): (0, 0x0), ("CONST0", 1): (1, 0x0), ("CONST0", 2): (2, 0x0),
    ("CONST0", 3): (3, 0x0), ("CONST0", 4): (4, 0x0),
    ("CONST1", 0): (0, 0x1), ("CONST1", 1): (1, 0x3), ("CONST1", 2): (2, 0xF),
    ("CONST1", 3): (3, 0xFF), ("CONST1", 4): (4, 0xFFFF),
    ("DICT", 1): (1, 0x2), ("DICT", 2): (2, 0xA), ("DICT", 3): (3, 0xAA),
    ("DICT", 4): (4, 0xAAAA),
    ("AND", 1): (1, 0x2), ("AND", 2): (2, 0x8), ("AND", 3): (3, 0x80),
    ("AND", 4): (4, 0x8000),
    ("OR", 1): (1, 0x2), ("OR", 2): (2, 0xE), ("OR", 3): (3, 0xFE),
    ("OR", 4): (4, 0xFFFE),
    ("PARITY", 1): (1, 0x2), ("PARITY", 2): (2, 0x6), ("PARITY", 3): (3, 0x96),
    ("PARITY", 4): (4, 0x6996),
    ("MAJ", 1): (1, 0x2), ("MAJ", 3): (3, 0xE8),
    ("ADDR", 1): (3, 0xE4), ("ADDR", 2): (6, 0xFEDCBA9876543210),
    ("ADDR", 3): (11, int(
        "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e0"
        "dfdedddcdbdad9d8d7d6d5d4d3d2d1d0cfcecdcccbcac9c8c7c6c5c4c3c2c1c0"
        "bfbebdbcbbbab9b8b7b6b5b4b3b2b1b0afaeadacabaaa9a8a7a6a5a4a3a2a1a0"
        "9f9e9d9c9b9a999897969594939291908f8e8d8c8b8a89888786858483828180"
        "7f7e7d7c7b7a797877767574737271706f6e6d6c6b6a69686766656463626160"
        "5f5e5d5c5b5a595857565554535251504f4e4d4c4b4a49484746454443424140"
        "3f3e3d3c3b3a393837363534333231302f2e2d2c2b2a29282726252423222120"
        "1f1e1d1c1b1a191817161514131211100f0e0d0c0b0a09080706050403020100",
        16,
    )),
    ("MAF", 1): (2, 0xE), ("MAF", 3): (6, 0xFEFCFAF8EEECEAE8),
    ("KUSHILEVITZ", None): (6, 0x8111053F035F777E),
}
MAF5_SHA256 = "ee17de7dc20c693b6c25061eee8d68dfdf6642dceb30f89a5fb2637c65739b8b"


@pytest.mark.parametrize("name, k", sorted(FAMILY_TABLES, key=str))
def test_family_tables_are_pinned(name, k):
    f = family(name, k)
    assert (f.n, f.table) == FAMILY_TABLES[name, k]


def test_maf5_table_is_pinned():
    f = family("MAF", 5)
    assert f.n == 15
    assert hashlib.sha256(hex(f.table).encode()).hexdigest() == MAF5_SHA256


# --- arity caps ------------------------------------------------------------------

# each entry point called on an arity (a level for the doubling family) with a
# fast input; it must answer at its cap and raise ArityError one past it
CAPPED = {
    "BooleanFunction": (lambda n: BooleanFunction(n, 0), MAX_ARITY),
    "from_tt": (lambda n: BooleanFunction.from_tt(f"n={n}\n{'0' * (1 << n)}\n"), MAX_ARITY),
    "family": (lambda n: family("CONST0", n), MAX_ARITY),
    "parse_corpus_all": (lambda n: parse_corpus(f"all:{n}"), ALL_ENUM_MAX_ARITY),
    "parse_corpus_random": (lambda n: parse_corpus(f"random:{n}:1:0"), MAX_ARITY),
    "parse_corpus_monotone": (lambda n: parse_corpus(f"monotone:{n}"), MONOTONE_ENUM_MAX_ARITY),
    "block_sensitivity": (
        lambda n: block_sensitivity(family("CONST0", n)), EXACT_SEARCH_MAX_ARITY,
    ),
    "certificate_complexity": (
        lambda n: certificate_complexity(family("CONST0", n)), EXACT_SEARCH_MAX_ARITY,
    ),
    "dt_depth": (lambda n: dt_depth(family("CONST0", n)), EXACT_SEARCH_MAX_ARITY),
    "approx_degree": (
        lambda n: approx_degree(family("CONST0", n)), APPROX_DEGREE_MAX_ARITY,
    ),
    "adeg_lp": (
        lambda n: adeg_lp(family("CONST0", n), 0, Fraction(1, 3)), APPROX_DEGREE_MAX_ARITY,
    ),
    "monomial_sens_violation": (
        lambda n: coordinate._monomial_sens_violation(table_measures(n, 0), (1,)),
        EXACT_SEARCH_MAX_ARITY,
    ),
    # level 6 has 14 inputs, level 7 needs 22
    "dt_doubling_family": (dt_doubling_family, 6),
}


@pytest.mark.parametrize("entry", sorted(CAPPED))
def test_capped_entry_point_answers_at_cap_and_refuses_past_it(entry):
    call, cap = CAPPED[entry]
    call(cap)
    with pytest.raises(ArityError):
        call(cap + 1)


def _arity_raises(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(target, "id", getattr(target, "attr", None)) == "ArityError":
                yield node


def test_arity_error_is_raised_only_by_the_guard():
    src = Path(__file__).resolve().parents[1] / "src" / "bfc"
    in_guard, elsewhere = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        guarded = {
            id(r)
            for fn in ast.walk(tree)
            if path.name == "bf.py"
            and isinstance(fn, ast.FunctionDef)
            and fn.name == "check_arity"
            for r in _arity_raises(fn)
        }
        for r in _arity_raises(tree):
            (in_guard if id(r) in guarded else elsewhere).append(f"{path.name}:{r.lineno}")
    assert elsewhere == []
    assert len(in_guard) == 1


# --- package surface --------------------------------------------------------------

def test_public_api_is_pinned():
    # ``__all__`` takes every public name of ``bfc/__init__.py``, the seven
    # submodules included; a name added there is added here on purpose
    assert sorted(bfc.__all__) == [
        "ArityError", "BooleanFunction", "BoundGrid", "CERT_I", "CapProfile",
        "CoordinateMeasureKind", "Corpus", "DEG_I", "LinearProgram",
        "MeasureReport", "PartialAssignment", "PotentialValue", "SENS_I",
        "SimplexResult", "TheoremCheck", "adeg_lp", "approx_degree", "bf",
        "block_sensitivity", "bounds", "cap_profile", "cert_i",
        "certificate_complexity", "certify_doubling_recurrence",
        "check_influence_restriction_average", "check_rrcm",
        "check_standard_form_lemmas", "coordinate", "corpus", "cs_harmonic_bound",
        "cs_sens_bound", "deg_i", "degree", "dp_degree", "dp_mixed_ds",
        "dp_monotone_degree", "ds_influence_min", "dt_depth", "dt_doubling_family",
        "family", "influence", "lp", "lp_bs_cap",
        "markov_cap", "measure_report", "measures", "mix_cs", "mix_ds", "moment_lp",
        "monotone_dt_table", "parse_corpus", "potential", "power_tail",
        "run_theorem_suite", "sens_i", "sensitivity", "simplex_feasible",
        "standard_form", "suite_failures", "verify",
    ]


def _fresh_interpreter(code):
    """Standard output of ``code`` run by a new interpreter that imports
    this package from its source tree."""
    src = str(Path(bfc.bf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True
    ).stdout


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import bfc", ""),
        ("from bfc import family", "bf"),
        ("import bfc; bfc.cap_profile", "bounds"),
        ("import bfc; bfc.corpus", "bf corpus"),
    ],
)
def test_a_submodule_loads_when_a_name_of_it_is_read(code, loaded):
    # ``import bfc`` loads no submodule; a name loads its home module and
    # what that module imports
    code += "; import sys; print(*sorted(m for m in sys.modules if m.startswith('bfc.')))"
    assert _fresh_interpreter(code).split() == [f"bfc.{m}" for m in loaded.split()]


def test_every_public_name_resolves_on_first_use():
    # from a fresh package: dir() lists every name before any is read, each
    # name imports by ``from bfc import`` and is its home module's object,
    # and a name that is not there fails as an attribute error
    code = (
        "import importlib, bfc\n"
        "assert set(bfc.__all__) <= set(dir(bfc))\n"
        "names = {}\n"
        "exec('from bfc import ' + ', '.join(bfc.__all__), names)\n"
        "for name in bfc.__all__:\n"
        "    home = importlib.import_module('bfc.' + bfc._HOME.get(name, name))\n"
        "    assert names[name] is (home if name in bfc._PUBLIC else getattr(home, name)), name\n"
        "try:\n"
        "    bfc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _fresh_interpreter(code) == "module 'bfc' has no attribute 'no_such_name'\n"


def test_every_public_name_is_reached_outside_the_unit_tests():
    # each exported name other than a submodule must be named by the package,
    # a script, the benchmark or the acceptance tests, not by unit tests
    # alone; read as text, since the benchmark names its probes in strings
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in (root / "src" / "bfc").glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]
    paths.append(root / "tests" / "test_acceptance.py")
    lines = [ln for p in paths for ln in p.read_text(encoding="utf-8").splitlines()]
    unreached = []
    for name in sorted(bfc.__all__):
        if isinstance(getattr(bfc, name), ModuleType):
            continue
        word = re.compile(rf"\b{name}\b")
        own_def = re.compile(rf"\s*(def|class)\s+{name}\b")
        if not any(word.search(ln) and not own_def.match(ln) for ln in lines):
            unreached.append(name)
    assert unreached == []


def test_every_module_level_import_is_used():
    # no linter runs on the package: a name imported at the top of a module
    # and never read in it fails here (``__init__.py`` imports to export)
    src = Path(__file__).resolve().parents[1] / "src" / "bfc"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _function_level_imports(node, where=None):
    """(enclosing function, imported module) of each import in a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_level_imports(child, child.name)
        elif isinstance(child, ast.ImportFrom) and where:
            yield where, "." * child.level + (child.module or "")
        elif isinstance(child, ast.Import) and where:
            yield from ((where, alias.name) for alias in child.names)
        else:
            yield from _function_level_imports(child, where)


def test_the_one_function_level_import_breaks_a_cycle():
    # lp imports APPROX_DEGREE_MAX_ARITY from measures, so measures reaches
    # lp only inside _approx_degree; each cli command imports the modules it
    # runs, so that it loads no other; every other import sits at the top
    src = Path(__file__).resolve().parents[1] / "src" / "bfc"
    found = [
        (f"{path.stem}.{where}", module)
        for path in sorted(src.glob("*.py"))
        for where, module in _function_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [
        ("cli._cmd_analyze", "fractions"),
        ("cli._cmd_analyze", ".coordinate"),
        ("cli._cmd_analyze", ".measures"),
        ("cli._cmd_lp_caps", ".lp"),
        ("cli._cmd_table", "fractions"),
        ("cli._cmd_table", ".bounds"),
        ("cli._cmd_verify", ".corpus"),
        ("cli._cmd_verify", ".verify"),
        ("measures._approx_degree", ".lp"),
    ]


def test_every_private_top_level_name_is_read():
    # a private function or class at the top of a module must be read
    # somewhere in the package outside its own body, so a helper orphaned
    # by a deletion fails here
    src = Path(__file__).resolve().parents[1] / "src" / "bfc"
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
    }
    refs = [
        (getattr(ref, "id", None) or ref.attr, id(ref))
        for tree in trees.values()
        for ref in ast.walk(tree)
        if isinstance(ref, (ast.Name, ast.Attribute))
    ]
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = set(map(id, ast.walk(node)))
            if not any(word == node.name and key not in own for word, key in refs):
                unread.append(f"{name}:{node.lineno} {node.name}")
    assert unread == []


def _source_lines_naming(pattern):
    """file:line of every line of the package that matches ``pattern``."""
    src = Path(__file__).resolve().parents[1] / "src" / "bfc"
    gone = re.compile(pattern)
    return [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        for i, ln in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if gone.search(ln)
    ]


def test_the_lp_layer_names_only_integer_rows():
    # an LP is integer rows a.x <= r; the rational constraint layer that
    # turned relations into rows on every solve must not come back
    pattern = r"\bRELATIONS\b|\b_row_scale\b|\b_int_rows\b|\.constraints\b"
    assert _source_lines_naming(pattern) == []


@pytest.mark.parametrize("n", range(PERMUTATION_MAX_ARITY + 2))
def test_every_permutation_image_sits_in_one_lane(n):
    if n > PERMUTATION_MAX_ARITY:
        # lanes of 2^7 bits have no struct format; the guard refuses first
        with pytest.raises(ArityError, match=f"permutation images supports arity <= 6, got {n}"):
            bfc.bf._permutation_images(n, 0)
        return
    *_, perms = bfc.bf._permutation_stages(n)
    assert len(perms) == len(set(perms)) == factorial(n)
    assert set(perms) == set(permutations(range(n)))
    assert perms[0] == tuple(range(n))
    # lane k is x -> t(p(x)) for p = perms[k], p moving bit j to bit p[j],
    # found point by point
    rng = random.Random(n)
    for t in [0, (1 << (1 << n)) - 1, *(rng.getrandbits(1 << n) for _ in range(3))]:
        images = bfc.bf._permutation_images(n, t)
        assert len(images) == factorial(n) and images[0] == t
        for p, u in zip(perms, images):
            moved = [sum(((x >> j) & 1) << p[j] for j in range(n)) for x in range(1 << n)]
            assert u == sum(((t >> moved[x]) & 1) << x for x in range(1 << n)), (n, t, p)


def test_every_orbit_cap_fits_the_permutation_kernel():
    # the corpus orbits and the automorphism group read every lane of the
    # kernel, so no arity they admit may pass its cap
    for cap in (ALL_ENUM_MAX_ARITY, MONOTONE_ENUM_MAX_ARITY, APPROX_DEGREE_MAX_ARITY):
        assert cap <= PERMUTATION_MAX_ARITY


def test_orbits_come_from_the_one_permutation_kernel():
    # the Steinhaus-Johnson-Trotter walk took n! - 1 Python steps per orbit;
    # every orbit now comes from the lanes of ``_permutation_images``
    assert _source_lines_naming(r"\b_sjt_walk\b|\b_sjt_steps\b") == []
