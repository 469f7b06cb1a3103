import ast
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfc.bf
from bfc.bf import (
    MAX_ARITY,
    ArityError,
    BooleanFunction,
    PartialAssignment,
    family,
    fourier_vector,
    kushilevitz_polynomial,
)
from bfc.bounds import CapProfile, cap_profile
from bfc.coordinate import CoordinateMeasureKind, check_monomial_sensitivity, mix_ds
from bfc.corpus import ALL_ENUM_MAX_ARITY, MONOTONE_ENUM_MAX_ARITY, Corpus, parse_corpus
from bfc.lp import LinearProgram, adeg_lp
from bfc.measures import (
    APPROX_DEGREE_MAX_ARITY,
    EXACT_SEARCH_MAX_ARITY,
    approx_degree,
    block_sensitivity,
    certificate_complexity,
    dt_depth,
)
from bfc.verify import dt_doubling_family


def bf(bits):
    return BooleanFunction.from_bits(bits)


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
    f = bf([0, 1, 0, 0])
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
            LinearProgram.from_text("vars=1\n1/1 <= 2/1\n"),
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
            lambda: PartialAssignment([(1, 0), (1, 1)]),
            "duplicate coordinates in assignment: [1, 1]",
        ),
    ],
    ids=["unknown-tag", "beta-on-deg", "corpus-kind", "negative-count", "lp-vars", "duplicates"],
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
    p = family("OR", 2).mobius_transform()
    assert p.coefficient(()) == 0
    assert p.coefficient((1,)) == 1
    assert p.coefficient((2,)) == 1
    assert p.coefficient((1, 2)) == -1


def test_mobius_dictator():
    p = family("DICT", 2).mobius_transform()
    assert p.coeffs == {1: Fraction(1)}


def test_mobius_kushilevitz_matches_defining_polynomial():
    f = family("KUSHILEVITZ")
    assert f.mobius_transform() == kushilevitz_polynomial()


def test_fourier_parity2():
    # with inputs mapped 0 -> +1 as well, the parity of two bits is exactly
    # the product character, so the single coefficient is +1
    p = family("PARITY", 2).fourier_transform()
    assert p.coeffs == {0b11: Fraction(1)}
    assert abs(p.coefficient((1, 2))) == 1


def test_fourier_constants():
    assert BooleanFunction(2, 0).fourier_transform().coefficient(()) == 1
    assert family("CONST1", 2).fourier_transform().coefficient(()) == -1


def test_fourier_maj3_symmetry_and_parseval():
    p = family("MAJ", 3).fourier_transform()
    assert p.coefficient((1,)) == p.coefficient((2,)) == p.coefficient((3,))
    assert sum(c * c for c in p.coeffs.values()) == 1


@given(st.integers(0, 3).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: (n, t))
))
def test_mobius_roundtrip_and_parseval(args):
    n, t = args
    f = BooleanFunction(n, t)
    p = f.mobius_transform()
    for idx in range(1 << n):
        bits = [(idx >> i) & 1 for i in range(n)]
        assert p.evaluate(bits) == f.evaluate(bits)
    w = fourier_vector(n, t)
    assert sum(v * v for v in w) == 4 ** n


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
    f = BooleanFunction(n, t)
    direct = f.restrict([(j, b)]).mobius_transform()
    symbolic = f.mobius_transform().restrict([(j, b)])
    assert direct == symbolic


def test_polynomial_format_lines():
    lines = family("OR", 2).mobius_transform().format_lines()
    assert lines == ["S=1  c=1/1", "S=2  c=1/1", "S=1,2  c=-1/1"]
    const = family("CONST1", 1).mobius_transform().format_lines()
    assert const == ["S=empty  c=1/1"]


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


# --- compose ----------------------------------------------------------------

def test_compose_parity():
    assert family("PARITY", 2).compose(family("PARITY", 2)) == family("PARITY", 4)


def test_compose_dictator_identity():
    g = family("MAJ", 3)
    assert family("DICT", 1).compose(g) == g


def test_compose_or_and_degree():
    from bfc.measures import degree

    h = family("OR", 2).compose(family("AND", 2))
    assert h.n == 4
    assert degree(h) == 4


def test_compose_arity_cap():
    with pytest.raises(ArityError):
        family("PARITY", 5).compose(family("PARITY", 5))


@given(
    st.tuples(
        st.integers(0, (1 << 4) - 1),
        st.integers(0, (1 << 8) - 1),
    )
)
@settings(max_examples=60)
def test_compose_multiplies_degree(tables):
    from bfc.measures import degree

    tf, tg = tables
    f, g = BooleanFunction(2, tf), BooleanFunction(3, tg)
    if degree(f) < 1 or degree(g) < 1:
        return
    assert degree(f.compose(g)) == degree(f) * degree(g)


def test_compose_multiplies_degree_exhaustive_small():
    from bfc.measures import degree

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
            assert degree(f.compose(g)) == degree(f) * degree(g)
    for f in three_pos:
        for g in small:
            assert degree(f.compose(g)) == degree(f) * degree(g)


# --- truth-table file format -------------------------------------------------

def test_tt_roundtrip():
    f = family("MAJ", 3)
    assert BooleanFunction.from_tt(f.to_tt()) == f
    assert f.to_tt() == "n=3\n00010111\n"


def test_tt_rejects_bad_input():
    with pytest.raises(ValueError):
        BooleanFunction.from_tt("n=2\n011\n")
    with pytest.raises(ValueError):
        BooleanFunction.from_tt("m=2\n0110\n")
    with pytest.raises(ValueError):
        BooleanFunction.from_tt("n=1\n0x\n")


def test_immutability():
    f = family("OR", 2)
    with pytest.raises(AttributeError):
        f.table = 0
    p = f.mobius_transform()
    with pytest.raises(AttributeError):
        p.coeffs = {}


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

def _compose_to(n):
    """A composition with n inputs, split at the least factor of n."""
    k = next(d for d in range(2, n + 1) if n % d == 0)
    return family("CONST0", k).compose(family("CONST0", n // k))


# each entry point called on an arity (a level for the doubling family) with a
# fast input; it must answer at its cap and raise ArityError one past it
CAPPED = {
    "BooleanFunction": (lambda n: BooleanFunction(n, 0), MAX_ARITY),
    "from_tt": (lambda n: BooleanFunction.from_tt(f"n={n}\n{'0' * (1 << n)}\n"), MAX_ARITY),
    "family": (lambda n: family("CONST0", n), MAX_ARITY),
    "compose": (_compose_to, MAX_ARITY),
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
    "check_monomial_sensitivity": (
        lambda n: check_monomial_sensitivity(family("CONST0", n), 1), EXACT_SEARCH_MAX_ARITY,
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
