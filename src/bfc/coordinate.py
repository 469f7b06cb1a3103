"""Per-coordinate restriction-reducing measures and their potentials.

Each coordinate measure vanishes on coordinates the function ignores, never
grows under restriction of another coordinate, and drops by at least one on
the surviving branch whenever the other branch kills the coordinate.  The
potential of a function sums 2**(-m_i) over its relevant coordinates; with
integer exponents these sums are exact rationals, while mixed measures with
fractional exponents are evaluated as 50-digit reals carrying a stated
error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .bf import (
    BooleanFunction,
    check_arity,
    half_mask,
    popcount,
    restrict_bit,
)
from .bounds import _pow2, _precision
from .measures import (
    EXACT_SEARCH_MAX_ARITY,
    _diffs,
    _fourier,
    _influence_counts,
    _mobius,
    _point_certificates,
    _point_sensitivity,
    _sensitivity,
)

MIXED_ERROR_BOUND = 1e-12

# zeta(2); junta-count constant sum_{j>=1} j/j**3 (the double nearest
# pi^2/6, which is also float(mpmath.zeta(2)))
_SUM_INV_SQUARES = math.pi ** 2 / 6


@dataclass(frozen=True)
class CoordinateMeasureKind:
    """One of the coordinate measures: deg_i, sens_i, cert_i, or a convex mix."""

    tag: str  # "deg" | "sens" | "cert" | "mix_ds" | "mix_cs"
    beta: Fraction | None = None

    def __post_init__(self):
        if self.tag in ("deg", "sens", "cert"):
            if self.beta is not None:
                raise ValueError(f"{self.tag} takes no mixing weight")
        elif self.tag in ("mix_ds", "mix_cs"):
            if self.beta is None or not 0 <= self.beta <= 1:
                raise ValueError("mixing weight must lie in [0, 1]")
        else:
            raise ValueError(f"unknown coordinate measure {self.tag!r}")

    def label(self) -> str:
        if self.beta is None:
            return self.tag
        return f"{self.tag}({self.beta})"


DEG_I = CoordinateMeasureKind("deg")
SENS_I = CoordinateMeasureKind("sens")
CERT_I = CoordinateMeasureKind("cert")


def mix_ds(beta) -> CoordinateMeasureKind:
    return CoordinateMeasureKind("mix_ds", Fraction(beta))


def mix_cs(beta) -> CoordinateMeasureKind:
    return CoordinateMeasureKind("mix_cs", Fraction(beta))


ALL_BASE_KINDS = (DEG_I, SENS_I, CERT_I)
STANDARD_KINDS = ALL_BASE_KINDS + (mix_ds(Fraction(1, 2)), mix_cs(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# coordinate measure kernels on (n, table)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 17)
def _deg_i_all(n: int, table: int) -> tuple[int, ...]:
    """Degree of f(x) - f(x^i) for each coordinate (0 when irrelevant).

    With f = sum c_S x^S, flipping x_i turns x^S into (1 - x_i) x^(S-i) for
    S containing i, so f(x) - f(x^i) = sum_{S∋i} c_S (2 x^S - x^(S-i)).
    The terms 2 c_S x^S cannot cancel, so deg_i is the largest |S| with
    i in S and c_S != 0.
    """
    out = [0] * n
    for mask, c in enumerate(_mobius(n, table)):
        if c:
            k = popcount(mask)
            rest = mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                if out[i] < k:
                    out[i] = k
                rest ^= low
    return tuple(out)


def _edge_max(n: int, table: int, point: tuple[int, ...]) -> tuple[int, ...]:
    """max over sensitive edges {x, x^i} of point[x] + point[x^i], per coordinate.

    Each edge is visited once, from its endpoint with x_i = 0.
    """
    out = []
    for i, d in enumerate(_diffs(n, table)):
        bit = 1 << i
        d &= half_mask(n, i)
        best = 0
        while d:
            low = d & -d
            x = low.bit_length() - 1
            v = point[x] + point[x ^ bit]
            if v > best:
                best = v
            d ^= low
        out.append(best)
    return tuple(out)


@lru_cache(maxsize=1 << 17)
def _sens_i_all(n: int, table: int) -> tuple[int, ...]:
    """max over sensitive edges of s_x + s_{x^i}, per coordinate."""
    return _edge_max(n, table, _point_sensitivity(n, table))


@lru_cache(maxsize=1 << 16)
def _cert_i_all(n: int, table: int) -> tuple[int, ...]:
    """max over sensitive edges of C_x + C_{x^i}, per coordinate."""
    return _edge_max(n, table, _point_certificates(n, table))


def _kind_values(n: int, table: int, kind: CoordinateMeasureKind) -> tuple:
    """The measure per coordinate: the cached ints for deg, sens and cert,
    Fractions for the two mixes."""
    if kind.tag == "deg":
        return _deg_i_all(n, table)
    if kind.tag == "sens":
        return _sens_i_all(n, table)
    if kind.tag == "cert":
        return _cert_i_all(n, table)
    beta = kind.beta
    if kind.tag == "mix_ds":
        first, second = _deg_i_all(n, table), _sens_i_all(n, table)
    else:
        first, second = _cert_i_all(n, table), _sens_i_all(n, table)
    return tuple(beta * a + (1 - beta) * b for a, b in zip(first, second))


def deg_i(f: BooleanFunction, i: int) -> int:
    _check_coord(f, i)
    return _deg_i_all(f.n, f.table)[i - 1]


def sens_i(f: BooleanFunction, i: int) -> int:
    _check_coord(f, i)
    return _sens_i_all(f.n, f.table)[i - 1]


def cert_i(f: BooleanFunction, i: int) -> int:
    _check_coord(f, i)
    return _cert_i_all(f.n, f.table)[i - 1]


def coordinate_measure(f: BooleanFunction, i: int, kind: CoordinateMeasureKind):
    _check_coord(f, i)
    return _kind_values(f.n, f.table, kind)[i - 1]


def _check_coord(f: BooleanFunction, i: int) -> None:
    if not 1 <= i <= f.n:
        raise ValueError(f"coordinate {i} out of range for arity {f.n}")


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialValue:
    """Sum of 2**(-m_i) over relevant coordinates, with per-term breakdown."""

    kind: CoordinateMeasureKind
    terms: tuple[tuple[int, int | Fraction, object], ...]  # (coordinate, m_i, weight)
    value: object  # Fraction when exact, float otherwise
    exact: bool
    error_bound: float  # 0.0 for exact values

    def value_as_float(self) -> float:
        return float(self.value)

    def format_lines(self) -> list[str]:
        lines = []
        for coord, m, term in self.terms:
            m_txt = f"{m.numerator}/{m.denominator}"
            if isinstance(term, Fraction):
                t_txt = f"{term.numerator}/{term.denominator}"
            else:
                t_txt = f"{float(term):.15g}"
            lines.append(f"{coord}\t{m_txt}\t{t_txt}")
        if isinstance(self.value, Fraction):
            v_txt = f"{self.value.numerator}/{self.value.denominator}"
        else:
            v_txt = f"{float(self.value):.15g}"
        lines.append(f"total\t{v_txt}")
        return lines


def _potential_over(
    f: BooleanFunction, kind: CoordinateMeasureKind, coords: Sequence[int]
) -> PotentialValue:
    values = _kind_values(f.n, f.table, kind)
    diffs = _diffs(f.n, f.table)
    # irrelevant coordinates contribute nothing
    ms = [(i, values[i - 1]) for i in coords if diffs[i - 1]]
    with _precision(*(m for _, m in ms)):
        terms = tuple((i, m, _pow2(-m)) for i, m in ms)
        total = sum(t for _, _, t in terms)
    if all(m.denominator == 1 for _, m in ms):
        return PotentialValue(kind, terms, Fraction(total), True, 0.0)
    return PotentialValue(kind, terms, float(total), False, MIXED_ERROR_BOUND)


def potential(f: BooleanFunction, kind: CoordinateMeasureKind) -> PotentialValue:
    return _potential_over(f, kind, range(1, f.n + 1))


def restricted_potential(
    f: BooleanFunction, kind: CoordinateMeasureKind, coords: Iterable[int]
) -> PotentialValue:
    coords = sorted(set(coords))
    for i in coords:
        _check_coord(f, i)
    return _potential_over(f, kind, coords)


# ---------------------------------------------------------------------------
# axioms and structural checks
#
# Each inequality has one kernel on (n, table) that returns its first
# violation; the public check_* validates its arguments and wraps the
# kernel, and the theorem suite in verify.py calls the same kernel.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""
    counterexample: tuple | None = None


def _rrcm_violation(
    n: int, table: int, kind: CoordinateMeasureKind, coords: Iterable[int]
) -> tuple[int, int, int, str] | None:
    """First (i0, j0, b, axiom) at which a 0-based coordinate of ``coords``
    breaks a restriction-reducing axiom, or None.

    For every other coordinate j0 and branch bit b: (axiom1) the measure
    never grows when j0 is fixed; (axiom2) if the j0 = b branch makes i0
    irrelevant while i0 matters for f, the other branch's measure drops by
    at least one.  Both restrictions of each j0 are built once for all of
    ``coords``; the order is j0, then i0 in ``coords``, then b.
    """
    coords = tuple(coords)
    vals = _kind_values(n, table, kind)
    diffs = _diffs(n, table)
    for j0 in range(n):
        others = [i0 for i0 in coords if i0 != j0]
        if not others:
            continue
        subs = [restrict_bit(table, n, j0, b) for b in (0, 1)]
        sub_vals = [_kind_values(n - 1, t, kind) for t in subs]
        sub_diffs = [_diffs(n - 1, t) for t in subs]
        for i0 in others:
            ii = i0 - 1 if i0 > j0 else i0  # index of i0 once j0 is removed
            m_f = vals[i0]
            for b in (0, 1):
                if sub_vals[b][ii] > m_f:
                    return i0, j0, b, "axiom1"
                if diffs[i0] and not sub_diffs[b][ii] and sub_vals[1 - b][ii] > m_f - 1:
                    return i0, j0, b, "axiom2"
    return None


def check_rrcm(f: BooleanFunction, i: int, kind: CoordinateMeasureKind) -> CheckResult:
    """Verify both restriction-reducing axioms for coordinate ``i``.

    Returns the first violating (j, b) in lexicographic order, with the
    axiom that fails.
    """
    _check_coord(f, i)
    hit = _rrcm_violation(f.n, f.table, kind, (i - 1,))
    if hit is None:
        return CheckResult(True)
    _, j0, b, axiom = hit
    return CheckResult(False, f"{axiom} fails for x{i} fixing x{j0 + 1}={b}", (j0 + 1, b))


def _restrictions(
    f: BooleanFunction, i: int, H: Sequence[int]
) -> list[tuple[BooleanFunction, int]]:
    """The 2^|H| restrictions of f that fix the sorted coordinates ``H``,
    the bits of a counter giving their values, each with the index that
    coordinate i (not in H) takes in it."""
    ii = i - sum(1 for j in H if j < i)
    return [
        (f.restrict([(j, (bits >> t) & 1) for t, j in enumerate(H)]), ii)
        for bits in range(1 << len(H))
    ]


def check_restriction_inequality(
    f: BooleanFunction,
    i: int,
    kind: CoordinateMeasureKind,
    coords: Iterable[int],
) -> CheckResult:
    """delta_i * 2^-m_i never beats its average over restrictions of ``coords``."""
    H = sorted(set(coords))
    _check_coord(f, i)
    if i in H:
        raise ValueError(f"coordinate {i} must not belong to the restricted set")
    for j in H:
        _check_coord(f, j)

    count = 1 << len(H)
    branches = [(f, i)] + _restrictions(f, i, H)
    # -m of coordinate c in g, or None where g ignores it (weight 0)
    exps = [
        -_kind_values(g.n, g.table, kind)[c - 1] if _diffs(g.n, g.table)[c - 1] else None
        for g, c in branches
    ]
    known = [e for e in exps if e is not None]
    exact = all(e.denominator == 1 for e in known)
    with _precision(*known):
        lhs, *restricted = [Fraction(0) if e is None else _pow2(e) for e in exps]
        total = sum(restricted)
    if exact:
        ok = lhs * count <= total
        detail = f"{lhs} vs average {Fraction(total, count)}"
    else:
        lhs_f = float(lhs)
        rhs_f = float(total) / count
        ok = lhs_f <= rhs_f + MIXED_ERROR_BOUND
        detail = f"{lhs_f} vs average {rhs_f}"
    return CheckResult(ok, detail)


@lru_cache(maxsize=None)
def _dictator_floor(kind: CoordinateMeasureKind) -> int | Fraction:
    """min of the measure over the two one-variable non-constants.

    Recomputed from the DICT family as a guard against convention drift; the
    expected hard values are deg: 1, sens: 2, cert: 2 and their mixes.
    """
    from .bf import family

    dict1 = family("DICT", 1)
    neg = BooleanFunction(1, dict1.table ^ 0b11)
    vals = [
        _kind_values(1, dict1.table, kind)[0],
        _kind_values(1, neg.table, kind)[0],
    ]
    r = min(vals)
    if kind.tag == "deg":
        expected = 1
    elif kind.tag in ("sens", "cert"):
        expected = 2
    elif kind.tag == "mix_ds":
        expected = kind.beta * 1 + (1 - kind.beta) * 2
    else:
        expected = kind.beta * 2 + (1 - kind.beta) * 2
    if r != expected:
        raise AssertionError(
            f"dictator floor self-check failed for {kind.label()}: {r} != {expected}"
        )
    return r


def _influence_violation(n: int, table: int, kind: CoordinateMeasureKind) -> int | None:
    """First relevant coordinate (0-based) with 2^-m_i > 2^-r * Inf_i, or None.

    ``r`` is the dictator floor of the measure.  With Inf_i = cnt/2^n the
    test reads 2^e > cnt for e = n + r - m_i.  A relevant coordinate has
    cnt >= 1, so it fails iff e > 0 and 2^(q e) > cnt^q, q the denominator
    of e: exact for every kind.  Summed over the coordinates, the bound
    gives potential <= 2^-r * I[f], since irrelevant coordinates have no
    influence.
    """
    r = _dictator_floor(kind)
    values = _kind_values(n, table, kind)
    diffs = _diffs(n, table)
    counts = _influence_counts(n, table)
    for i0 in range(n):
        if not diffs[i0]:
            continue
        e = n + r - values[i0]
        if e > 0 and 1 << e.numerator > counts[i0] ** e.denominator:
            return i0
    return None


def check_influence_bound(f: BooleanFunction, kind: CoordinateMeasureKind) -> CheckResult:
    """Per-coordinate weight <= 2^-r * Inf_i, hence potential <= 2^-r * I[f].

    ``r`` is the dictator floor of the measure; see ``_influence_violation``.
    """
    i0 = _influence_violation(f.n, f.table, kind)
    if i0 is None:
        return CheckResult(True)
    m = _kind_values(f.n, f.table, kind)[i0]
    cnt = _influence_counts(f.n, f.table)[i0]
    r = _dictator_floor(kind)
    return CheckResult(
        False, f"coordinate {i0 + 1}: 2^-{m} > 2^-{r} * {cnt}/{1 << f.n}", (i0 + 1,)
    )


def _monomial_sens_violation(
    n: int, table: int, ks: Iterable[int]
) -> tuple[int, str, int, int] | None:
    """(k, basis, mask, count) for the smallest k in ``ks`` at which some
    monomial has more than (k-1)^2 coordinates with sens_i <= k, at the
    first such monomial; or None.

    The multilinear ("monomial") basis is scanned before the Fourier
    ("spectral") one, masks in increasing order, once for every k.  A k
    whose set {i : sens_i <= k} equals that of a smaller k in ``ks`` is
    skipped: with the same count and a larger limit it fails only where
    the smaller k fails too.
    """
    check_arity(n, EXACT_SEARCH_MAX_ARITY, "monomial sensitivity check")
    sens = _sens_i_all(n, table)
    tests = []  # (k, low-sensitivity set, limit), k increasing
    prev = 0
    for k in sorted(ks):
        low = sum(1 << i for i in range(n) if sens[i] <= k)
        if low != prev:
            tests.append((k, low, (k - 1) ** 2))
        prev = low
    hit = None
    for name, vec in (("monomial", _mobius(n, table)), ("spectral", _fourier(n, table))):
        for mask, c in enumerate(vec):
            if c:
                for j, (k, low, limit) in enumerate(tests):
                    cnt = (mask & low).bit_count()
                    if cnt > limit:
                        # from here on only a smaller k can take its place
                        hit = (k, name, mask, cnt)
                        del tests[j:]
                        break
    return hit


def check_monomial_sensitivity(f: BooleanFunction, k: int) -> CheckResult:
    """In every monomial (either basis), at most (k-1)^2 coordinates have
    sens_i <= k."""
    hit = _monomial_sens_violation(f.n, f.table, (k,))
    if hit is None:
        return CheckResult(True)
    _, name, mask, cnt = hit
    return CheckResult(
        False,
        f"{name} mask {mask:#x}: {cnt} coordinates with sens_i <= {k} "
        f"exceeds {(k - 1) ** 2}",
        (name, mask),
    )


def check_junta_count(f: BooleanFunction, k: int) -> CheckResult:
    """Relevant coordinates with sens_i <= k number at most C_v * k^3 * 2^k."""
    n, table = f.n, f.table
    sens = _sens_i_all(n, table)
    diffs = _diffs(n, table)
    cnt = sum(
        1 for i in range(n) if diffs[i] and sens[i] <= k
    )
    bound = _SUM_INV_SQUARES * (k ** 3) * (2 ** k)
    return CheckResult(
        cnt <= bound, f"{cnt} low-sensitivity coordinates vs bound {bound:.6f}"
    )


@dataclass(frozen=True)
class SplitBoundResult:
    hypothesis_holds: bool
    bound_holds: bool | None
    detail: str = ""


def check_split_bound(f: BooleanFunction, coords: Iterable[int]) -> SplitBoundResult:
    """If no input sees two sensitive coordinates from Y, then |Y| < 4^s."""
    Y = sorted(set(coords))
    rel = f.relevant_variables()
    if not set(Y) <= rel:
        raise ValueError(f"{set(Y) - rel} are not relevant coordinates")
    n, table = f.n, f.table
    diffs = _diffs(n, table)
    masks = [diffs[i - 1] for i in Y]
    for x in range(1 << n):
        cnt = 0
        for d in masks:
            if (d >> x) & 1:
                cnt += 1
                if cnt > 1:
                    return SplitBoundResult(
                        False, None, f"input {x:#x} has two sensitive coordinates in Y"
                    )
    s = _sensitivity(n, table)[0]
    ok = len(Y) < 4 ** s
    return SplitBoundResult(True, ok, f"|Y|={len(Y)} vs 4^{s}")
