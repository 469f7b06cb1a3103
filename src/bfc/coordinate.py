"""Per-coordinate restriction-reducing measures and their potentials.

Each coordinate measure vanishes on coordinates the function ignores, never
grows under restriction of another coordinate, and drops by at least one on
the surviving branch whenever the other branch kills the coordinate.  The
potential of a function sums 2**(-m_i) over its relevant coordinates; with
integer exponents these sums are exact rationals, while mixed measures with
fractional exponents are rounded to floats from integer enclosures and carry
a stated error bound.  The axioms, the influence bound and the monomial
sensitivity bound are each one kernel on a table's measure record, which
the theorem suite in verify.py runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .bf import ArityError, BooleanFunction, check_arity, family, restrict_bit
from .bounds import _pow2
from .measures import (
    EXACT_SEARCH_MAX_ARITY,
    TableMeasures,
    _fill_cert_lanes,
    table_measures,
)


class _Kind(NamedTuple):
    tag: str  # "deg" | "sens" | "cert" | "mix_ds" | "mix_cs"
    beta: Fraction | None = None


class CoordinateMeasureKind(_Kind):
    """One of the coordinate measures: deg_i, sens_i, cert_i, or a convex mix."""

    __slots__ = ()

    def __new__(cls, tag: str, beta: Fraction | None = None):
        if tag in ("deg", "sens", "cert"):
            if beta is not None:
                raise ValueError(f"{tag} takes no mixing weight")
        elif tag in ("mix_ds", "mix_cs"):
            if beta is None or not 0 <= beta <= 1:
                raise ValueError("mixing weight must lie in [0, 1]")
        else:
            raise ValueError(f"unknown coordinate measure {tag!r}")
        return super().__new__(cls, tag, beta)

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
# coordinate measures
#
# deg_i, sens_i and cert_i of every coordinate are fields of the table's
# ``measures.TableMeasures`` record, so restrictions met by the checks
# below, by the theorem suite and by the public functions share one memo.
# The record reads them off its one-byte-per-point integers of s_x, C_x
# and the Moebius coefficients, with no loop over the points.
# ---------------------------------------------------------------------------

def _kind_values(rec: TableMeasures, kind: CoordinateMeasureKind) -> tuple:
    """The measure per coordinate: the record's ints for deg, sens and cert,
    Fractions for the two mixes."""
    if kind.tag == "deg":
        return rec.deg_i
    if kind.tag == "sens":
        return rec.sens_i
    if kind.tag == "cert":
        return rec.cert_i
    beta = kind.beta
    if kind.tag == "mix_ds":
        first, second = rec.deg_i, rec.sens_i
    else:
        first, second = rec.cert_i, rec.sens_i
    return tuple(beta * a + (1 - beta) * b for a, b in zip(first, second))


def deg_i(f: BooleanFunction, i: int) -> int:
    _check_coord(f, i)
    return table_measures(f.n, f.table).deg_i[i - 1]


def sens_i(f: BooleanFunction, i: int) -> int:
    _check_coord(f, i)
    return table_measures(f.n, f.table).sens_i[i - 1]


def cert_i(f: BooleanFunction, i: int) -> int:
    _check_coord(f, i)
    return table_measures(f.n, f.table).cert_i[i - 1]


def _check_coord(f: BooleanFunction, i: int) -> None:
    if not 1 <= i <= f.n:
        raise ValueError(f"coordinate {i} out of range for arity {f.n}")


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class PotentialValue(NamedTuple):
    """Sum of 2**(-m_i) over relevant coordinates, with per-term breakdown."""

    kind: CoordinateMeasureKind
    terms: tuple[tuple[int, int | Fraction, object], ...]  # (coordinate, m_i, weight)
    value: object  # Fraction when exact, float otherwise
    exact: bool
    error_bound: float  # 0.0 for exact values

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


def potential(f: BooleanFunction, kind: CoordinateMeasureKind) -> PotentialValue:
    rec = table_measures(f.n, f.table)
    values = _kind_values(rec, kind)
    # irrelevant coordinates contribute nothing
    ms = [(i0 + 1, values[i0]) for i0, d in enumerate(rec.diffs) if d]
    weights = [_pow2(-m) for _, m in ms]
    terms = tuple((i, m, w if m.denominator == 1 else float(w)) for (i, m), w in zip(ms, weights))
    if all(m.denominator == 1 for _, m in ms):
        return PotentialValue(kind, terms, Fraction(sum(weights)), True, 0.0)
    # each weight is at most a relative 2^(1 - POW2_BITS) below its 2^-m, and
    # rounding the sum to a float adds half an ulp: under one ulp in all
    value = float(sum(weights))
    return PotentialValue(kind, terms, value, False, math.ulp(value))


# ---------------------------------------------------------------------------
# axioms and structural checks
#
# Each inequality has one kernel on a table's measure record that returns
# its first violation, and the theorem suite in verify.py calls it;
# check_rrcm wraps the axioms' kernel for one coordinate of a function.
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    passed: bool
    detail: str = ""
    counterexample: tuple | None = None


def _rrcm_violation(
    rec: TableMeasures,
    kinds: Sequence[CoordinateMeasureKind],
    coords: Iterable[int],
) -> tuple[CoordinateMeasureKind, int, int, int, str] | None:
    """First (kind, i0, j0, b, axiom) at which a 0-based coordinate of
    ``coords`` breaks a restriction-reducing axiom of a measure in
    ``kinds``, or None.

    For every other coordinate j0 and branch bit b: (axiom1) the measure
    never grows when j0 is fixed; (axiom2) if the j0 = b branch makes i0
    irrelevant while i0 matters for f, the other branch's measure drops by
    at least one.  The order is ``kinds``, then j0, then i0 in ``coords``,
    then b.  One pass serves every kind: both restrictions of each j0 are
    built once, and when a kind reads cert_i, the C_x of the restrictions
    come from stacked certificate walks (``measures._fill_cert_lanes``).  A
    kind kept from f by an arity cap raises its ArityError once no kind
    before it fails; no later kind is read.
    """
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
    if subs and any(kind.tag in ("cert", "mix_cs") for kind in kinds[: len(vals)]):
        _fill_cert_lanes(n - 1, [sub for pair in subs for sub in pair])
    hit = None
    live = len(vals)  # the kinds before the first one found failing
    for j0, pair in zip(js, subs):
        for k in range(live):
            found = _axiom_hit(rec.diffs, vals[k], pair, kinds[k], j0, coords)
            if found:
                hit = (kinds[k], *found)
                live = k
                break
        if not live:
            break
    if hit is None and capped is not None:
        raise capped
    return hit


def _axiom_hit(
    diffs: tuple[int, ...],
    vals: tuple,
    pair: list[TableMeasures],
    kind: CoordinateMeasureKind,
    j0: int,
    coords: tuple[int, ...],
) -> tuple[int, int, int, str] | None:
    """First (i0, j0, b, axiom) of ``_rrcm_violation`` at one j0, whose two
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


def check_rrcm(f: BooleanFunction, i: int, kind: CoordinateMeasureKind) -> CheckResult:
    """Verify both restriction-reducing axioms for coordinate ``i``.

    Returns the first violating (j, b) in lexicographic order, with the
    axiom that fails.
    """
    _check_coord(f, i)
    hit = _rrcm_violation(table_measures(f.n, f.table), (kind,), (i - 1,))
    if hit is None:
        return CheckResult(True)
    _, _, j0, b, axiom = hit
    return CheckResult(False, f"{axiom} fails for x{i} fixing x{j0 + 1}={b}", (j0 + 1, b))


@lru_cache(maxsize=None)
def _dictator_floor(kind: CoordinateMeasureKind) -> int | Fraction:
    """min of the measure over the two one-variable non-constants.

    Recomputed from the DICT family as a guard against convention drift; the
    expected hard values are deg: 1, sens: 2, cert: 2 and their mixes.
    """
    dict1 = family("DICT", 1)
    neg = BooleanFunction(1, dict1.table ^ 0b11)
    vals = [
        _kind_values(table_measures(1, dict1.table), kind)[0],
        _kind_values(table_measures(1, neg.table), kind)[0],
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


def _influence_violation(rec: TableMeasures, kind: CoordinateMeasureKind) -> int | None:
    """First relevant coordinate (0-based) with 2^-m_i > 2^-r * Inf_i, or None.

    ``r`` is the dictator floor of the measure.  With Inf_i = cnt/2^n the
    test reads 2^e > cnt for e = n + r - m_i.  A relevant coordinate has
    cnt >= 1, so it fails iff e > 0 and 2^(q e) > cnt^q, q the denominator
    of e: exact for every kind.  Summed over the coordinates, the bound
    gives potential <= 2^-r * I[f], since irrelevant coordinates have no
    influence.
    """
    r = _dictator_floor(kind)
    values = _kind_values(rec, kind)
    counts = rec.inf_counts
    for i0, d in enumerate(rec.diffs):
        if not d:
            continue
        e = rec.n + r - values[i0]
        if e > 0 and 1 << e.numerator > counts[i0] ** e.denominator:
            return i0
    return None


def _monomial_sens_violation(
    rec: TableMeasures, ks: Iterable[int]
) -> tuple[int, int, int] | None:
    """(k, mask, count) for the smallest k in ``ks`` at which some monomial
    has more than (k-1)^2 coordinates with sens_i <= k, at the first such
    monomial; or None.

    Only the multilinear (Moebius) basis is scanned, masks in increasing
    order, once for every k.  The Fourier basis can never decide the check:
    substituting x_i = (1 - y_i)/2 into f = sum c_T x^T puts every nonempty
    Fourier support set S of 1 - 2f inside some T with c_T != 0.  So
    |S & low| <= |T & low|, a spectral hit at k is a monomial hit at the
    same k, and as the least k is kept, a Fourier pass never changes the
    result.  A k whose set {i : sens_i <= k} equals that of a smaller k in
    ``ks`` is skipped: with the same count and a larger limit it fails only
    where the smaller k fails too.
    """
    n = rec.n
    check_arity(n, EXACT_SEARCH_MAX_ARITY, "monomial sensitivity check")
    sens = rec.sens_i
    tests = []  # (k, low-sensitivity set, limit), k increasing
    prev = 0
    for k in sorted(ks):
        low = sum(1 << i for i in range(n) if sens[i] <= k)
        if low != prev:
            tests.append((k, low, (k - 1) ** 2))
        prev = low
    hit = None
    for mask, c in enumerate(rec.mobius):
        if c:
            for j, (k, low, limit) in enumerate(tests):
                cnt = (mask & low).bit_count()
                if cnt > limit:
                    # from here on only a smaller k can take its place
                    hit = (k, mask, cnt)
                    del tests[j:]
                    break
    return hit
