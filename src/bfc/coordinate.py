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

from .bf import (
    ArityError,
    BooleanFunction,
    _mobius_lanes,
    _support_at_one,
    check_arity,
    family,
    half_mask,
)
from .bounds import _pow2
from .measures import (
    EXACT_SEARCH_MAX_ARITY,
    TableMeasures,
    _edge_sums,
    _flip_lanes,
    _lane_halves,
    _lane_max,
    _lanes,
    _size_levels,
    _top_size,
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
# ``measures.TableMeasures`` record, so the checks below, the theorem suite
# and the public functions share one memo.  The record reads them off its
# one-byte-per-point integers of s_x and C_x and its Moebius support, one
# bit per mask, with no loop over the points.
# ---------------------------------------------------------------------------

# the base measures each kind reads, the mixes weighting the first by beta
_BASES = {
    "deg": ("deg",),
    "sens": ("sens",),
    "cert": ("cert",),
    "mix_ds": ("deg", "sens"),
    "mix_cs": ("cert", "sens"),
}


def _mix(kind: CoordinateMeasureKind, first, second) -> Fraction:
    return kind.beta * first + (1 - kind.beta) * second


def _kind_values(rec: TableMeasures, kind: CoordinateMeasureKind) -> tuple:
    """The measure per coordinate: the record's ints for deg, sens and cert,
    Fractions for the two mixes."""
    if kind.tag == "deg":
        return rec.deg_i
    if kind.tag == "sens":
        return rec.sens_i
    if kind.tag == "cert":
        return rec.cert_i
    first, second = (getattr(rec, f"{tag}_i") for tag in _BASES[kind.tag])
    return tuple(_mix(kind, a, b) for a, b in zip(first, second))


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
    then b.  No record of a restriction is built or read: ``_Axioms``
    decides every (i0, j0) by lane-wise threshold tests on f's own record,
    whose points carry the restrictions' s_x and C_x, and reads exact
    per-branch values only where a test fails.  A kind kept from f by an
    arity cap raises its ArityError once no kind before it fails; no later
    kind is read.
    """
    coords = tuple(coords)
    vals = []
    capped = None
    for kind in kinds:
        try:
            vals.append(_kind_values(rec, kind))
        except ArityError as err:
            capped = err
            break
    axioms = _Axioms(rec, coords)
    for kind, m in zip(kinds, vals):
        found = axioms.first_hit(kind, m)
        if found:
            return (kind, *found)
    if capped is not None:
        raise capped
    return None


class _Axioms:
    """Both axioms at every (i, j) of one function's ``coords``, for
    ``_rrcm_violation``.

    Write m_i for f's measure at i, and drop_ij = 1 iff i is relevant in f
    and irrelevant on one branch of x_j, whose measure at i is then 0.
    Both axioms hold at (i, j) iff the measure at i of both branches is at
    most m_i - drop_ij.  So a pair that passes that test holds, and
    ``first_hit`` scans only the pairs that fail it, in the kernel's order,
    with exact per-branch values.  A mix passes wherever its two base
    kinds pass (its per-branch values and m_i are the same mix of theirs),
    so it is scanned only at their failing pairs.

    deg needs no lanes: the largest deg_i over the branches of x_j is the
    largest |S| with i in S, j not in S and c_S or c_(S+j) nonzero, so the
    pairs of one i are tested at once against the union of those supports
    over every j, and its drop pairs at once against their union.

    sens and cert read f's own 2**n points.  Block j of
    ``rec.branch_sens_lanes`` or ``rec.branch_cert_lanes`` holds, at each
    point x, the restriction f|x_j=x_j's s_x or C_x there, and an edge
    along i != j never leaves its branch of x_j, so both branches of x_j
    sit in block j under f's own coordinate numbering.  E_ij, the sum of
    block j and its flip along i masked to f's sensitive i-edges, is then
    the restriction's edge sum along i, whose largest byte over x_j = b
    is the branch's measure at i.  Adding 127 - m_i + drop_ij sets a
    byte's 0x80 bit iff it exceeds m_i - drop_ij.

    Every block is at most f's own lanes, byte by byte: s_x falls by
    [x is sensitive to j], and C_x - 1 <= C^j_x <= C_x
    (``measures._branch_lanes``).  So E_ij is at most E_i, the same sum over
    f's own lanes, and where E_i stays at most m_i only the drop pairs of
    i can fail; the other pairs of i are tested only where E_i does not.
    One block of 2**n points is built at a time, whatever the arity, and
    f's edge lanes are kept for the coordinates under test alone.
    """

    def __init__(self, rec: TableMeasures, coords: tuple[int, ...]):
        n = rec.n
        self.rec, self.n, self.coords = rec, n, coords
        # bit j of dead[b][i]: i matters for f but not on its branch x_j = b
        self.dead = dead = ([0] * n, [0] * n)
        halves = [half_mask(n, j) for j in range(n)]
        for i, d in enumerate(rec.diffs):
            for j, lo in enumerate(halves if d else ()):
                if not d & lo:
                    dead[0][i] |= 1 << j
                elif not d >> (1 << j) & lo:
                    dead[1][i] |= 1 << j
        self.drop = [a | b for a, b in zip(*dead)]
        self.ones = _lanes((1 << (1 << n)) - 1)
        self.pairs = {}

    def first_hit(self, kind: CoordinateMeasureKind, m: tuple) -> tuple[int, int, int, str] | None:
        """First (i0, j0, b, axiom) of ``kind``, whose f values are ``m``."""
        first, *rest = map(self._failing, _BASES[kind.tag])
        failing = first.union(*rest) if rest else first
        if not failing:
            return None
        for j in range(self.n):
            for i in self.coords:
                if (i, j) not in failing:
                    continue
                v = [self._value(kind, i, j, b) for b in (0, 1)]
                for b in (0, 1):
                    if v[b] > m[i]:
                        return i, j, b, "axiom1"
                    if self.dead[b][i] >> j & 1 and v[1 - b] > m[i] - 1:
                        return i, j, b, "axiom2"
        return None

    def _failing(self, tag: str) -> set[tuple[int, int]]:
        """The (i, j) at which base ``tag`` fails the threshold test."""
        got = self.pairs.get(tag)
        if got is None:
            got = self.pairs[tag] = self._deg_failing() if tag == "deg" else self._lane_failing(tag)
        return got

    def _deg_failing(self) -> set[tuple[int, int]]:
        n, u, m = self.n, self.rec.support, self.rec.deg_i
        levels = _size_levels(n)
        either = [(u | u >> (1 << j)) & half_mask(n, j) for j in range(n)]
        wide = 0
        for e in either:
            wide |= e
        out = set()
        for i in self.coords:
            with_i, t = ~half_mask(n, i), m[i]
            larger = 0  # the masks of more than t coordinates
            for level in levels[t + 1:] if t >= 0 else ():
                larger |= level
            # a branch with no S holding i has deg 0, which exceeds any t < 0
            if t < 0 or wide & with_i & larger:
                out.update((i, j) for j in range(n) if j != i)
            elif self.drop[i]:
                # the drop pairs of i, tested at once against t - 1
                drop_js = [j for j in range(n) if self.drop[i] >> j & 1]
                dropped = 0
                for j in drop_js:
                    dropped |= either[j]
                larger |= levels[t] if t <= n else 0
                if t == 0 or dropped & with_i & larger:
                    out.update((i, j) for j in drop_js)
        return out

    def _block(self, tag: str, j: int) -> int:
        """Block j of the restrictions' s_x or C_x."""
        if tag == "sens":
            return self.rec.branch_sens_lanes(j)
        bits = 8 << self.n
        return self.rec.branch_cert_lanes >> bits * j & (1 << bits) - 1

    def _lane_failing(self, tag: str) -> set[tuple[int, int]]:
        n, drop, rec = self.n, self.drop, self.rec
        m = getattr(rec, f"{tag}_i")
        own = rec.sens_lanes if tag == "sens" else rec.cert_lanes
        t, ones = rec.table_lanes, self.ones
        top = ones << 7
        # 127 - m_i with m_i clamped to -1, and one more at a drop pair:
        # sums of at most 2n <= 40 gain at most 129, so no byte carries.
        # The flips of _edge_sums are written out: this loop is the row's
        # hot path on small tables
        lift = [127 - max(v, -1) for v in m]
        edges = {}  # per i tested: its flip and f's sensitive i-edges
        tests = [[] for _ in range(n)]  # per j, the i whose pair (i, j) is tested
        for i in self.coords:
            if m[i] >= 127:  # no sum of two bytes reaches it
                continue
            lo, s = _lane_halves(n)[i]
            edge = (t ^ ((t >> s) & lo | (t & lo) << s)) * 255
            if (own + ((own >> s) & lo | (own & lo) << s) & edge) + lift[i] * ones & top:
                pending = (1 << n) - 1 ^ 1 << i
            else:
                pending = drop[i]
            if pending:
                edges[i] = lo, s, edge
            while pending:
                tests[(pending & -pending).bit_length() - 1].append(i)
                pending &= pending - 1
        out = set()
        for j, idx in enumerate(tests):
            p = self._block(tag, j) if idx else 0
            for i in idx:
                lo, s, edge = edges[i]
                sums = p + ((p >> s) & lo | (p & lo) << s) & edge
                if sums + (lift[i] + (drop[i] >> j & 1)) * ones & top:
                    out.add((i, j))
        return out

    def _value(self, kind: CoordinateMeasureKind, i: int, j: int, b: int):
        """The measure of ``kind`` at i on the branch x_j = b."""
        vals = [self._base(tag, i, j, b) for tag in _BASES[kind.tag]]
        return vals[0] if len(vals) == 1 else _mix(kind, *vals)

    def _base(self, tag: str, i: int, j: int, b: int) -> int:
        """deg_i, sens_i or cert_i of f|x_j=b at f's coordinate i."""
        n = self.n
        if tag == "deg":
            return _top_size(n, self._support(j, b) & ~half_mask(n, i))
        t, halves = self.rec.table_lanes, _lane_halves(n)
        sums = _edge_sums(self._block(tag, j), t ^ _flip_lanes(t, *halves[i]), *halves[i])
        lo, s = halves[j]
        return _lane_max(sums >> s & lo if b else sums & lo, n)

    def _support(self, j: int, b: int) -> int:
        """The Moebius support of f|x_j=b, as masks of f's coordinates."""
        n, rec = self.n, self.rec
        if b == 0:
            return rec.support & half_mask(n, j)
        return _support_at_one(n, _mobius_lanes(n, rec.table), j)


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
    has more than (k-1)^2 coordinates with sens_i <= k, at the least such
    monomial; or None.

    Only the multilinear (Moebius) basis is scanned.  The Fourier basis can
    never decide the check: substituting x_i = (1 - y_i)/2 into
    f = sum c_T x^T puts every nonempty Fourier support set S of 1 - 2f
    inside some T with c_T != 0.  So |S & low| <= |T & low|, a spectral hit
    at k is a monomial hit at the same k, and as the least k is kept, a
    Fourier pass never changes the result.  A k whose set
    {i : sens_i <= k} equals that of a smaller k in ``ks`` is skipped: with
    the same count and a larger limit it fails only where the smaller k
    fails too; so is a k whose limit is at least the size of that set.

    Each k is one bitset pass with no Python step per mask: a threshold DP
    over the coordinates i of the set builds at[c], the 2^n-bit mask of the
    masks holding at least c of them (at[c] gains at[c-1] on the masks
    that hold i), and the hits at k are ``rec.support & at[limit + 1]``,
    the least of them its lowest set bit.  The ks are tried in increasing
    order, so the first k with a hit is the answer.
    """
    n = rec.n
    check_arity(n, EXACT_SEARCH_MAX_ARITY, "monomial sensitivity check")
    sens = rec.sens_i
    full = (1 << (1 << n)) - 1
    prev = 0
    for k in sorted(ks):
        low = sum(1 << i for i in range(n) if sens[i] <= k)
        if low == prev:
            continue
        prev = low
        t = (k - 1) ** 2 + 1
        if t > low.bit_count():
            continue
        at = [full] + [0] * t
        coords = [i for i in range(n) if low >> i & 1]
        for seen, i in enumerate(coords, 1):
            with_i = full ^ half_mask(n, i)
            for c in range(min(t, seen), 0, -1):
                at[c] |= at[c - 1] & with_i
        hits = rec.support & at[t]
        if hits:
            mask = (hits & -hits).bit_length() - 1
            return k, mask, (mask & low).bit_count()
    return None
