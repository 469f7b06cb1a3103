"""Inequality roster, structural lemma checks, and corpus verification.

Every relation the toolkit certifies is evaluated function by function over
a corpus.  Each row reads the function's measures from one
``measures.TableMeasures`` record, private to the suite and let go after
the function's rows, so the rows of one function share every measure and
no row looks the function up in the memo again.  The comparisons are
exact integer ones: rational quantities (potentials, the symmetrised
polynomial on its grid) are scaled by a common denominator, and the
constants 4.3935, 1.325 and 8.277 are read as decimal fractions
(``relvars_ds``, whose bound carries 2^(deg/2), is compared squared).  Only
``relvars_cs``, whose bound carries ln s, compares floats, against
``bounds.cs_sens_bound`` with no slack (``tests/test_verify.py`` checks the
float verdict against a 60-digit one over s <= C <= 20 and nrel <= 20).
Aggregation keeps the first counterexample and the tightest instance per
check.

The suite runs once per orbit of the corpus under coordinate permutations
(``Corpus.representatives``), each verdict counted with its orbit's size.
So every row's status and margin must be invariant under permuting the
coordinates; ``tests/test_verify.py`` checks each registered row against
its images under adjacent transpositions.  Representatives come in
increasing table order, each its orbit's least member, so the first FAIL,
the first non-SKIP function and the first function of greatest margin, and
with them the printed cells, are those of the plain per-function sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import gt, mul
from typing import NamedTuple

from .bf import ArityError, BooleanFunction, _bit_string, _table_bytes, half_mask
from .bounds import cs_sens_bound
from .corpus import Corpus
from .coordinate import (
    ALL_BASE_KINDS,
    _influence_violation,
    _monomial_sens_violation,
    _rrcm_violation,
)
from .measures import (
    TableMeasures,
    _approx_degree,
    _lane_halves,
    _lane_min,
    _size_levels,
    table_measures,
)

# constants certified by the bound engine (see bounds.dp_degree and friends),
# kept exact so that each is compared with an integer count as integers
RELVARS_PER_2DEG = Fraction("4.3935")
RELVARS_MIXED_DS = Fraction("8.277")
MONOTONE_PER_2DEG = Fraction("1.325")


# ---------------------------------------------------------------------------
# standard form and symmetrisation
# ---------------------------------------------------------------------------

def standard_form(f: BooleanFunction) -> BooleanFunction:
    """Translate a block-sensitivity witness to 0 and merge its blocks.

    The result g has arity bs(f), g(0) = 0 and g = 1 on every weight-1
    input; both facts are asserted after construction.
    """
    return _standard_form(table_measures(f.n, f.table))


def _standard_form(rec: TableMeasures) -> BooleanFunction:
    """``standard_form`` of the function of the record ``rec``."""
    if rec.f.is_constant():
        raise ValueError("standard form needs a non-constant function")
    rep = rec.bs
    b = rep.bs
    zidx = sum(bit << i for i, bit in enumerate(rep.witness_input))
    block_masks = [
        sum(1 << (i - 1) for i in blk) for blk in rep.witness_blocks
    ]
    # index y of g is zidx with the blocks of y's bits flipped, built a
    # block at a time; g takes f's values there, negated if f(zidx) = 1
    idx = [zidx]
    for m in block_masks:
        idx += [x ^ m for x in idx]
    bits = _bit_string(rec.n, rec.table)
    table = int("".join(map(bits.__getitem__, reversed(idx))), 2)
    if rec.table >> zidx & 1:
        table ^= (1 << (1 << b)) - 1
    g = BooleanFunction(b, table)
    if g.bit(0) != 0:
        raise AssertionError("standard form lost g(0) = 0")
    for j in range(b):
        if g.bit(1 << j) != 1:
            raise AssertionError(f"standard form lost g(e_{j + 1}) = 1")
    return g


def _symmetrized(n: int, table: int) -> list[int]:
    """Univariate coefficients after substituting one value for all inputs.

    Index k holds the sum of the multilinear coefficients of all size-k
    subsets, trailing zeros dropped; evaluating at mu gives the expected
    value of the function under i.i.d. Bernoulli(mu) inputs.  That value
    is sum_w a_w mu^w (1 - mu)^(n-w), with a_w the number of 1-points of
    weight w (one popcount against ``_size_levels``), so expanding
    (1 - mu)^(n-w) gives index k as
    sum_{w<=k} (-1)^(k-w) C(n-w, k-w) a_w (``_weight_rows``), with no
    Python step per mask.
    """
    a = [(table & level).bit_count() for level in _size_levels(n)]
    out = [sum(map(mul, row, a)) for row in _weight_rows(n)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@lru_cache(maxsize=None)
def _weight_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k holds (-1)^(k-w) C(n-w, k-w) for w = 0..k: the coefficient of
    mu^k in mu^w (1 - mu)^(n-w)."""
    return tuple(
        tuple((-1) ** (k - w) * math.comb(n - w, k - w) for w in range(k + 1))
        for k in range(n + 1)
    )


def _pair_coefficients(n: int, table: int) -> list[int]:
    """The multilinear coefficients c_ij of x_i x_j, i < j in that order,
    each read off four table bits: g(e_i + e_j) - g(e_i) - g(e_j) + g(0)."""
    g = _table_bytes(n, table)
    return [g[ij] - g[i] - g[j] + g[0] for ij, i, j in _pair_points(n)]


@lru_cache(maxsize=None)
def _pair_points(n: int) -> tuple[tuple[int, int, int], ...]:
    """(e_i + e_j, e_i, e_j) as points, for i < j in order."""
    return tuple(
        (1 << i | 1 << j, 1 << i, 1 << j) for i in range(n) for j in range(i + 1, n)
    )


def _grid_bounded(p: list[int], b: int) -> bool:
    """|p(k/b)| <= 1 for k = 0..b, by integer Horner on b^D p(k/b).

    With D = deg p, b^D p(k/b) = sum_j p_j k^j b^(D-j).
    """
    top = b ** (len(p) - 1)
    for k in range(b + 1):
        acc, scale = 0, 1
        for c in reversed(p):
            acc = acc * k + c * scale
            scale *= b
        if abs(acc) > top:
            return False
    return True


class StandardFormReport(NamedTuple):
    passed: bool
    quadratic_ok: bool
    second_derivative_ok: bool
    degree_ok: bool
    grid_ok: bool
    detail: str = ""


def check_standard_form_lemmas(g: BooleanFunction) -> StandardFormReport:
    """Pairwise coefficients in {-1,-2}, curvature window, degree, and the
    [0,1] grid bound of the symmetrised polynomial."""
    if g.bit(0) != 0 or any(g.bit(1 << j) != 1 for j in range(g.n)):
        raise ValueError("function is not in standard form")
    return _standard_form_lemmas(
        g, _symmetrized(g.n, g.table), table_measures(g.n, g.table).deg
    )


def _standard_form_lemmas(g: BooleanFunction, p: list[int], deg: int) -> StandardFormReport:
    """``check_standard_form_lemmas`` for a g in standard form whose
    symmetrised polynomial p and degree are already known."""
    b = g.n
    quad = _pair_coefficients(b, g.table)
    quad_ok = all(c in (-1, -2) for c in quad)
    quad_sum = sum(quad)
    pairs = len(quad)
    second = 2 * quad_sum
    second_ok = -4 * pairs <= second <= -2 * pairs if pairs else True
    degree_ok = len(p) - 1 <= deg
    grid_ok = b < 1 or _grid_bounded(p, b)
    passed = quad_ok and second_ok and degree_ok and grid_ok
    return StandardFormReport(
        passed, quad_ok, second_ok, degree_ok, grid_ok,
        detail=f"b={b} sum_cij={quad_sum}",
    )


def _markov_quartic(bs: int, d: int) -> bool:
    """bs^2 - bs <= (2/3)(d^4 - d^2), times 3 to stay in integers."""
    return 3 * (bs * bs - bs) <= 2 * (d ** 4 - d * d)


def _markov_quadratic(bs: int, d: int) -> bool:
    """bs <= sqrt(2/3) d^2 + 1, squared and times 3 (vacuous for bs = 0)."""
    return bs < 1 or 3 * (bs - 1) ** 2 <= 2 * d ** 4


# ---------------------------------------------------------------------------
# monotone decision-tree structure
# ---------------------------------------------------------------------------

def _dt_intersect(rec: TableMeasures):
    """For each 0-based root i0 of a monotone f in turn, (Cmin0(f0) +
    Cmin1(f1), |shared| + 1) for the branches f0, f1 at i0, or None when a
    branch is constant; shared are the coordinates relevant to both
    branches.

    Both are read on f's own record ``rec``, which builds no branch
    record: block i0 of ``branch_cert_lanes`` holds f0's C at f's points
    with x_i0 = 0 and f1's at those with x_i0 = 1, and a coordinate k is
    relevant to the branch x_i0 = b iff f's sensitive k-edges meet that
    half.  The lanes and value masks are read once, at the first root
    whose branches are both non-constant, and the roots are generated
    lazily, so a caller that stops at a root reads no later one.
    """
    n, table, diffs = rec.n, rec.table, rec.diffs
    bits = 8 << n
    block = (1 << bits) - 1
    lanes = None
    for i0, (lo_lanes, _) in enumerate(_lane_halves(n)):
        lo = half_mask(n, i0)
        s = 1 << i0
        f0, f1 = table & lo, table >> s & lo
        if f0 in (0, lo) or f1 in (0, lo):
            yield None
            continue
        if lanes is None:
            lanes = rec.branch_cert_lanes
            zeros, ones = rec._value_masks()
        shared = sum(1 for k, d in enumerate(diffs) if k != i0 and d & lo and d >> s & lo)
        here = lanes >> bits * i0 & block
        # the least byte over f0's 0-points and over f1's 1-points, every
        # other point set to 0xff
        cmin0 = _lane_min(here | ones | block ^ lo_lanes, n)
        cmin1 = _lane_min(here | zeros | lo_lanes, n)
        yield cmin0 + cmin1, shared + 1


class DoublingFunction:
    """Lazy evaluator for the depth-doubling monotone family.

    Level 1 is a dictator, level 2 a two-input AND; level d plugs two fresh
    copies of level d-2 under a two-query gate.  Arity is 2 + 2*arity(g),
    beyond any truth-table cap, so evaluation recurses on demand.
    """

    def __init__(self, level: int):
        if level < 1:
            raise ValueError("level must be >= 1")
        self.level = level
        if level == 1:
            self.inner = None
            self.arity = 1
        elif level == 2:
            self.inner = None
            self.arity = 2
        else:
            self.inner = DoublingFunction(level - 2)
            self.arity = 2 + 2 * self.inner.arity

    def evaluate(self, bits) -> int:
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} bits")
        if self.level == 1:
            return bits[0]
        if self.level == 2:
            return bits[0] & bits[1]
        m = self.inner.arity
        a, b = bits[0], bits[1]
        if a == 0:
            return b & self.inner.evaluate(bits[2:2 + m])
        return b | self.inner.evaluate(bits[2 + m:])

    def relevance_witnesses(self) -> list[tuple[tuple[int, ...], int]]:
        """A (input, coordinate) pair per coordinate with x_c = 0 and
        f(x) != f(x^c); constructed recursively, verified by the caller."""
        if self.level == 1:
            return [((0,), 1)]
        if self.level == 2:
            return [((0, 1), 1), ((1, 0), 2)]
        m = self.inner.arity
        zeros = (0,) * m
        ones = (1,) * m
        out = [
            ((0, 1) + zeros + zeros, 1),  # flipping a turns b&g(0)=0 into b|g=1
            ((0, 0) + ones + zeros, 2),  # flipping b turns 0 into g(1)=1
        ]
        for x, c in self.inner.relevance_witnesses():
            out.append(((0, 1) + x + zeros, 2 + c))
            out.append(((1, 0) + zeros + x, 2 + m + c))
        return out


def dt_doubling_family(d: int) -> BooleanFunction:
    """Truth table of the doubling family member of depth budget d.

    The arities run 1, 2, 4, 6, 10, 14, 22, ..., so every level within the
    truth-table cap is within the decision-tree cap too.
    """
    ev = DoublingFunction(d)
    f = BooleanFunction.from_callable(ev.arity, ev.evaluate)
    if not f.is_monotone():
        raise AssertionError("doubling construction lost monotonicity")
    if f.num_relevant() != f.n:
        raise AssertionError("doubling construction has irrelevant inputs")
    if table_measures(f.n, f.table).dt > d:
        raise AssertionError("doubling construction exceeded its depth budget")
    return f


def certify_doubling_recurrence(d: int) -> list[tuple[int, int]]:
    """(level, relevant count) per level of the doubling chain up to d.

    Relevance of every coordinate is measured directly: each witness pair is
    evaluated on both sides of the flip, and since witnesses cover all
    coordinates the count equals the arity exactly.  Works beyond the
    truth-table arity cap because evaluation is lazy.
    """
    out = []
    for level in range(1 if d % 2 else 2, d + 1, 2):
        ev = DoublingFunction(level)
        wits = ev.relevance_witnesses()
        seen = set()
        for x, c in wits:
            if not (0 < c <= ev.arity) or x[c - 1] != 0:
                raise AssertionError("malformed relevance witness")
            lo = ev.evaluate(x)
            hi = ev.evaluate(tuple(b ^ 1 if i == c - 1 else b for i, b in enumerate(x)))
            if lo == hi:
                raise AssertionError(f"witness failed at level {level}, coord {c}")
            seen.add(c)
        if len(seen) != ev.arity:
            raise AssertionError(f"witness set incomplete at level {level}")
        out.append((level, ev.arity))
    for (l1, n1), (l2, n2) in zip(out, out[1:]):
        if n2 != 2 * n1 + 2:
            raise AssertionError(
                f"relevant-variable recurrence broken between {l1} and {l2}"
            )
    return out


# ---------------------------------------------------------------------------
# influence averaging under restriction
# ---------------------------------------------------------------------------

def check_influence_restriction_average(
    f: BooleanFunction, i: int, coords
) -> bool:
    """Counting form of the averaging identity, exact in integers."""
    H = sorted(set(coords))
    if i in H or not 1 <= i <= f.n:
        raise ValueError("coordinate must lie outside the restricted set")
    ii = i - sum(1 for j in H if j < i)  # the index of x_i once H is fixed
    total = 0
    for bits in range(1 << len(H)):
        g = f.restrict([(j, (bits >> t) & 1) for t, j in enumerate(H)])
        total += table_measures(g.n, g.table).inf_counts[ii - 1]
    return total == table_measures(f.n, f.table).inf_counts[i - 1]


# ---------------------------------------------------------------------------
# the theorem suite
# ---------------------------------------------------------------------------

class TheoremCheck(NamedTuple):
    check_id: str
    inequality: str
    left: str
    right: str
    passed: bool
    witness: str
    checked: int
    skipped: int

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.check_id}\t{status}\t{self.checked}\t{self.skipped}"
            f"\t{self.left}\t{self.right}\t{self.witness}"
        )


def _margin(left, right) -> float:
    """left - right of a passing verdict, or -inf unless both are numbers:
    float(left) - float(right), with -inf where float raises TypeError or
    ValueError, left read first.  A text side is read through
    ``_text_number``, which parses each distinct text once: most rows
    print the same few texts, and most of those are no number."""
    try:
        a = _text_number(left) if type(left) is str else float(left)
        if a is None:
            return -math.inf
        b = _text_number(right) if type(right) is str else float(right)
    except (TypeError, ValueError):
        return -math.inf
    return -math.inf if b is None else a - b


@lru_cache(maxsize=1024)
def _text_number(text: str) -> float | None:
    """float(text), or None where that raises ValueError."""
    try:
        return float(text)
    except ValueError:
        return None


class _Accumulator:
    def __init__(self, check_id: str, inequality: str):
        self.check_id = check_id
        self.inequality = inequality
        self.checked = 0
        self.skipped = 0
        self.failed = False
        self.first_cex = None  # (left, right, label)
        self.tightest = None  # (margin, left, right, label)

    def record(self, status: str, left, right, label: str, weight: int):
        """Count one verdict for ``weight`` functions, all sharing it."""
        if status == "SKIP":
            self.skipped += weight
            return
        self.checked += weight
        if status == "FAIL":
            if not self.failed:
                self.failed = True
                self.first_cex = (left, right, label)
            return
        margin = _margin(left, right)
        if self.tightest is None or margin > self.tightest[0]:
            self.tightest = (margin, left, right, label)

    def report(self) -> TheoremCheck:
        if self.failed:
            left, right, label = self.first_cex
        elif self.tightest is not None:
            _, left, right, label = self.tightest
        else:
            left = right = label = "-"
        return TheoremCheck(
            self.check_id,
            self.inequality,
            str(left),
            str(right),
            not self.failed,
            label,
            self.checked,
            self.skipped,
        )


def _cmp(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _check_chain(rec: TableMeasures):
    s, bs = rec.sens[0], rec.bs.bs
    ok = s <= bs <= rec.certs.C <= rec.dt
    return _cmp(ok), f"s={s},bs={bs},C={rec.certs.C}", f"DT={rec.dt}"


def _check_deg_le_dt(rec: TableMeasures):
    return _cmp(rec.deg <= rec.dt), rec.deg, rec.dt


def _check_deg_le_s2(rec: TableMeasures):
    s = rec.sens[0]
    return _cmp(rec.deg <= s * s), rec.deg, s * s


def _check_markov_bs2(rec: TableMeasures):
    bs, d = rec.bs.bs, rec.deg
    rhs = f"{2 * (d ** 4 - d * d) / 3:.4f}"
    return _cmp(_markov_quartic(bs, d)), bs * bs - bs, rhs


def _check_markov_bs1(rec: TableMeasures):
    bs = rec.bs.bs
    if bs < 1:
        return "PASS", 0, 0
    rhs = f"{math.sqrt(2.0 / 3.0) * rec.deg ** 2 + 1:.4f}"
    return _cmp(_markov_quadratic(bs, rec.deg)), bs, rhs


def _within_per_2deg(nrel: int, const: Fraction, deg: int) -> bool:
    """nrel <= const * 2^deg, times const's denominator to stay in integers."""
    return nrel * const.denominator <= const.numerator << deg


def _check_relvars_deg(rec: TableMeasures):
    ok = _within_per_2deg(rec.nrel, RELVARS_PER_2DEG, rec.deg)
    return _cmp(ok), rec.nrel, f"{float(RELVARS_PER_2DEG) * 2.0 ** rec.deg:.4f}"


def _check_relvars_cert(rec: TableMeasures):
    ok = 2 * rec.nrel <= 4 ** rec.certs.C
    return _cmp(ok), rec.nrel, f"4^{rec.certs.C}/2"


def _check_relvars_inf_deg(rec: TableMeasures):
    # n <= I * 2^(deg-1), scaled by 2^(n+1) to stay in integers
    lhs = rec.nrel << (rec.n + 1)
    rhs = sum(rec.inf_counts) << rec.deg
    return _cmp(lhs <= rhs), rec.nrel, f"I*2^{rec.deg - 1}"


def _check_relvars_inf_sens(rec: TableMeasures):
    s = rec.sens[0]
    lhs = rec.nrel << (rec.n + 2)
    rhs = sum(rec.inf_counts) * 4 ** s
    return _cmp(lhs <= rhs), rec.nrel, f"I*4^{s - 1}"


def _within_mixed_ds(nrel: int, deg: int, s: int) -> bool:
    """nrel <= const * 2^(deg/2 + s), squared and times den^2 to stay in integers."""
    const = RELVARS_MIXED_DS
    return (nrel * const.denominator) ** 2 <= const.numerator ** 2 << (deg + 2 * s)


def _check_relvars_mixed_ds(rec: TableMeasures):
    s = rec.sens[0]
    rhs = float(RELVARS_MIXED_DS) * 2.0 ** (rec.deg / 2.0 + s)
    return _cmp(_within_mixed_ds(rec.nrel, rec.deg, s)), rec.nrel, f"{rhs:.4f}"


def _check_relvars_mixed_cs(rec: TableMeasures):
    # checked with gamma/2 = 0.2886..., the tighter of the two published
    # constants; the 0.29 form is implied and reported alongside
    s = rec.sens[0]
    if s == 0:
        return "SKIP", 0, 0
    amp = 4.0 ** ((rec.certs.C + s) / 2.0)
    rhs = cs_sens_bound(s) * amp
    loose = (math.log(s) + 0.29) * amp
    return (
        _cmp(rec.nrel <= rhs),
        rec.nrel,
        f"{rhs:.4f} (0.29 form: {loose:.4f})",
    )


def _check_cert_potential(rec: TableMeasures):
    # sum over relevant i of 2^-cert_i, as num / 2^top with top = max cert_i
    exps = [c for c, d in zip(rec.cert_i, rec.diffs) if d]
    top = max(exps, default=0)
    num = sum(1 << (top - e) for e in exps)
    g = math.gcd(num, 1 << top)
    return _cmp(2 * num <= 1 << top), f"{num // g}/{(1 << top) // g}", "1/2"


def _check_rrcm(rec: TableMeasures):
    # The mixes beta*a + (1-beta)*b (beta in [0, 1]) of two base measures
    # need no check of their own.  If neither a nor b grows under a
    # restriction, their mix does not grow (axiom 1); if both drop by at
    # least one, so does the mix (axiom 2), whose premise does not depend
    # on the measure.  So the mixes pass wherever DEG, SENS and CERT do,
    # and a failing base kind is reported before any mix could be.
    hit = _rrcm_violation(rec, ALL_BASE_KINDS, range(rec.n))
    if hit:
        kind, i0, j0, b, axiom = hit
        return "FAIL", f"{kind.label()} i={i0+1} j={j0+1} b={b}", axiom
    return "PASS", "-", "-"


def _check_influence_bound(rec: TableMeasures):
    for kind in ALL_BASE_KINDS:
        i0 = _influence_violation(rec, kind)
        if i0 is not None:
            return "FAIL", f"{kind.tag} i={i0+1}", "per-coordinate"
    return "PASS", "-", "-"


def _check_monomial_sens(rec: TableMeasures):
    hit = _monomial_sens_violation(rec, range(1, 7))
    if hit:
        k, mask, cnt = hit
        return "FAIL", f"k={k} mask={mask:#x} count={cnt}", (k - 1) ** 2
    return "PASS", "-", "-"


def _monomial_sens_cap(d: int) -> tuple[int, int]:
    """(num, e) with num / 2^e = the profile cap of a size-d monomial,
    sum_{k=2}^{r+1} (2k-3)/2^k + (d - r^2)/2^(r+2) with r = isqrt(d)."""
    root = math.isqrt(d)
    e = root + 2
    num = sum((2 * k - 3) << (e - k) for k in range(2, root + 2))
    return num + d - root * root, e


@lru_cache(maxsize=None)
def _monomial_caps(n: int) -> tuple[tuple[int, int], ...]:
    """``_monomial_sens_cap(d)`` for d = 0..n."""
    return tuple(_monomial_sens_cap(d) for d in range(n + 1))


_PLUS_ONE = bytes(range(1, 256)) + b"\0"


@lru_cache(maxsize=None)
def _mask_sizes(n: int) -> bytes:
    """Byte m is |m| for every mask m of n coordinates, built by doubling:
    the masks with the top coordinate are those below it plus one."""
    if n == 0:
        return b"\0"
    below = _mask_sizes(n - 1)
    return below + below.translate(_PLUS_ONE)


def _check_monomial_potential(rec: TableMeasures):
    """S(M) = sum_{i in M} 2^-sens_i < 3/2 and at most the profile cap of
    |M| on every monomial M of f.

    S(M) is kept as w[M] = 2^K S(M) with K = max sens_i, so every
    comparison is between integers; w is built a coordinate at a time, the
    masks with i being those below plus i.  Both tests together read
    w[M] <= L_|M| with L_k = min((3 * 2^K - 1) // 2, num_k 2^K // 2^e_k)
    for the cap num_k / 2^e_k, and are run over the support's masks in
    C-level passes (``compress`` on its bit bytes, ``map`` of ``gt``,
    ``any``).  Only on a failure are the support's masks walked in
    ascending order, to name the first and the test it fails.
    """
    n, sens = rec.n, rec.sens_i
    top = max((0,) + sens)
    caps = _monomial_caps(n)
    w = [0]
    for s in sens:
        w += map((1 << (top - s)).__add__, w[:])
    half = ((3 << top) - 1) >> 1
    limit = [min(half, (num << top) >> e) for num, e in caps]
    support = rec.support & ~1
    picked = _table_bytes(n, support)
    sizes = compress(_mask_sizes(n), picked)
    if not any(map(gt, compress(w, picked), map(limit.__getitem__, sizes))):
        return "PASS", "-", "-"
    while support:
        mask = (support & -support).bit_length() - 1
        support &= support - 1
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
    raise AssertionError("monomial potential: a mask over its limit passed both tests")


def _check_top_monomial_deg_i(rec: TableMeasures):
    """Each coordinate of each top monomial has deg_i = deg.  The first
    failure is the least such mask and its least coordinate i with
    deg_i != deg, so only the set bits of the support at size deg are
    walked, in ascending order, and none when every deg_i is deg."""
    d = rec.deg
    if d == 0:
        return "PASS", 0, 0
    short = sum(1 << i for i, k in enumerate(rec.deg_i) if k != d)
    top = rec.support & _size_levels(rec.n)[d] if short else 0
    while top:
        low = top & -top
        mask = low.bit_length() - 1
        hit = mask & short
        if hit:
            return "FAIL", f"mask={mask:#x} i={(hit & -hit).bit_length()}", f"deg_i != {d}"
        top ^= low
    return "PASS", "-", "-"


def _check_standard_form(rec: TableMeasures):
    if rec.f.is_constant():
        return "SKIP", 0, 0
    g = _standard_form(rec)
    bs = rec.bs.bs
    if g.n != bs:
        return "FAIL", f"arity {g.n}", f"bs {bs}"
    p = _symmetrized(g.n, g.table)
    linear = p[1] if len(p) > 1 else 0
    if linear != bs:
        return "FAIL", f"linear coeff {linear}", f"bs {bs}"
    # standard forms repeat over a corpus (OR_b most of all), so g's record
    # is shared, except at f's own arity: OR_n is the standard form of OR_n
    # and of AND_n, and the suite keeps its functions' records out of the memo
    if g.n == rec.n:
        g_rec = TableMeasures(g.n, g.table)
    else:
        g_rec = table_measures(g.n, g.table)
    rep = _standard_form_lemmas(g, p, g_rec.deg)
    if not rep.passed:
        return "FAIL", rep.detail, "standard-form lemmas"
    return "PASS", f"b={bs}", "-"


def _check_adeg(rec: TableMeasures):
    if rec.n > 3:
        return "SKIP", 0, 0
    ad = _approx_degree(rec, Fraction(1, 3))
    if ad > rec.deg:
        return "FAIL", f"adeg {ad}", f"deg {rec.deg}"
    bs = rec.bs.bs
    if bs > 5 * ad * ad and bs > 0:
        return "FAIL", f"bs {bs}", f"5*adeg^2 {5 * ad * ad}"
    return "PASS", f"adeg={ad}", f"deg={rec.deg}"


def _check_mono_s_bs_c(rec: TableMeasures):
    if not rec.monotone:
        return "SKIP", 0, 0
    s, bs = rec.sens[0], rec.bs.bs
    ok = s == bs == rec.certs.C
    return _cmp(ok), f"s={s},bs={bs}", f"C={rec.certs.C}"


def _check_mono_triple(rec: TableMeasures):
    if not rec.monotone:
        return "SKIP", 0, 0
    s = rec.sens[0]
    if 2 * rec.nrel > 4 ** s:
        return "FAIL", rec.nrel, f"4^{s}/2"
    if 4 * (rec.nrel - 2) > 1 << rec.dt:
        return "FAIL", rec.nrel, f"2^{rec.dt}/4+2"
    if not _within_per_2deg(rec.nrel, MONOTONE_PER_2DEG, rec.deg):
        return "FAIL", rec.nrel, f"{float(MONOTONE_PER_2DEG) * 2.0 ** rec.deg:.4f}"
    return "PASS", rec.nrel, f"min bound at deg={rec.deg},s={s},DT={rec.dt}"


def _check_mono_dt_intersect(rec: TableMeasures):
    if not rec.monotone:
        return "SKIP", 0, 0
    saw = False
    for i0, sides in enumerate(_dt_intersect(rec)):
        if sides and sides[0] > sides[1]:
            return "FAIL", f"root={i0 + 1} {sides[0]}", sides[1]
        saw = saw or sides is not None
    if not saw:
        return "SKIP", 0, 0
    return "PASS", "-", "-"


_GENERAL_CHECKS = (
    ("chain", "s <= bs <= C <= DT", _check_chain),
    ("deg_le_dt", "deg <= DT", _check_deg_le_dt),
    ("deg_le_s2", "deg <= s^2 [EXTERNAL]", _check_deg_le_s2),
    ("bs_quartic", "bs^2 - bs <= (2/3)(deg^4 - deg^2)", _check_markov_bs2),
    ("bs_quadratic", "bs <= sqrt(2/3) deg^2 + 1", _check_markov_bs1),
    ("relvars_deg", "n <= 4.3935 * 2^deg", _check_relvars_deg),
    ("relvars_cert", "n <= 4^C / 2", _check_relvars_cert),
    ("relvars_inf_deg", "n <= I * 2^(deg-1)", _check_relvars_inf_deg),
    ("relvars_inf_sens", "n <= I * 4^(s-1)", _check_relvars_inf_sens),
    ("relvars_ds", "n <= 8.277 * 2^(deg/2 + s)", _check_relvars_mixed_ds),
    ("relvars_cs", "n <= (ln s + 0.2886) * 4^((C+s)/2)", _check_relvars_mixed_cs),
    ("cert_potential", "sum 2^-cert_i <= 1/2", _check_cert_potential),
    ("rrcm", "restriction-reducing axioms, all five kinds", _check_rrcm),
    ("influence_bound", "2^-m_i <= 2^-r Inf_i, base kinds", _check_influence_bound),
    ("monomial_sens", "per-monomial low-sensitivity count <= (k-1)^2", _check_monomial_sens),
    ("monomial_potential", "S(M, f) < 3/2 and profile cap", _check_monomial_potential),
    ("top_monomial_deg_i", "deg_i = deg on top monomials", _check_top_monomial_deg_i),
    ("standard_form", "standard form arity, linear coeff, lemmas", _check_standard_form),
    ("adeg", "adeg <= deg, bs <= 5 adeg^2 (arity <= 3)", _check_adeg),
    ("mono_s_bs_C", "monotone: s = bs = C", _check_mono_s_bs_c),
    ("mono_triple", "monotone: n <= min(1.325*2^deg, 4^s/2, 2^DT/4+2)", _check_mono_triple),
    ("mono_dt_intersect", "monotone: Cmin0(f0)+Cmin1(f1) <= shared+1", _check_mono_dt_intersect),
)


def _run_check(fn, rec: TableMeasures):
    """(status, left, right) of one suite row; past an arity cap it skips."""
    try:
        return fn(rec)
    except ArityError:
        return "SKIP", 0, 0


def run_theorem_suite(corpus: Corpus, progress=None) -> list[TheoremCheck]:
    """Evaluate every registered inequality on every corpus function.

    Each check runs once per orbit representative, on one record of it
    built outside the ``table_measures`` memo and dropped after its rows,
    so the suite's memory does not grow with the corpus: only the
    restrictions the DT search shares and the standard forms of fewer
    inputs stay in the memo.  ``progress``, if given, receives the number of
    functions covered so far each time it passes a multiple of 4096.
    """
    accs = [_Accumulator(cid, ineq) for cid, ineq, _ in _GENERAL_CHECKS]
    covered = 0
    for label, f, weight in corpus.representatives():
        rec = TableMeasures(f.n, f.table)
        for acc, (_, _, fn) in zip(accs, _GENERAL_CHECKS):
            acc.record(*_run_check(fn, rec), label, weight)
        if progress and (covered + weight) >> 12 > covered >> 12:
            progress(covered + weight)
        covered += weight
    return [acc.report() for acc in accs]


def suite_failures(checks: list[TheoremCheck]) -> int:
    return sum(1 for c in checks if not c.passed)
