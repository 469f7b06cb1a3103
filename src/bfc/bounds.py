"""Dynamic-programming bound tables and closed-form tail sums.

One crank builds every bound table: ``dp_mixed_ds`` for the potential
sum 2^-(beta deg_i + (1-beta) sens_i), and the degree table is its
beta = 1 case.  Grids are computed in double precision from per-step
weights that are exact rationals when every exponent is an integer (so
the degree table is dyadic) and otherwise the lower ends of
``_pow2_bounds``, an integer enclosure of 2^(p/q) to POW2_BITS bits, each
taken as an integer and a shift; the monotone-degree recursion is exact, on
integers at one dyadic scale.  Infinite tails are closed forms where the
cap function is polynomial and partial sums plus a closed-form remainder
otherwise.  The remainder is taken from the upper ends of the enclosures,
so it bounds the true remainder up to its final rounding to a double; the
cells and partial sums are doubles and carry no such guarantee.
``_mixing_weight`` is the one guard on beta for the table and for the crude
influence minimum, which is found from its exact optimality condition, with
no scan.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm, log
from typing import NamedTuple

# 2^(p/q) is enclosed to POW2_BITS bits below the binary point; each printed
# float is the correctly rounded value of an enclosure this tight
POW2_BITS = 192

# guard bits: the ends of a chain of w + 1 products, each rounded one way
# throughout, lie at most 4(3w + 4) < 2^12 units of 2^-w apart at POW2_BITS
_GUARD = 12

# 10-digit Euler-Mascheroni constant used by the certificate/sensitivity bound
EULER_GAMMA = 0.5772156649

# Largest d_max of the bound tables (raw, one 2-core x86-64 host, whole
# command at the bound): the monotone-degree recursion is quadratic, on
# integers of 31,373 bits, about 0.25 s; the monotone DT values have at most
# 3,010 digits there, below Python's 4,300-digit limit on int-to-str
# conversion, about 0.9 s; the cs table keeps a running sum of (1/2) H_d,
# about 0.12 s
MONOTONE_DEGREE_MAX_DMAX = 250
MONOTONE_DT_MAX_DMAX = 10000
CS_TABLE_MAX_DMAX = 600

# Caps on block sensitivity per degree certified by the moment-curve LP scan
# (reproduced and re-verified by lp.lp_bs_cap; see tests).
LP_CAP_TABLE = {
    1: 1, 2: 3, 3: 6, 4: 10, 5: 15, 6: 21, 7: 29,
    8: 38, 9: 47, 10: 58, 11: 71, 12: 84, 13: 99, 14: 114,
}

# the bound tables sum their tails explicitly up to this degree; d_max <= 64
_TAIL_CUTOFF = 400


@lru_cache(maxsize=None)
def _root_chain(w: int, up: int) -> tuple[int, ...]:
    """2^(2^-i) * 2^w for i = 0..w, each the integer square root of the one
    before, rounded down (up = 0) or up (up = 1)."""
    roots = [2 << w]
    for _ in range(w):
        roots.append(isqrt((roots[-1] << w) - up) + up)
    return tuple(roots)


@lru_cache(maxsize=4096)
def _pow2_bounds(p: int, q: int, bits: int = POW2_BITS) -> tuple[int, int]:
    """Integers lo <= 2^(p/q) * 2^bits <= hi for q >= 1, of O(bits) bits.

    For p/q = k + r/q, 0 <= r < q, 2^(r/q) is the product of 2^(2^-i) over
    the binary digits of r/q to w = bits + _GUARD places, each rounded down
    for lo and up for hi, then shifted by k: lo == hi when r == 0 and
    k >= -bits, and hi - lo <= 2 when k == 0 and bits == POW2_BITS.
    """
    w, (k, r) = bits + _GUARD, divmod(p, q)
    ends = []
    for up in (0, 1):
        digits, acc = -(-(r << w) // q) if up else (r << w) // q, 1 << w
        for digit, root in zip(f"{digits:0{w + 1}b}", _root_chain(w, up)):
            if digit == "1":
                acc = -(-acc * root >> w) if up else acc * root >> w
        s = k - _GUARD
        ends.append(acc << s if s >= 0 else -(-acc >> -s) if up else acc >> -s)
    return ends[0], ends[1]


def _pow2_parts(p: int, q: int, up: int = 0) -> tuple[int, int]:
    """(m, s) with m * 2^s the value ``_pow2`` gives for e = p/q, q >= 1."""
    k, r = divmod(p, q)
    return (1, k) if r == 0 else (_pow2_bounds(r, q)[up], k - POW2_BITS)


def _pow2(e, up=0):
    """2^e for rational e: exact when e is an integer (an int for e >= 0, a
    Fraction below), else the dyadic lower (up = 0) or upper (up = 1) end of
    ``_pow2_bounds``, within 2^(floor(e) + 1 - POW2_BITS) of 2^e."""
    m, s = _pow2_parts(e.numerator, e.denominator, up)
    return m << s if s >= 0 else Fraction(m, 1 << -s)


def _pow2_sum_sign(terms) -> int:
    """Sign (-1, 0 or 1) of sum c * 2^e over a list of rational pairs (c, e).

    Over the common denominator q of the exponents the sum is sum_r c_r
    2^(r/q), 0 <= r < q, with rational c_r.  x^q - 2 is irreducible
    (Eisenstein at 2), so the sum is 0 iff every c_r is; otherwise
    enclosures at doubling precision separate it from 0.
    """
    q = lcm(*(e.denominator for _, e in terms))
    coeff = {}
    for c, e in terms:
        k, r = divmod(e.numerator * (q // e.denominator), q)
        coeff[r] = coeff.get(r, 0) + c * _pow2(k)
    bits = POW2_BITS
    while any(coeff.values()):
        ends = [(c, _pow2_bounds(r, q, bits)) for r, c in coeff.items()]
        lo = sum(c * b[c < 0] for c, b in ends)
        hi = sum(c * b[c > 0] for c, b in ends)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2
    return 0


def _mixing_weight(beta) -> Fraction:
    """beta as a Fraction, refused unless 0 < beta <= 1 and the upper end of
    2^-beta lies below 1, so that the geometric tails in r = 2^-beta have
    a finite, positive enclosure."""
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise ValueError(f"mixing weight must lie in (0, 1], got {beta}")
    if _pow2(-beta, 1) >= 1:
        raise ValueError(
            f"mixing weight {beta} is too small: 2^-beta rounds to 1 at {POW2_BITS} bits"
        )
    return beta


def markov_cap(d: int) -> int:
    """Largest b with b^2 - b <= (2/3)(d^4 - d^2), exactly."""
    c = 2 * (d ** 4 - d ** 2) // 3  # d^4 - d^2 is always divisible by 3
    b = (1 + isqrt(1 + 4 * c)) // 2
    while b * b - b > c:
        b -= 1
    while (b + 1) * (b + 1) - (b + 1) <= c:
        b += 1
    return max(1, b)


# the cap each source knows at degree d (None where it knows none), and the
# sources of each mode in order of preference
_CAP_RULES = {"lp-table": LP_CAP_TABLE.get, "square": lambda d: d * d, "markov": markov_cap}
_MODE_SOURCES = {
    "square": ("square",), "lp": ("lp-table", "square"), "markov": ("lp-table", "markov"),
}


class CapProfile(NamedTuple):
    """Per-degree upper bound on block sensitivity, with provenance.

    The cap at d is the least cap among the mode's sources that know d, and
    its source is the first of them that attains it.
    """

    mode: str  # "square" | "lp" | "markov"

    def _cap(self, d: int) -> tuple[int, str]:
        if d < 1:
            raise ValueError(f"degree must be positive, got {d}")
        known = [(_CAP_RULES[src](d), src) for src in _MODE_SOURCES[self.mode]]
        return min((c for c in known if c[0] is not None), key=lambda c: c[0])

    def bd(self, d: int) -> int:
        return self._cap(d)[0]

    def source(self, d: int) -> str:
        return self._cap(d)[1]


SQUARE_CAPS = CapProfile("square")
LP_CAPS = CapProfile("lp")
MARKOV_CAPS = CapProfile("markov")


def cap_profile(name: str) -> CapProfile:
    try:
        return {"square": SQUARE_CAPS, "lp": LP_CAPS, "markov": MARKOV_CAPS}[name]
    except KeyError:
        raise ValueError(f"unknown cap mode {name!r}") from None


# ---------------------------------------------------------------------------
# geometric tail sums
# ---------------------------------------------------------------------------

def _base_sums(r):
    s0 = 1 / (1 - r)
    s1 = r / (1 - r) ** 2
    s2 = r * (1 + r) / (1 - r) ** 3
    s3 = r * (1 + 4 * r + r * r) / (1 - r) ** 4
    return (s0, s1, s2, s3)


def power_tail(m: int, a: int, r, shift=None):
    """Closed form of sum_{k>=a} k^m r^k for m <= 3 and 0 < r < 1.

    Exact for Fraction r; returns the same numeric type as ``r`` otherwise.
    ``shift`` stands in for r^a, for a caller that encloses r^a directly
    rather than as a power of an enclosure of r.
    """
    if m not in (0, 1, 2, 3):
        raise ValueError(f"power_tail supports exponents 0..3, got {m}")
    base = _base_sums(r)
    shift = r ** a if shift is None else shift
    total = 0
    for t in range(m + 1):
        total += comb(m, t) * (a ** (m - t)) * base[t]
    return shift * total


# ---------------------------------------------------------------------------
# the potential table
# ---------------------------------------------------------------------------

class BoundGrid(NamedTuple):
    """Table of potential bounds indexed by (block sensitivity, degree)."""

    d_max: int
    caps: CapProfile
    bd: tuple[int, ...]  # cap per degree, index 1..d_max
    rows: tuple[tuple[float, ...], ...]  # rows[d][b], b = 0..bd[d]
    corner: float
    tail_first: float
    tail_series: float
    tail_remainder: float
    headline: float

    def cell(self, b: int, d: int) -> float:
        if not 1 <= d <= self.d_max:
            raise ValueError(f"degree {d} outside table")
        if b < 0:
            raise ValueError("block sensitivity must be >= 0")
        if b > self.bd[d]:
            return 0.0
        return self.rows[d][b]

    def cap_sources(self) -> tuple[str, ...]:
        return tuple(self.caps.source(d) for d in range(1, self.d_max + 1))

    def to_text(self, b_step: int = 1) -> str:
        lines = ["b\\d\t" + "\t".join(str(d) for d in range(1, self.d_max + 1))]
        bmax = max(self.bd[1:])
        for b in range(0, bmax + 1, b_step):
            row = [str(b)]
            for d in range(1, self.d_max + 1):
                row.append(f"{self.cell(b, d):.9f}" if b <= self.bd[d] else "-")
            lines.append("\t".join(row))
        lines.append(f"corner\t{self.corner:.9f}")
        lines.append(f"tail_first\t{self.tail_first:.3e}")
        lines.append(f"tail_series\t{self.tail_series:.3e}")
        lines.append(f"tail_remainder\t{self.tail_remainder:.3e}")
        lines.append(f"headline\t{self.headline:.9f}")
        return "\n".join(lines)


def _uniform_step(d: int, beta: Fraction) -> float:
    """One restriction round of a degree-d monomial, flat sens_i >= 2 bound."""
    a, b = beta.numerator, beta.denominator
    m, s = _pow2_parts(-(a * d + 2 * (b - a)), b)  # the exponent is below 0
    return d * m / (1 << -s)


def _profile_step(d: int, beta: Fraction) -> float:
    """One restriction round, with the monomial sensitivity profile.

    Within a degree-d monomial at most (k-1)^2 coordinates can have
    sens_i <= k, so the per-round weight sum_{i in M} 2^-(beta d +
    (1-beta) sens_i) is maximised by the staircase profile a_k = 2k-3;
    at beta = 1 (rho = 1) the staircase sums to d, the flat d * 2^-d round.
    """
    a, b = beta.numerator, beta.denominator
    # rho = 2^(beta-1) = n / 2^e: a dyadic end of _pow2_parts, or 1 at beta = 1
    n, e = _pow2_parts(a - b, b)
    e = -e  # beta - 1 <= 0, so e >= 0
    root = isqrt(d)
    # the staircase is n^2 prof / 2^(e (root+2)), prof by Horner
    prof = d - root * root
    for k in range(root + 1, 1, -1):
        prof = prof * n + ((2 * k - 3) << e * (root + 2 - k))
    trivial = d << e * root  # d rho^2 on the same scale
    m, s = _pow2_parts(-a * d, b)  # 2^(-beta d), s <= 0
    # one correctly rounded int/int division, as for the reduced fractions
    return n * n * min(prof, trivial) * m / (1 << e * (root + 2) - s)


def dp_degree(d_max: int, caps: CapProfile) -> BoundGrid:
    """Bound table for the degree potential: the mixed table at beta = 1.

    Each cell is min(d/2, d*2^-d + max over lower-degree cells at one less
    block sensitivity); every weight is dyadic and evaluated exactly.
    """
    return dp_mixed_ds(1, d_max, caps)


def dp_mixed_ds(
    beta, d_max: int, caps: CapProfile, step: str = "profile"
) -> BoundGrid:
    """Bound table for the degree/sensitivity potential, 0 < beta <= 1.

    Coordinates of a top-degree monomial have deg_i = d and sens_i >= 2, so
    the influence cap of a degree-d cell is d / 2^(2-beta).  Each cell is
    min(that cap, one restriction round at degree d + max over lower-degree
    cells at one less block sensitivity); cells beyond the block-sensitivity
    cap are zero.  ``step`` selects the per-round weight: "profile"
    (default) applies the monomial sensitivity staircase, "uniform" uses the
    flat d * 2^-(beta d + 2(1-beta)) bound, which is strictly weaker (it
    lands near 8.83 at beta=1/2 instead of 7.6); both equal d * 2^-d at
    beta = 1.  The headline adds to the corner the tail past the grid: the
    first term relaxes the cap to B_{d_max+1}, the series goes on one degree
    at a time (one step each) up to degree 400, and a closed form bounds the
    remainder.
    """
    beta = _mixing_weight(beta)
    if step not in ("profile", "uniform"):
        raise ValueError(f"unknown step rule {step!r}")
    if not 2 <= d_max <= 64:
        raise ValueError(f"table supports 2 <= d_max <= 64, got {d_max}")
    weight = _profile_step if step == "profile" else _uniform_step
    # the cap and one restriction round per degree, for the grid and its tail
    bd = [0] + [caps.bd(d) for d in range(1, _TAIL_CUTOFF + 1)]
    steps = [0.0] + [weight(d, beta) for d in range(1, _TAIL_CUTOFF + 1)]
    cap_amp = float(_pow2(beta - 2))
    # every cap mode is dominated by the square profile (differences
    # 2k-1) and every step by the flat k * rho^2 * 2^(-beta k) round
    a = _TAIL_CUTOFF + 1
    # a sum of positive terms increasing in r, r^a and the amplitude, so the
    # upper ends of their enclosures keep it above the true remainder
    r, ra, amp = _pow2(-beta, 1), _pow2(-beta * a, 1), _pow2(2 * beta - 2, 1)
    remainder = float(amp * (2 * power_tail(2, a, r, ra) - power_tail(1, a, r, ra)))
    if any(lo > hi for lo, hi in zip(bd[1:], bd[2:])):
        raise AssertionError(f"{caps.mode} caps fall with the degree")
    cap_v = [d * cap_amp for d in range(d_max + 1)]
    rows = [[0.0] * (bd[d] + 1) for d in range(d_max + 1)]
    live = 1  # the first column with a cell at b - 1; the caps never fall
    for b in range(1, bd[d_max] + 1):
        while bd[live] < b - 1:
            live += 1
        prefix = 0.0
        for d in range(live, d_max + 1):
            prev = rows[d][b - 1]
            if prev > prefix:
                prefix = prev
            if b <= bd[d]:
                rows[d][b] = min(cap_v[d], steps[d] + prefix)
    corner = rows[d_max][bd[d_max]]
    first = bd[d_max + 1] * steps[d_max + 1]
    series = 0.0
    for k in range(d_max + 2, _TAIL_CUTOFF + 1):
        series += (bd[k] - bd[k - 1]) * steps[k]
    return BoundGrid(
        d_max=d_max,
        caps=caps,
        bd=tuple(bd[:d_max + 1]),
        rows=tuple(tuple(r) for r in rows),
        corner=corner,
        tail_first=first,
        tail_series=series,
        tail_remainder=remainder,
        headline=corner + first + series + remainder,
    )


# ---------------------------------------------------------------------------
# monotone degree recursion (exact rationals)
# ---------------------------------------------------------------------------

class MonotoneDegreeTable(NamedTuple):
    values: tuple[Fraction, ...]  # index 1..d_max
    headline: Fraction

    def to_text(self) -> str:
        lines = []
        for d in range(1, len(self.values)):
            v = self.values[d]
            lines.append(f"{d}\t{v.numerator}/{v.denominator}\t{float(v):.9f}")
        h = self.headline
        lines.append(f"headline\t{h.numerator}/{h.denominator}\t{float(h):.9f}")
        return "\n".join(lines)


def dp_monotone_degree(d_max: int) -> MonotoneDegreeTable:
    """Exact recursion for the degree potential of monotone functions.

    From the base 1/2 at degrees 1 and 2, each step takes the best k of
    min(k*2^-k + (1-2^-k)*prev, k*2^-d + prev); the headline adds the exact
    dyadic tail sum_{d>d_max} d/2^d.  Every value is dyadic and step d adds
    at most d bits to its denominator, so the recursion runs on integers at
    the one scale 2^T, T = 1 + 3 + ... + d_max, where prev * 2^-k is the
    exact shift prev >> k.
    """
    if not 2 <= d_max <= MONOTONE_DEGREE_MAX_DMAX:
        raise ValueError(
            f"table supports 2 <= d_max <= {MONOTONE_DEGREE_MAX_DMAX}, got {d_max}"
        )
    t = d_max * (d_max + 1) // 2 - 2
    vals = [0, 1 << t - 1, 1 << t - 1]
    for d in range(3, d_max + 1):
        prev = vals[d - 1]
        best = 0
        for k in range(1, d + 1):
            cand = min((k << t - k) + prev - (prev >> k), (k << t - d) + prev)
            if cand > best:
                best = cand
        vals.append(best)
    values = tuple(Fraction(v, 1 << t) for v in vals)
    tail = power_tail(1, d_max + 1, Fraction(1, 2))
    return MonotoneDegreeTable(values, values[d_max] + tail)


# ---------------------------------------------------------------------------
# mixed-measure closed forms
# ---------------------------------------------------------------------------

class InfluenceMinimum(NamedTuple):
    k: int
    value: float


def ds_influence_min(beta) -> InfluenceMinimum:
    """Minimise F(k) = 2^(beta-2) (k + sum_{i>k} i^3 2^(-beta i)) over k >= 1.

    F(k+1) - F(k) = 2^(beta-2) (1 - x^3 2^(-beta x)) with x = k + 1, and
    x^3 2^(-beta x) is log-concave and at least 2 at x = 2, so F falls up to
    the least x >= 2 with x^3 <= 2^(beta x) and never falls after it: the
    least minimiser is k = x - 1, ties included.  The condition is decided
    exactly by ``_pow2_sum_sign``, the least such x found by doubling and
    bisection, and F(k) evaluated once with the cubic tail in closed form, in
    exact rationals from the lower ends of the powers of two (exactly at
    beta = 1), then rounded to a double.
    """
    beta = _mixing_weight(beta)

    def rises(x: int) -> bool:  # F(x) >= F(x - 1)
        return _pow2_sum_sign([(1, beta * x), (-x ** 3, 0)]) >= 0

    lo, hi = 2, 4  # F falls at lo and rises at hi
    while not rises(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rises(mid) else (mid, hi)
    tail = power_tail(3, hi, _pow2(-beta), _pow2(-beta * hi))
    return InfluenceMinimum(hi - 1, float(_pow2(beta - 2) * (hi - 1 + tail)))


def cs_harmonic_bound(d: int) -> Fraction:
    """Exact (1/2) * H_d."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return Fraction(1, 2) * sum(Fraction(1, i) for i in range(1, d + 1))


def cs_sens_bound(s: int) -> float:
    """Natural-log form ln(s) + gamma/2 of the certificate/sensitivity bound."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return log(s) + EULER_GAMMA / 2


# ---------------------------------------------------------------------------
# monotone decision-tree relevant-variable table
# ---------------------------------------------------------------------------

class MonotoneDtTable(NamedTuple):
    values: tuple[int, ...]  # R_0..R_dmax
    ratio: Fraction  # R_dmax / 2^dmax

    def to_text(self) -> str:
        lines = [f"{d}\t{v}" for d, v in enumerate(self.values)]
        lines.append(
            f"ratio\t{self.ratio.numerator}/{self.ratio.denominator}"
            f"\t{float(self.ratio):.9f}"
        )
        return "\n".join(lines)


def monotone_dt_table(d_max: int) -> MonotoneDtTable:
    """Iterate the three-way recursion for relevant variables at fixed depth.

    Starting from 0, 1 the exact integer sequence obeys 2^(d-2) + 2 from
    depth 4 on (asserted), and the headline ratio R_d / 2^d approaches 1/4.
    """
    if not 1 <= d_max <= MONOTONE_DT_MAX_DMAX:
        raise ValueError(f"table supports 1 <= d_max <= {MONOTONE_DT_MAX_DMAX}, got {d_max}")
    R = [0, 1]
    for d in range(2, d_max + 1):
        R.append(max(2 * R[d - 1] - 2, 2 + 2 * R[d - 2], 1 + R[d - 1]))
    for d in range(4, d_max + 1):
        if R[d] != 2 ** (d - 2) + 2:
            raise AssertionError(
                f"closed form failed at depth {d}: {R[d]} != 2^{d - 2} + 2"
            )
    return MonotoneDtTable(tuple(R), Fraction(R[d_max], 1 << d_max))
