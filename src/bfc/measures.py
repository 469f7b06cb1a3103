"""Exact global complexity measures of truth tables.

All search-heavy measures (block sensitivity, certificates, decision-tree
depth) run in exact mode only, guarded by arity caps that raise instead of
truncating.  Each cap is checked by ``bf.check_arity`` inside the code
that every caller shares (``TableMeasures.point_certs``,
``TableMeasures.bs``, ``_dt_depth``, and
``coordinate._monomial_sens_violation``), so the theorem suite meets the
same caps as the public functions; ``approx_degree`` and ``lp.adeg_lp``
check the approximate-degree cap.  Certificates read one table of the
monochromatic subcubes of f, and block sensitivity packs minimal sensitive
blocks only at the points whose certificate could raise it.

Memoisation has one home per table.  A ``TableMeasures`` record carries
every per-table measure of one packed ``(n, table)`` pair, the coordinate
measures of ``coordinate.py`` among them, each computed on first read.
``table_measures`` is the one bounded memo, of one shared record per
table, so the theorem suite, the coordinate checks and the public API
(which wraps records for :class:`~bfc.bf.BooleanFunction` values) compute
each measure of a table once while its record stays in the memo.
Decision-tree depth keeps the memo of its own search, which recurses on
sub-tables that need no other measure.

Every field is a pure function of the table, so concurrent readers of one
record that race on a field compute the same value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .bf import (
    BooleanFunction,
    check_arity,
    degree_of_vector,
    diff_mask,
    flip_table,
    fourier_vector,
    half_mask,
    mobius_vector,
    popcount,
    restrict_bit,
)

# block sensitivity, certificates, DT depth, the monomial sensitivity check:
# at n = 13-14 (PARITY 14, MAJ 13, OR 14, a random and a sparse table) C, bs
# and DT each took at most about 0.63 s, and the certificate search peaked
# at 48 MB (raw seconds, one 2-core x86-64 host)
EXACT_SEARCH_MAX_ARITY = 14
# approximate degree and its LP (lp.adeg_lp): every 6-input table tried
# takes at most about 1 s, while 7 inputs already take 7-15 s
APPROX_DEGREE_MAX_ARITY = 6


# ---------------------------------------------------------------------------
# search kernels on (n, table)
# ---------------------------------------------------------------------------

def _fourier(n: int, table: int) -> tuple[int, ...]:
    """Walsh-Hadamard spectrum scaled by 2**n (integers)."""
    return tuple(fourier_vector(n, table))


def _mono_subcubes(n: int, table: int) -> list[int]:
    """``mono[S]``: bit x is set iff f is constant on ``{x ^ T : T <= S}``.

    Built bottom-up over the masks: with ``i`` the lowest coordinate of S,
    the subcube at x spanned by S is the one spanned by ``S - i`` at x and
    at ``x ^ i``, and f must agree across coordinate i at x.
    """
    agree = [~diff_mask(table, n, i) for i in range(n)]
    mono = [(1 << (1 << n)) - 1]
    for smask in range(1, 1 << n):
        i = (smask & -smask).bit_length() - 1
        prev = mono[smask ^ (1 << i)]
        mono.append(prev & flip_table(prev, n, i) & agree[i])
    return mono


class CertificateReport(NamedTuple):
    C: int
    C0: int
    C1: int
    Cmin: int
    Cmin0: int
    Cmin1: int
    per_point: tuple[int, ...]


def _minimal_sensitive_blocks(n: int, table: int, x: int) -> list[int]:
    """The minimal blocks B with f(x ^ B) != f(x), ascending.

    ``sens`` has bit B set iff f(x ^ B) != f(x); its upward closure ``up``
    has bit B set iff some sub-block of B is sensitive, and B is minimal
    iff it is sensitive while no ``B - i`` lies in ``up``.
    """
    moved = table
    rest = x
    while rest:
        low = rest & -rest
        moved = flip_table(moved, n, low.bit_length() - 1)
        rest ^= low
    sens = moved ^ (((1 << (1 << n)) - 1) if (table >> x) & 1 else 0)
    up = sens
    for i in range(n):
        up |= (up & half_mask(n, i)) << (1 << i)
    below = 0
    for i in range(n):
        below |= (up & half_mask(n, i)) << (1 << i)
    hit = sens & ~below
    blocks = []
    while hit:
        low = hit & -hit
        blocks.append(low.bit_length() - 1)
        hit ^= low
    return blocks


def _max_disjoint_packing(blocks: list[int], avail: int) -> tuple[int, tuple[int, ...]]:
    """Exact maximum disjoint sub-family, by memoised search over free masks."""
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def go(av: int) -> tuple[int, tuple[int, ...]]:
        got = memo.get(av)
        if got is not None:
            return got
        best, chosen = 0, ()
        for b in blocks:
            if b & ~av == 0:
                cnt, picked = go(av & ~b)
                if cnt + 1 > best:
                    best, chosen = cnt + 1, (b,) + picked
        memo[av] = (best, chosen)
        return best, chosen

    return go(avail)


class BlockSensitivityReport(NamedTuple):
    bs: int
    witness_input: tuple[int, ...]
    witness_blocks: tuple[frozenset[int], ...]


@lru_cache(maxsize=1 << 17)
def _dt_depth(n: int, table: int) -> int:
    """Minimax query depth; memoised on the canonical restricted table."""
    check_arity(n, EXACT_SEARCH_MAX_ARITY, "decision-tree depth")
    if table == 0 or table == (1 << (1 << n)) - 1:
        return 0
    best = n
    for i in range(n):
        if not diff_mask(table, n, i):
            continue
        d0 = _dt_depth(n - 1, restrict_bit(table, n, i, 0))
        if d0 + 1 >= best:
            continue
        d1 = _dt_depth(n - 1, restrict_bit(table, n, i, 1))
        best = min(best, 1 + max(d0, d1))
    return best


# ---------------------------------------------------------------------------
# the measure record of one table
# ---------------------------------------------------------------------------

class TableMeasures:
    """The measures of one truth table, each computed on first read and
    kept on the record.

    ``table_measures`` hands out the shared record of each table; a record
    built directly starts empty.  Decision-tree depth is read through
    ``_dt_depth``, whose memo also serves the sub-tables of its search.
    """

    def __init__(self, n: int, table: int):
        self.n = n
        self.table = table

    @cached_property
    def f(self) -> BooleanFunction:
        return BooleanFunction(self.n, self.table)

    @cached_property
    def monotone(self) -> bool:
        return self.f.is_monotone()

    @cached_property
    def diffs(self) -> tuple[int, ...]:
        return tuple(diff_mask(self.table, self.n, i) for i in range(self.n))

    @cached_property
    def nrel(self) -> int:
        """Number of relevant coordinates."""
        return sum(1 for d in self.diffs if d)

    @cached_property
    def point_sens(self) -> tuple[int, ...]:
        sx = [0] * (1 << self.n)
        for d in self.diffs:
            while d:
                low = d & -d
                sx[low.bit_length() - 1] += 1
                d ^= low
        return tuple(sx)

    @cached_property
    def sens(self) -> tuple[int, int, int]:
        """(s, s0, s1)."""
        s0 = s1 = 0
        for x, v in enumerate(self.point_sens):
            if (self.table >> x) & 1:
                s1 = max(s1, v)
            else:
                s0 = max(s0, v)
        return max(s0, s1), s0, s1

    @cached_property
    def mobius(self) -> tuple[int, ...]:
        return tuple(mobius_vector(self.n, self.table))

    @cached_property
    def deg(self) -> int:
        return degree_of_vector(self.mobius)

    @cached_property
    def point_certs(self) -> tuple[int, ...]:
        """C_x for every point: n minus the largest monochromatic subcube at x."""
        n = self.n
        check_arity(n, EXACT_SEARCH_MAX_ARITY, "certificate search")
        by_dim = [0] * (n + 1)
        for smask, m in enumerate(_mono_subcubes(n, self.table)):
            by_dim[popcount(smask)] |= m
        cx = [0] * (1 << n)
        seen = 0
        for k in range(n, -1, -1):
            new = by_dim[k] & ~seen
            seen |= new
            while new:
                low = new & -new
                cx[low.bit_length() - 1] = n - k
                new ^= low
        return tuple(cx)

    @cached_property
    def certs(self) -> CertificateReport:
        n, table = self.n, self.table
        cx = self.point_certs
        c0s = [cx[x] for x in range(1 << n) if not (table >> x) & 1]
        c1s = [cx[x] for x in range(1 << n) if (table >> x) & 1]
        C0 = max(c0s, default=0)
        C1 = max(c1s, default=0)
        Cmin0 = min(c0s, default=0)
        Cmin1 = min(c1s, default=0)
        return CertificateReport(
            max(C0, C1), C0, C1, min(cx), Cmin0, Cmin1, cx
        )

    @cached_property
    def bs(self) -> BlockSensitivityReport:
        """bs and the first point, in index order, that attains it.

        Since bs_x <= C_x (a certificate meets every sensitive block), a point
        with C_x <= best cannot raise the count and is skipped, and the search
        stops once best reaches max C_x; the points that could win are visited
        as before, so the witness does not change.
        """
        n, table = self.n, self.table
        check_arity(n, EXACT_SEARCH_MAX_ARITY, "block sensitivity")
        cx = self.point_certs
        top = max(cx)
        full = (1 << n) - 1
        best, best_x, best_blocks = 0, 0, ()
        for x, c in enumerate(cx):
            if best == top:
                break
            if c <= best:
                continue
            blocks = _minimal_sensitive_blocks(n, table, x)
            if len(blocks) <= best:
                continue
            cnt, chosen = _max_disjoint_packing(blocks, full)
            if cnt > best:
                best, best_x, best_blocks = cnt, x, chosen
        witness = tuple((best_x >> i) & 1 for i in range(n))
        blocks = tuple(
            frozenset(i + 1 for i in range(n) if (b >> i) & 1) for b in best_blocks
        )
        return BlockSensitivityReport(best, witness, blocks)

    @property
    def dt(self) -> int:
        return _dt_depth(self.n, self.table)

    @cached_property
    def inf_counts(self) -> tuple[int, ...]:
        """#{x : f(x) != f(x^i)} for each coordinate."""
        return tuple(popcount(d) for d in self.diffs)

    # -- coordinate measures (see coordinate.py) ----------------------------

    @cached_property
    def deg_i(self) -> tuple[int, ...]:
        """Degree of f(x) - f(x^i) for each coordinate (0 when irrelevant).

        With f = sum c_S x^S, flipping x_i turns x^S into (1 - x_i) x^(S-i) for
        S containing i, so f(x) - f(x^i) = sum_{S∋i} c_S (2 x^S - x^(S-i)).
        The terms 2 c_S x^S cannot cancel, so deg_i is the largest |S| with
        i in S and c_S != 0.
        """
        out = [0] * self.n
        for mask, c in enumerate(self.mobius):
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

    def _edge_max(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """max over sensitive edges {x, x^i} of point[x] + point[x^i], per coordinate.

        Each edge is visited once, from its endpoint with x_i = 0.
        """
        out = []
        for i, d in enumerate(self.diffs):
            bit = 1 << i
            d &= half_mask(self.n, i)
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

    @cached_property
    def sens_i(self) -> tuple[int, ...]:
        """max over sensitive edges of s_x + s_{x^i}, per coordinate."""
        return self._edge_max(self.point_sens)

    @cached_property
    def cert_i(self) -> tuple[int, ...]:
        """max over sensitive edges of C_x + C_{x^i}, per coordinate."""
        return self._edge_max(self.point_certs)


@lru_cache(maxsize=1 << 17)
def table_measures(n: int, table: int) -> TableMeasures:
    """The shared record of ``(n, table)``: the one memo of per-table measures."""
    return TableMeasures(n, table)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def degree(f: BooleanFunction) -> int:
    """Degree of the multilinear expansion; 0 for constants."""
    return table_measures(f.n, f.table).deg


class SensitivityReport(NamedTuple):
    s: int
    s0: int
    s1: int
    per_point: tuple[int, ...]


def sensitivity(f: BooleanFunction) -> SensitivityReport:
    rec = table_measures(f.n, f.table)
    return SensitivityReport(*rec.sens, rec.point_sens)


def block_sensitivity(f: BooleanFunction) -> BlockSensitivityReport:
    return table_measures(f.n, f.table).bs


def certificate_complexity(f: BooleanFunction) -> CertificateReport:
    return table_measures(f.n, f.table).certs


def dt_depth(f: BooleanFunction) -> int:
    return _dt_depth(f.n, f.table)


class InfluenceReport(NamedTuple):
    per_coordinate: tuple[Fraction, ...]
    total: Fraction


def influence(f: BooleanFunction) -> InfluenceReport:
    """Counting influences, cross-checked exactly against the spectrum."""
    n, table = f.n, f.table
    counts = table_measures(n, table).inf_counts
    w = _fourier(n, table)
    scale = 1 << n
    for i in range(n):
        spectral = sum(w[m] * w[m] for m in range(1 << n) if (m >> i) & 1)
        if spectral != counts[i] * scale:
            raise AssertionError(
                f"influence mismatch on coordinate {i + 1}: "
                f"count {counts[i]}/{scale} vs spectrum {spectral}/{scale * scale}"
            )
    per = tuple(Fraction(c, scale) for c in counts)
    return InfluenceReport(per, sum(per, Fraction(0)))


def approx_degree(f: BooleanFunction, eps: Fraction = Fraction(1, 3)) -> int:
    """Least degree admitting a uniform eps-approximation, by exact LP."""
    check_arity(f.n, APPROX_DEGREE_MAX_ARITY, "approximate degree")
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    from .lp import adeg_lp, simplex_feasible

    top = table_measures(f.n, f.table).deg
    for d in range(top + 1):
        if simplex_feasible(adeg_lp(f, d, eps)).feasible:
            return d
    return top


class MeasureReport(NamedTuple):
    """Every global measure of one function, with fixed serialisation order."""

    deg: int
    s: int
    s0: int
    s1: int
    bs: int
    C: int
    C0: int
    C1: int
    Cmin: int
    Cmin0: int
    Cmin1: int
    DT: int
    total_influence: Fraction
    influences: tuple[Fraction, ...]
    adeg: int | None = None
    adeg_eps: Fraction | None = None

    def to_tsv(self) -> str:
        rows = [
            ("deg", self.deg), ("s", self.s), ("s0", self.s0), ("s1", self.s1),
            ("bs", self.bs), ("C", self.C), ("C0", self.C0), ("C1", self.C1),
            ("Cmin", self.Cmin), ("Cmin0", self.Cmin0), ("Cmin1", self.Cmin1),
            ("DT", self.DT), ("I", _fmt_q(self.total_influence)),
        ]
        for i, v in enumerate(self.influences, start=1):
            rows.append((f"Inf{i}", _fmt_q(v)))
        if self.adeg is not None:
            rows.append(("adeg", self.adeg))
            rows.append(("adeg_eps", _fmt_q(self.adeg_eps)))
        return "\n".join(f"{k}\t{v}" for k, v in rows)


def _fmt_q(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def measure_report(
    f: BooleanFunction,
    with_adeg: bool = False,
    eps: Fraction = Fraction(1, 3),
) -> MeasureReport:
    sens = sensitivity(f)
    cert = certificate_complexity(f)
    infl = influence(f)
    adeg = approx_degree(f, eps) if with_adeg else None
    return MeasureReport(
        deg=degree(f),
        s=sens.s, s0=sens.s0, s1=sens.s1,
        bs=block_sensitivity(f).bs,
        C=cert.C, C0=cert.C0, C1=cert.C1,
        Cmin=cert.Cmin, Cmin0=cert.Cmin0, Cmin1=cert.Cmin1,
        DT=dt_depth(f),
        total_influence=infl.total,
        influences=infl.per_coordinate,
        adeg=adeg,
        adeg_eps=Fraction(eps) if with_adeg else None,
    )
