"""Exact global complexity measures of truth tables.

All search-heavy measures (block sensitivity, certificates, decision-tree
depth) run in exact mode only, guarded by arity caps that raise instead of
truncating.  Each cap is checked by ``bf.check_arity`` inside the kernel
that every caller shares (``_point_certificates``, ``_block_sensitivity``,
``_dt_depth``, and ``coordinate._monomial_sens_violation``), so the theorem
suite meets the same caps as the public functions; ``approx_degree`` and
``lp.adeg_lp`` check the approximate-degree cap.  Certificates read one
table of the monochromatic subcubes of f, and block sensitivity packs
minimal sensitive blocks only at the points whose certificate could raise
it.  Hot paths work on packed ``(n, table)`` pairs and are memoised in
bounded caches, so corpus sweeps over all functions of a small arity stay
fast; the public API wraps them for :class:`~bfc.bf.BooleanFunction` values.

Everything here is a pure function of the table; the memo tables are only
ever written under the interpreter lock, so concurrent calls on distinct
functions are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
# kernels on (n, table), memoised where a result is read again
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 17)
def _diffs(n: int, table: int) -> tuple[int, ...]:
    return tuple(diff_mask(table, n, i) for i in range(n))


@lru_cache(maxsize=1 << 17)
def _point_sensitivity(n: int, table: int) -> tuple[int, ...]:
    sx = [0] * (1 << n)
    for d in _diffs(n, table):
        while d:
            low = d & -d
            sx[low.bit_length() - 1] += 1
            d ^= low
    return tuple(sx)


def _sensitivity(n: int, table: int) -> tuple[int, int, int]:
    """(s, s0, s1)."""
    sx = _point_sensitivity(n, table)
    s = s0 = s1 = 0
    for x, v in enumerate(sx):
        if (table >> x) & 1:
            s1 = max(s1, v)
        else:
            s0 = max(s0, v)
    s = max(s0, s1)
    return s, s0, s1


@lru_cache(maxsize=1 << 17)
def _mobius(n: int, table: int) -> tuple[int, ...]:
    return tuple(mobius_vector(n, table))


@lru_cache(maxsize=1 << 17)
def _degree(n: int, table: int) -> int:
    return degree_of_vector(_mobius(n, table))


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


@lru_cache(maxsize=1 << 16)
def _point_certificates(n: int, table: int) -> tuple[int, ...]:
    """C_x for every point: n minus the largest monochromatic subcube at x."""
    check_arity(n, EXACT_SEARCH_MAX_ARITY, "certificate search")
    by_dim = [0] * (n + 1)
    for smask, m in enumerate(_mono_subcubes(n, table)):
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


class CertificateReport(NamedTuple):
    C: int
    C0: int
    C1: int
    Cmin: int
    Cmin0: int
    Cmin1: int
    per_point: tuple[int, ...]


@lru_cache(maxsize=1 << 16)
def _certificates(n: int, table: int) -> CertificateReport:
    cx = _point_certificates(n, table)
    c0s = [cx[x] for x in range(1 << n) if not (table >> x) & 1]
    c1s = [cx[x] for x in range(1 << n) if (table >> x) & 1]
    C0 = max(c0s, default=0)
    C1 = max(c1s, default=0)
    Cmin0 = min(c0s, default=0)
    Cmin1 = min(c1s, default=0)
    return CertificateReport(
        max(C0, C1), C0, C1, min(cx), Cmin0, Cmin1, cx
    )


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


@lru_cache(maxsize=1 << 16)
def _block_sensitivity(n: int, table: int) -> BlockSensitivityReport:
    """bs and the first point, in index order, that attains it.

    Since bs_x <= C_x (a certificate meets every sensitive block), a point
    with C_x <= best cannot raise the count and is skipped, and the search
    stops once best reaches max C_x; the points that could win are visited
    as before, so the witness does not change.
    """
    check_arity(n, EXACT_SEARCH_MAX_ARITY, "block sensitivity")
    cx = _point_certificates(n, table)
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


@lru_cache(maxsize=1 << 17)
def _influence_counts(n: int, table: int) -> tuple[int, ...]:
    """#{x : f(x) != f(x^i)} for each coordinate."""
    return tuple(popcount(d) for d in _diffs(n, table))


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def degree(f: BooleanFunction) -> int:
    """Degree of the multilinear expansion; 0 for constants."""
    return _degree(f.n, f.table)


class SensitivityReport(NamedTuple):
    s: int
    s0: int
    s1: int
    per_point: tuple[int, ...]


def sensitivity(f: BooleanFunction) -> SensitivityReport:
    s, s0, s1 = _sensitivity(f.n, f.table)
    return SensitivityReport(s, s0, s1, _point_sensitivity(f.n, f.table))


def block_sensitivity(f: BooleanFunction) -> BlockSensitivityReport:
    return _block_sensitivity(f.n, f.table)


def certificate_complexity(f: BooleanFunction) -> CertificateReport:
    return _certificates(f.n, f.table)


def dt_depth(f: BooleanFunction) -> int:
    return _dt_depth(f.n, f.table)


class InfluenceReport(NamedTuple):
    per_coordinate: tuple[Fraction, ...]
    total: Fraction


def influence(f: BooleanFunction) -> InfluenceReport:
    """Counting influences, cross-checked exactly against the spectrum."""
    n, table = f.n, f.table
    counts = _influence_counts(n, table)
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

    top = _degree(f.n, f.table)
    for d in range(top + 1):
        if simplex_feasible(adeg_lp(f, d, eps)).feasible:
            return d
    return top


@dataclass(frozen=True)
class MeasureReport:
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
