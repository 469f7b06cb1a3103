"""Exact rational linear-programming feasibility.

The decision procedure is a phase-1 simplex with Bland's anti-cycling rule
over an integer tableau: Edmonds' fraction-free form of Gaussian
elimination (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  Every row is
stored at its own determinant scale: a row last updated when the basis
determinant was ``d_r`` holds ``d_r`` times the textbook fraction row, so
every entry is a minor of the input and stays an integer.  A pivot updates
only the rows with a nonzero entry in the entering column, dividing exactly
by their old scale; the other rows keep theirs until they are next touched.
Signs and ratios within a row do not depend on the scale, so the pivoting
decisions are exactly those of the fraction tableau.

Both verdicts come with a certificate that is checked exactly before it is
returned.  A Feasible witness is re-substituted into every constraint.  An
Infeasible verdict carries Farkas multipliers y, read off the final
objective row at its known scale: y^T A = 0 and y^T b < 0, with y >= 0 on
``<=`` rows and y <= 0 on ``>=`` rows.

For systems with many rows the solver works incrementally: it runs phase-1
on a growing subset of the constraints and re-checks the returned point
against the full system.  A Farkas certificate of a subset, padded with
zeros, certifies the full system.

The cap scan ``lp_bs_cap`` has a solver of its own: a dual simplex on
vertex bases of the moment LP written in the binomial basis C(t, j).  It
keeps only the integer adjugate of the d tight rows and their determinant,
updated by the same exact divisions, and carries its basis from b to b + 1.
It stops at a vertex that satisfies every row, or at a Farkas certificate
on d + 1 rows that is checked exactly like the ones above.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from operator import mul
from typing import Sequence

from .bf import ArityError, BooleanFunction, popcount

RELATIONS = ("<=", "=", ">=")

# beyond this many rows _solve switches to constraint generation
_DENSE_ROW_LIMIT = 48

LP_CAP_SCAN_MAX_DEGREE = 16

_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}

# the numbers of the text format: an integer or num/den, nothing Fraction()
# would also expand (decimals, exponents); compiled on first use, by re's cache
_RATIONAL_TOKEN = r"-?[0-9]+(/[0-9]+)?"


Constraint = tuple[tuple[Fraction, ...], str, Fraction]
IntRow = tuple[tuple[int, ...], str, int]


def _row_scale(coeffs: Sequence[Fraction], rhs: Fraction) -> int:
    """Least positive integer that clears the denominators of one row."""
    return lcm(rhs.denominator, *(c.denominator for c in coeffs))


@dataclass(frozen=True)
class LinearProgram:
    """A rational constraint system queried for feasibility (no objective)."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    # each constraint scaled by _row_scale to integers, built once
    _int_rows: tuple[IntRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {self.num_vars}")
        int_rows = []
        for coeffs, rel, rhs in self.constraints:
            if len(coeffs) != self.num_vars:
                raise ValueError(
                    f"constraint width {len(coeffs)} != num_vars {self.num_vars}"
                )
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            scale = _row_scale(coeffs, rhs)
            int_rows.append(
                (
                    tuple(c.numerator * (scale // c.denominator) for c in coeffs),
                    rel,
                    rhs.numerator * (scale // rhs.denominator),
                )
            )
        object.__setattr__(self, "_int_rows", tuple(int_rows))

    @classmethod
    def build(cls, num_vars: int, rows: Sequence[tuple[Sequence, str, object]]):
        return cls(
            num_vars,
            tuple(
                (tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))
                for coeffs, rel, rhs in rows
            ),
        )

    def satisfies(self, x: Sequence[Fraction]) -> bool:
        return not _violations(self._int_rows, x, stop_early=True)

    def to_text(self) -> str:
        lines = [f"vars={self.num_vars}"]
        for coeffs, rel, rhs in self.constraints:
            parts = [f"{c.numerator}/{c.denominator}" for c in coeffs]
            parts.append(rel)
            parts.append(f"{rhs.numerator}/{rhs.denominator}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LinearProgram":
        """Parse ``to_text`` output; malformed text raises ``ValueError``."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("vars="):
            raise ValueError("LP text must start with 'vars=<k>'")
        k = int(lines[0][5:])
        rows = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != k + 2:
                raise ValueError(f"expected {k + 2} tokens, got {len(toks)}: {ln!r}")
            nums = toks[:k] + toks[k + 1:]
            bad = [t for t in nums if not re.fullmatch(_RATIONAL_TOKEN, t)]
            if bad:
                raise ValueError(f"expected an integer or num/den, got {bad[0]!r}")
            try:
                coeffs = tuple(Fraction(t) for t in toks[:k])
                rhs = Fraction(toks[k + 1])
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {ln!r}") from None
            rows.append((coeffs, toks[k], rhs))
        return cls.build(k, rows)


def _scaled_point(x: Sequence[Fraction]) -> tuple[list[int], int]:
    """A rational point as integer numerators over one common denominator."""
    qs = [Fraction(v) for v in x]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _gap(row: IntRow, nums: Sequence[int], den: int) -> int:
    """Violation of one integer row at the point nums/den, scaled by den.

    Positive iff the row is violated; zero iff it holds with equality.
    """
    coeffs, rel, rhs = row
    excess = sum(c * a for c, a in zip(coeffs, nums)) - rhs * den
    if rel == "<=":
        return excess
    if rel == ">=":
        return -excess
    return abs(excess)


def _violations(
    int_rows: Sequence[IntRow], x: Sequence[Fraction], stop_early: bool = False
) -> list[int]:
    """Violated row indices, most violated first."""
    nums, den = _scaled_point(x)
    found: list[tuple[int, int]] = []
    for idx, row in enumerate(int_rows):
        gap = _gap(row, nums, den)
        if gap > 0:
            if stop_early:
                return [idx]
            found.append((gap, idx))
    found.sort(key=lambda t: (-t[0], t[1]))
    return [idx for _, idx in found]


def _is_farkas(num_vars: int, int_rows: Sequence[IntRow], y: Sequence[int]) -> bool:
    """True iff y proves the rows infeasible (see the module docstring)."""
    total = [0] * num_vars
    bound = 0
    for (coeffs, rel, rhs), v in zip(int_rows, y):
        if (rel == "<=" and v < 0) or (rel == ">=" and v > 0):
            return False
        if v:
            total = [t + v * c for t, c in zip(total, coeffs)]
            bound += v * rhs
    return bound < 0 and not any(total)


@dataclass(frozen=True)
class SimplexResult:
    """A verdict and its certificate.

    ``witness`` is a satisfying point when feasible.  ``farkas`` holds, when
    infeasible, one integer multiplier per constraint with y^T A = 0,
    y^T b < 0, y >= 0 on ``<=`` rows and y <= 0 on ``>=`` rows.
    """

    feasible: bool
    witness: tuple[Fraction, ...] | None = None
    farkas: tuple[int, ...] | None = None


def _phase1(num_vars: int, int_rows: Sequence[IntRow]) -> SimplexResult:
    """Phase-1 simplex over integer rows, on a determinant-scaled tableau.

    Free variables are split as x = x+ - x-; the entering column is the
    lowest index with negative reduced cost and ratio ties leave by smallest
    basis variable (Bland's rule, so termination is guaranteed).  Returns a
    satisfying point, or Farkas multipliers for ``int_rows`` when the
    artificial optimum is positive.

    Columns are numbered x+ (0..n-1), x- (n..2n-1), then slacks and
    artificials.  The x- columns are the negated x+ columns at every step,
    so the tableau stores only x+, slacks, artificials and the rhs, and
    column c >= 2n is stored at c - n.
    """
    n = num_vars
    m = len(int_rows)
    if m == 0:
        return SimplexResult(True, tuple(Fraction(0) for _ in range(n)))

    # normalise to rhs >= 0; a ">=" row with rhs 0 is negated into a
    # "<=" row, whose slack-basic form needs no artificial variable
    flips: list[bool] = []
    rels: list[str] = []
    width = n + 1  # stored columns; the last one is the rhs
    for _, rel, rhs in int_rows:
        flip = rhs < 0 or (rel == ">=" and rhs == 0)
        rel = _FLIPPED[rel] if flip else rel
        flips.append(flip)
        rels.append(rel)
        width += (rel != "=") + (rel != "<=")
    art_lo = width - 1 - sum(1 for rel in rels if rel != "<=")

    tab: list[list[int]] = []
    basis: list[int] = []  # unstored column numbers, for Bland's rule
    slack_col: list[int] = []
    art_col: list[int] = []
    z = [0] * width  # reduced costs of min(sum of artificials)
    for j in range(art_lo, width - 1):
        z[j] = 1
    si, ai = n, art_lo
    for (coeffs, _, rhs), rel, flip in zip(int_rows, rels, flips):
        if flip:
            coeffs, rhs = [-c for c in coeffs], -rhs
        row = [0] * width
        row[:n] = coeffs
        row[-1] = rhs
        slack_col.append(si if rel != "=" else -1)
        art_col.append(ai if rel != "<=" else -1)
        if rel != "=":
            row[si] = 1 if rel == "<=" else -1
            si += 1
        if rel == "<=":
            basis.append(n + slack_col[-1])
        else:
            row[ai] = 1
            basis.append(n + ai)
            ai += 1
            z = [v - a for v, a in zip(z, row)]
        tab.append(row)

    # the starting basis is the identity: determinant 1, every scale 1
    det = 1
    scale = [1] * m
    z_scale = 1
    while True:
        # Bland: the first negative reduced cost among x+, then x-, then the rest
        enter = next((j for j in range(n) if z[j] < 0), -1)
        if enter < 0:
            enter = next((n + j for j in range(n) if z[j] > 0), -1)
        if enter < 0:
            enter = next((n + j for j in range(n, width - 1) if z[j] < 0), -1)
        if enter < 0:
            break
        col = enter if enter < n else enter - n
        sign = -1 if n <= enter < 2 * n else 1
        leave = -1
        best_rhs = best_a = 0
        best_basis = -1
        for r in range(m):
            a = sign * tab[r][col]
            if a > 0:
                rhs = tab[r][-1]
                if leave < 0:
                    better = True
                else:
                    left = rhs * best_a
                    right = best_rhs * a
                    better = left < right or (left == right and basis[r] < best_basis)
                if better:
                    leave, best_rhs, best_a, best_basis = r, rhs, a, basis[r]
        if leave < 0:
            raise AssertionError("phase-1 simplex detected an unbounded column")
        # bring the pivot row to the current determinant; each updated row
        # is then divided exactly by the scale it was stored at (entries
        # that are zero in the pivot row need one product, zeros none)
        piv_row = tab[leave]
        if scale[leave] != det:
            s = scale[leave]
            piv_row = [v * det // s for v in piv_row]
        piv = sign * piv_row[col]
        for r in range(m):
            if r == leave:
                continue
            row = tab[r]
            a = sign * row[col]
            if a:
                s = scale[r]
                tab[r] = [
                    (v * piv - p * a) // s if p else v and v * piv // s
                    for v, p in zip(row, piv_row)
                ]
                scale[r] = piv
        a = sign * z[col]
        z = [
            (v * piv - p * a) // z_scale if p else v and v * piv // z_scale
            for v, p in zip(z, piv_row)
        ]
        z_scale = piv
        tab[leave] = piv_row
        scale[leave] = det = piv
        basis[leave] = enter

    if z[-1] == 0:
        x = [Fraction(0)] * n
        for r in range(m):
            if basis[r] < n:
                x[basis[r]] = Fraction(tab[r][-1], tab[r][basis[r]])
            elif basis[r] < 2 * n:  # x_j = -x-_j = -rhs / (-tab[r][j])
                j = basis[r] - n
                x[j] = Fraction(tab[r][-1], tab[r][j])
        return SimplexResult(True, tuple(x))
    # z holds z_scale * (c - pi B^-1 A) for the duals pi, so each y_r below
    # is -z_scale * pi_r, read from the slack or artificial column of row r
    y = []
    for rel, flip, sc, ac in zip(rels, flips, slack_col, art_col):
        if rel == "<=":
            v = z[sc]
        elif rel == ">=":
            v = -z[sc]
        else:
            v = z[ac] - z_scale
        y.append(-v if flip else v)
    return SimplexResult(False, farkas=tuple(y))


def _solve(num_vars: int, int_rows: Sequence[IntRow]) -> SimplexResult:
    """Checked verdict on integer rows.

    Systems of more than ``_DENSE_ROW_LIMIT`` rows start from the equality
    rows and add up to eight of the most violated rows per round.
    """
    m = len(int_rows)
    if m <= _DENSE_ROW_LIMIT:
        active = list(range(m))
    else:
        active = [i for i, (_, rel, _) in enumerate(int_rows) if rel == "="]
    active_set = set(active)
    while True:
        res = _phase1(num_vars, [int_rows[i] for i in active])
        if not res.feasible:
            y = [0] * m
            for i, v in zip(active, res.farkas):
                y[i] = v
            if not _is_farkas(num_vars, int_rows, y):
                raise AssertionError("simplex Farkas certificate failed exact check")
            return SimplexResult(False, farkas=tuple(y))
        violated = _violations(int_rows, res.witness)
        if not violated:
            return res
        if any(i in active_set for i in violated):
            raise AssertionError("simplex witness failed exact re-substitution")
        for i in violated[:8]:
            active.append(i)
            active_set.add(i)


def simplex_feasible(lp: LinearProgram) -> SimplexResult:
    """Exact feasibility verdict with a checked witness or Farkas certificate.

    The Farkas multipliers refer to ``lp.constraints`` as given.
    """
    result = _solve(lp.num_vars, lp._int_rows)
    if result.farkas is None:
        return result
    return SimplexResult(
        False,
        farkas=tuple(
            v * _row_scale(coeffs, rhs) if v else 0
            for v, (coeffs, _, rhs) in zip(result.farkas, lp.constraints)
        ),
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def moment_lp(d: int, b: int, tau: int) -> LinearProgram:
    """Feasibility system for a degree-d power polynomial on points 1..b.

    Variables are the coefficients of t, t^2, ..., t^d.  The value at 1 is
    pinned to 1, values at 2..b-1 are confined to [0, 1], and the value at b
    is pinned to ``tau``.
    """
    if d < 1 or b < 2 or tau not in (0, 1):
        raise ValueError(f"invalid moment LP parameters d={d}, b={b}, tau={tau}")

    def row(k: int, rel: str, rhs: int):
        return tuple(k**j for j in range(1, d + 1)), rel, rhs

    rows = [row(1, "=", 1)]
    for k in range(2, b):
        rows.append(row(k, ">=", 0))
        rows.append(row(k, "<=", 1))
    rows.append(row(b, "=", tau))
    return LinearProgram.build(d, rows)


@dataclass(frozen=True)
class LpCapScan:
    """Full feasibility profile of the moment LP over b = lo..hi."""

    d: int
    cap: int
    profile: tuple[tuple[int, bool, bool], ...]  # (b, feasible tau=0, tau=1)

    @property
    def monotone(self) -> bool:
        """True iff feasibility never reappears after first vanishing."""
        seen_gap = False
        for _, f0, f1 in self.profile:
            if not (f0 or f1):
                seen_gap = True
            elif seen_gap:
                return False
        return True


# The cap scan works in the binomial basis: p(t) = sum_j c_j C(t, j) for
# j = 1..d spans the same polynomials as the power basis (p(0) = 0), so every
# verdict is that of ``moment_lp``.  Its rows are written a.c <= r and keyed
# 2k for p(k) <= hi_k and 2k + 1 for -p(k) <= -lo_k.


def _scan_row(key: int, d: int) -> tuple[int, ...]:
    """Coefficients of scan row ``key`` in the binomial basis."""
    k, lower = divmod(key, 2)
    sign = -1 if lower else 1
    return tuple(sign * comb(k, j) for j in range(1, d + 1))


def _scan_bounds(k: int, b: int, tau: int) -> tuple[int, int]:
    """(lo_k, hi_k) of the moment LP on points 1..b."""
    if k == b:
        return tau, tau
    return int(k == 1), 1


def _scan_rhs(key: int, b: int, tau: int) -> int:
    lo, hi = _scan_bounds(key >> 1, b, tau)
    return -lo if key & 1 else hi


def _scan_values(coeffs: Sequence[int], b: int) -> list[int]:
    """sum_j coeffs[j-1] C(t, j) for t = 0..b, by forward differences.

    The d-th difference is the constant coeffs[-1], and each lower one
    starts at its coefficient (0 for the value itself), so d prefix sums
    give every value with additions alone.
    """
    seq = [coeffs[-1]] * (b + 1 - len(coeffs))
    for c in reversed((0, *coeffs[:-1])):
        seq = list(accumulate(seq, initial=c))
    return seq


def _most_violated(vals: list[int], det: int, b: int, tau: int) -> int:
    """Key of the scan row most violated by the point vals/det, or -1.

    A row's violation is a.(det c) - det r; ties go to the lowest key.
    """
    cand = [
        (vals[1] - det, 2),
        (det - vals[1], 3),
        (vals[b] - tau * det, 2 * b),
        (tau * det - vals[b], 2 * b + 1),
    ]
    inner = vals[2:b]  # points 2..b-1, all confined to [0, 1]
    if inner:
        top, low = max(inner), min(inner)
        cand.append((top - det, 2 * (inner.index(top) + 2)))
        cand.append((-low, 2 * (inner.index(low) + 2) + 1))
    gap, key = max(cand, key=lambda t: (t[0], -t[1]))
    return key if gap > 0 else -1


def _first_violated(vals: list[int], det: int, b: int, tau: int) -> int:
    """Lowest key of a scan row violated by the point vals/det, or -1."""
    for k in range(1, b + 1):
        lo, hi = _scan_bounds(k, b, tau)
        if vals[k] > hi * det:
            return 2 * k
        if vals[k] < lo * det:
            return 2 * k + 1
    return -1


class _ScanBasis:
    """A vertex basis of one tau chain of the cap scan, for the dual simplex.

    The d coefficients are basic; the nonbasic variables are the slacks of
    the d tight rows ``keys``, whose matrix B is kept only as the integer
    adjugate ``adj`` = det B^-1 with det = det B > 0.  The vertex is
    c = adj r_B / det.  With no objective every basis is dual feasible, so
    a basis carries over from b to b + 1, where only right-hand sides change
    and two rows are added.  The start is p(k) <= hi_k for k = 1..d, a
    unitriangular B whose inverse is (-1)^(i+j) C(i+1, j+1).
    """

    def __init__(self, d: int):
        self.keys = [2 * k for k in range(1, d + 1)]
        self.adj = [
            [(-1) ** (i + j) * comb(i + 1, j + 1) for j in range(d)] for i in range(d)
        ]
        self.det = 1

    def solve(self, b: int, tau: int) -> tuple[list[int], list[int]] | None:
        """Pivot to a vertex that satisfies every row on points 1..b.

        Returns None when one is reached, else a Farkas certificate as
        (row keys, multipliers).  The leaving row is the most violated and
        the entering column the lowest-keyed one that can relieve it; the
        first time a basis repeats, the leaving row becomes the lowest-keyed
        violated one for the rest of the solve (Bland's rule, so the solve
        terminates).
        """
        keys, adj = self.keys, self.adj
        d = len(keys)
        rhs = [_scan_rhs(key, b, tau) for key in keys]
        pick = _most_violated
        seen = set()
        while True:
            basis = frozenset(keys)
            if basis in seen:
                pick = _first_violated
            seen.add(basis)
            det = self.det
            point = [sum(map(mul, line, rhs)) for line in adj]
            leave = pick(_scan_values(point, b), det, b, tau)
            if leave < 0:
                return None
            row = _scan_row(leave, d)
            w = [sum(map(mul, row, col)) for col in zip(*adj)]
            enter = min((j for j in range(d) if w[j] > 0), key=keys.__getitem__, default=-1)
            if enter < 0:
                # row = (w/det) B, and B c <= r_B forces row.c >= row.vertex > r
                return [leave, *keys], [det, *(-v for v in w)]
            # Bareiss: column enter stays, the others divide exactly by det
            piv = w[enter]
            for line in adj:
                a = line[enter]
                line[:] = [(piv * v - u * a) // det for v, u in zip(line, w)]
                line[enter] = a
            self.det = piv
            keys[enter] = leave
            rhs[enter] = _scan_rhs(leave, b, tau)


def lp_bs_cap(d: int) -> LpCapScan:
    """Largest b for which the moment LP is feasible for some endpoint value.

    Scans every b from d up to 2*d*d (no feasibility monotonicity assumed)
    and records the whole profile.  Each endpoint value is one chain of
    warm-started dual simplex solves (``_ScanBasis``); a feasible verdict
    has checked every row exactly at the final vertex, and every Farkas
    certificate is checked exactly before it counts.
    """
    if not 1 <= d <= LP_CAP_SCAN_MAX_DEGREE:
        raise ValueError(f"lp_bs_cap supports 1 <= d <= {LP_CAP_SCAN_MAX_DEGREE}")
    profile = []
    cap = d
    chains = (_ScanBasis(d), _ScanBasis(d))
    for b in range(max(2, d), 2 * d * d + 1):
        feas = []
        for tau, chain in enumerate(chains):
            cert = chain.solve(b, tau)
            if cert is not None:
                keys, y = cert
                rows = [(_scan_row(key, d), "<=", _scan_rhs(key, b, tau)) for key in keys]
                if not _is_farkas(d, rows, y):
                    raise AssertionError("cap scan Farkas certificate failed exact check")
            feas.append(cert is None)
        profile.append((b, *feas))
        if any(feas):
            cap = b
    return LpCapScan(d, cap, tuple(profile))


def adeg_lp(f: BooleanFunction, d: int, eps: Fraction) -> LinearProgram:
    """Uniform eps-approximation by a degree <= d multilinear polynomial.

    Variables are coefficients of every subset of size <= d (ordered by
    (size, mask)); each input point contributes a two-sided band constraint.
    """
    if f.n > 10:
        raise ArityError(f"approximation LP supports arity <= 10, got {f.n}")
    if d > f.n:
        raise ValueError(f"degree {d} exceeds arity {f.n}")
    eps = Fraction(eps)
    monomials = sorted(
        (m for m in range(1 << f.n) if popcount(m) <= d),
        key=lambda m: (popcount(m), m),
    )
    col = {m: j for j, m in enumerate(monomials)}
    rows = []
    one = Fraction(1)
    for x in range(1 << f.n):
        coeffs = [Fraction(0)] * len(monomials)
        sub = x
        while True:
            j = col.get(sub)
            if j is not None:
                coeffs[j] = one
            if sub == 0:
                break
            sub = (sub - 1) & x
        fx = Fraction((f.table >> x) & 1)
        coeffs = tuple(coeffs)
        rows.append((coeffs, "<=", fx + eps))
        rows.append((coeffs, ">=", fx - eps))
    return LinearProgram(len(monomials), tuple(rows))
