"""Exact rational linear-programming feasibility.

The decision procedure is a phase-1 simplex with Bland's anti-cycling rule.
Tableau rows are kept as integer vectors scaled by arbitrary positive
rationals (signs and ratio comparisons are scale-invariant, so the pivoting
decisions are exactly those of the textbook fraction tableau while the
arithmetic stays in fast machine/big integers).  For systems with many rows
the solver works incrementally: it runs phase-1 on a growing subset of the
constraints and re-checks the returned point against the full system, which
leaves verdicts exact while keeping tableaus small.  Every Feasible result
is re-substituted into all constraints before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .bf import ArityError, BooleanFunction, popcount

RELATIONS = ("<=", "=", ">=")

# beyond this many rows simplex_feasible switches to constraint generation
_DENSE_ROW_LIMIT = 48

LP_CAP_SCAN_MAX_DEGREE = 16


Constraint = tuple[tuple[Fraction, ...], str, Fraction]


@dataclass(frozen=True)
class LinearProgram:
    """A rational constraint system queried for feasibility (no objective)."""

    num_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != self.num_vars:
                raise ValueError(
                    f"constraint width {len(coeffs)} != num_vars {self.num_vars}"
                )
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")

    @classmethod
    def build(cls, num_vars: int, rows: Sequence[tuple[Sequence, str, object]]):
        return cls(
            num_vars,
            tuple(
                (tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))
                for coeffs, rel, rhs in rows
            ),
        )

    def _int_rows(self) -> list[tuple[tuple[int, ...], str, int]]:
        """Each constraint scaled by a positive integer to clear denominators."""
        rows = []
        for coeffs, rel, rhs in self.constraints:
            scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
            rows.append(
                (
                    tuple(c.numerator * (scale // c.denominator) for c in coeffs),
                    rel,
                    rhs.numerator * (scale // rhs.denominator),
                )
            )
        return rows

    def satisfies(self, x: Sequence[Fraction]) -> bool:
        return not self._violations(x, stop_early=True)

    def _violations(self, x: Sequence[Fraction], stop_early: bool = False):
        """Violated constraint indices, most violated first."""
        qs = [Fraction(v) for v in x]
        den = lcm(*(q.denominator for q in qs))
        nums = [q.numerator * (den // q.denominator) for q in qs]
        found: list[tuple[int, int]] = []
        for idx, (coeffs, rel, rhs) in enumerate(self._int_rows()):
            lhs = sum(c * a for c, a in zip(coeffs, nums))
            bound = rhs * den
            if rel == "<=":
                gap = lhs - bound
            elif rel == ">=":
                gap = bound - lhs
            else:
                gap = abs(lhs - bound)
            if gap > 0:
                if stop_early:
                    return [idx]
                found.append((gap, idx))
        found.sort(key=lambda t: (-t[0], t[1]))
        return [idx for _, idx in found]

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
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("vars="):
            raise ValueError("LP text must start with 'vars=<k>'")
        k = int(lines[0][5:])
        rows = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != k + 2:
                raise ValueError(f"expected {k + 2} tokens, got {len(toks)}: {ln!r}")
            coeffs = tuple(Fraction(t) for t in toks[:k])
            rel = toks[k]
            rows.append((coeffs, rel, Fraction(toks[k + 1])))
        return cls.build(k, rows)


@dataclass(frozen=True)
class SimplexResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None = None


def _reduce_row(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


_REDUCE_BITS = 96


def _maybe_reduce(row: list[int]) -> list[int]:
    # gcd-normalising every update is costlier than the pivots themselves,
    # so rows are only compacted once their entries grow genuinely large
    for v in row:
        if v and (v if v > 0 else -v).bit_length() > _REDUCE_BITS:
            return _reduce_row(row)
    return row


def _phase1(num_vars: int, int_rows) -> tuple[Fraction, ...] | None:
    """Phase-1 simplex over positively-scaled integer rows.

    Free variables are split as x = x+ - x-; the entering column is the
    lowest index with negative reduced cost and ratio ties leave by smallest
    basis variable (Bland's rule, so termination is guaranteed).  Returns a
    satisfying point, or None when the artificial optimum is positive.
    """
    m = len(int_rows)
    if m == 0:
        return tuple(Fraction(0) for _ in range(num_vars))

    rows = []
    for coeffs, rel, rhs in int_rows:
        if rhs < 0:
            coeffs = tuple(-c for c in coeffs)
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        if rel == ">=" and rhs == 0:
            # slack-basic form needs no artificial variable
            coeffs = tuple(-c for c in coeffs)
            rel = "<="
        rows.append((coeffs, rel, rhs))

    nslack = sum(1 for _, rel, _ in rows if rel != "=")
    nart = sum(1 for _, rel, _ in rows if rel != "<=")
    width = 2 * num_vars + nslack + nart + 1  # final column is the rhs
    art_lo = 2 * num_vars + nslack
    tab: list[list[int]] = []
    basis: list[int] = []

    si, ai = 2 * num_vars, art_lo
    for coeffs, rel, rhs in rows:
        row = [0] * width
        for j, c in enumerate(coeffs):
            row[j] = c
            row[num_vars + j] = -c
        row[-1] = rhs
        if rel == "<=":
            row[si] = 1
            basis.append(si)
            si += 1
        elif rel == ">=":
            row[si] = -1
            si += 1
            row[ai] = 1
            basis.append(ai)
            ai += 1
        else:
            row[ai] = 1
            basis.append(ai)
            ai += 1
        tab.append(_reduce_row(row))

    # reduced costs for min(sum of artificials); rows enter with their own
    # positive scale, so combine them normalised by their basic coefficient
    z = [Fraction(0)] * width
    for j in range(art_lo, width - 1):
        z[j] = Fraction(1)
    for r in range(m):
        if basis[r] >= art_lo:
            row = tab[r]
            piv = row[basis[r]]
            for j in range(width):
                if row[j]:
                    z[j] -= Fraction(row[j], piv)
    zden = lcm(*(v.denominator for v in z)) if any(z) else 1
    z = [int(v * zden) for v in z]

    while True:
        enter = -1
        for j in range(width - 1):
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_rhs = best_a = 0
        best_basis = -1
        for r in range(m):
            a = tab[r][enter]
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
        piv_row = tab[leave]
        piv = piv_row[enter]
        for r in range(m):
            if r == leave:
                continue
            a = tab[r][enter]
            if a:
                row = tab[r]
                tab[r] = _maybe_reduce(
                    [v * piv - p * a for v, p in zip(row, piv_row)]
                )
        a = z[enter]
        if a:
            z = _maybe_reduce([v * piv - p * a for v, p in zip(z, piv_row)])
        basis[leave] = enter

    if z[-1] != 0:  # scaled objective is -z[-1] > 0: artificials remain
        return None
    values = [Fraction(0)] * (2 * num_vars)
    for r in range(m):
        if basis[r] < 2 * num_vars:
            values[basis[r]] = Fraction(tab[r][-1], tab[r][basis[r]])
    return tuple(values[j] - values[num_vars + j] for j in range(num_vars))


def _solve(lp: LinearProgram, seed_rows: Sequence[int]):
    """Feasibility plus the active row set (for warm-starting later scans)."""
    int_rows = lp._int_rows()
    m = len(int_rows)
    if m <= _DENSE_ROW_LIMIT:
        point = _phase1(lp.num_vars, int_rows)
        if point is None:
            return SimplexResult(False), list(range(m))
        if not lp.satisfies(point):
            raise AssertionError("simplex witness failed exact re-substitution")
        return SimplexResult(True, point), list(range(m))

    active: list[int] = [i for i, (_, rel, _) in enumerate(int_rows) if rel == "="]
    active_set = set(active)
    for i in seed_rows:
        i = int(i)
        if 0 <= i < m and i not in active_set:
            active.append(i)
            active_set.add(i)
    while True:
        point = _phase1(lp.num_vars, [int_rows[i] for i in active])
        if point is None:
            return SimplexResult(False), active
        violated = [i for i in lp._violations(point) if i not in active_set]
        if not violated:
            if not lp.satisfies(point):
                raise AssertionError("simplex witness failed exact re-substitution")
            return SimplexResult(True, point), active
        for i in violated[:8]:
            active.append(i)
            active_set.add(i)


def simplex_feasible(
    lp: LinearProgram, seed_rows: Sequence[int] = ()
) -> SimplexResult:
    """Exact feasibility verdict; Feasible witnesses are verified in full."""
    result, _ = _solve(lp, seed_rows)
    return result


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
    rows: list[tuple[tuple[Fraction, ...], str, Fraction]] = []

    def moments(t: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(t ** j) for j in range(1, d + 1))

    rows.append((moments(1), "=", Fraction(1)))
    for k in range(2, b):
        mk = moments(k)
        rows.append((mk, ">=", Fraction(0)))
        rows.append((mk, "<=", Fraction(1)))
    rows.append((moments(b), "=", Fraction(tau)))
    return LinearProgram(d, tuple(rows))


def _moment_row_keys(d: int, b: int) -> list[tuple[int, str]]:
    keys = [(1, "=")]
    for k in range(2, b):
        keys.append((k, ">="))
        keys.append((k, "<="))
    keys.append((b, "="))
    return keys


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


def lp_bs_cap(d: int) -> LpCapScan:
    """Largest b for which the moment LP is feasible for some endpoint value.

    Scans every b from d up to 2*d*d (no feasibility monotonicity assumed)
    and records the whole profile.  Consecutive solves seed each other's
    active constraint sets keyed by (point, sense), which only affects
    speed, never the verdicts.
    """
    if not 1 <= d <= LP_CAP_SCAN_MAX_DEGREE:
        raise ValueError(f"lp_bs_cap supports 1 <= d <= {LP_CAP_SCAN_MAX_DEGREE}")
    profile = []
    cap = d
    seed_keys: dict[int, list[tuple[int, str]]] = {0: [], 1: []}
    b_hi = 2 * d * d
    for b in range(max(2, d), b_hi + 1):
        keys = _moment_row_keys(d, b)
        index_of = {key: i for i, key in enumerate(keys)}
        feas = {}
        for tau in (0, 1):
            lp = moment_lp(d, b, tau)
            seeds = [index_of[k] for k in seed_keys[tau] if k in index_of]
            res, active = _solve(lp, seeds)
            feas[tau] = res.feasible
            if res.feasible and res.witness is not None:
                # seed the next size with the currently binding rows
                tight = []
                for i in active:
                    coeffs, rel, rhs = lp.constraints[i]
                    if rel != "=" and sum(
                        c * v for c, v in zip(coeffs, res.witness)
                    ) == rhs:
                        tight.append(keys[i])
                seed_keys[tau] = tight[:32]
            else:
                seed_keys[tau] = [keys[i] for i in active if keys[i][1] != "="][:40]
        profile.append((b, feas[0], feas[1]))
        if feas[0] or feas[1]:
            cap = max(cap, b)
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
