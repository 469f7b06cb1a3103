"""Exact rational linear-programming feasibility.

A system is a ``LinearProgram``: integer rows a.x <= r, keyed in order.
Rational constraints (coeffs, rel, rhs), rel one of ``<=``, ``=`` and
``>=``, enter through ``LinearProgram.build``, which scales each by the lcm
of its denominators and writes its ``<=`` side, then its ``>=`` side
negated.  One solver decides every system: a dual simplex on vertex bases.
A basis is a set of rows, tight at its vertex, whose matrix B over a set J
of independent columns is kept only as the integer adjugate adj = det B^-1,
with det > 0.  Each pivot replaces one basis row and updates adj by
Bareiss's exact division ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968), so every entry
is a minor of the input and stays an integer.  The cap scan's bases derive
the same integers from interpolation nodes instead (below): the solver asks
each basis for a row's right-hand side and weights, the row to leave, the
vertex and a pivot, and never for its matrix.

The start (phase 0) begins with an empty basis and takes the rows in key
order.  A row that is independent of the basis rows so far adds to J the
first column on which it is, as a unit row of B, and then enters in place of
that unit row by the same pivot; a dependent row is skipped.  With no
objective every basis is dual feasible, so any slot that relieves the
leaving row may enter.  The leaving row is the most violated one at the
vertex and the entering slot the one that relieves it with the largest
pivot, which becomes the new det, so each exchange gives the next basis
the largest determinant it can; ties go to the lowest key.  The first
repeated basis switches both picks to the lowest-keyed candidate (Bland,
Math. OR 1977), so every solve terminates.
J spans every column of the system, so the columns outside J are 0 in the
witness and lose no feasibility.

Both verdicts are exact.  A Feasible vertex has had every row checked at it.
An Infeasible verdict carries Farkas multipliers y >= 0, one per row, with
y A = 0 and y.r < 0, which are checked exactly before they are returned.

The approximate degree solves ``adeg_lp`` over the polynomials that f's
coordinate symmetries fix.  Averaging an approximation over the
permutations that fix f keeps its degree and its error, so the reduced LP
``_orbit_lp``, one variable per monomial orbit and one band per point orbit
(``_mask_orbits``), is feasible exactly when the full one is.
``_orbit_feasible`` checks its verdict on the full LP: a spread witness
must satisfy ``adeg_lp``, and a lifted Farkas vector must refute it.

The cap scan ``lp_bs_cap`` runs the same solver on the moment LP written in
the binomial basis C(t, j), with a row picker of its own, and carries each
basis from b to b + 1.  Its rows are +-p(k), values of p(t) =
sum_j c_j C(t, j), so a basis is d interpolation nodes k_s with sides
sigma_s, and each pivot exchanges one node.  ``_ScanBasis`` keeps no
adjugate: with p(0) = 0, column s of B^-1 is sigma_s times the binomial
coefficients of the Lagrange polynomial q_s / delta_s, where
pi(t) = t prod_m (t - k_m), q_s = pi / (t - k_s) and delta_s = q_s(k_s).
From the nodes, the delta_s, pi, det and the vertex it gets in O(d) each,
with exact integer divisions, the same entering weights, pivots, vertices
and certificates as the adjugate would give.  It starts in closed form at
the nodes 1..d, where phase 0 would end.  Each basis keeps the values
det p(t), t = 0..b, at its vertex for the row picks: a pivot or a moved
right-hand side makes the next pick recompute them, and a pick at a vertex
that has not moved adds only the points that b gained.
Once a certificate uses only rows whose right-hand side no later LP of the
scan raises (the rows of the points below b, and the endpoint row that
keeps its bound), it proves every later LP infeasible, so the scan stops
solving.  That certificate, closing at (b0, tau0), is checked once, like
every other.  Only where one of its bounds can still move is it confirmed,
that none of its rows has a larger right-hand side than where it was
checked: at b0 for the other tau, if that LP is still to come, and at
b0 + 1 for both.  Past b0 + 1 each of its rows is at a point below b,
whose bounds no longer depend on b or tau.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .bf import BooleanFunction, _permutation_images, _permutation_stages, check_arity
from .measures import APPROX_DEGREE_MAX_ARITY

# lp_bs_cap(16), the slowest degree allowed, takes 0.22-0.35 s (raw,
# in-process, 15 runs alternating with the previous scan's 0.24-0.40 s on
# one 2-core x86-64 host whose speed drifts); the caps past 16 are not
# certified here
LP_CAP_SCAN_MAX_DEGREE = 16


Row = tuple[tuple[int, ...], int]  # (a, r): a.x <= r


class _Rows(NamedTuple):
    num_vars: int
    rows: tuple[Row, ...]


class LinearProgram(_Rows):
    """Integer rows a.x <= r queried for feasibility (no objective)."""

    __slots__ = ()

    def __new__(cls, num_vars: int, rows: Iterable[tuple[Sequence[int], int]]):
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        rows = tuple((tuple(a), r) for a, r in rows)
        for a, r in rows:
            if len(a) != num_vars:
                raise ValueError(f"row width {len(a)} != num_vars {num_vars}")
            if not {type(r), *map(type, a)} <= {int}:
                raise ValueError(
                    "LinearProgram rows take int entries; "
                    "rational constraints go through LinearProgram.build"
                )
        return super().__new__(cls, num_vars, rows)

    @classmethod
    def build(cls, num_vars: int, constraints: Iterable[tuple[Sequence, str, object]]):
        """The rows of rational constraints (coeffs, rel, rhs): each scaled
        by the lcm of its denominators, its ``<=`` side first and its ``>=``
        side negated."""
        rows = []
        for coeffs, rel, rhs in constraints:
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")
            qs = [Fraction(v) for v in (*coeffs, rhs)]
            scale = lcm(*(q.denominator for q in qs))
            *a, r = (q.numerator * (scale // q.denominator) for q in qs)
            if rel != ">=":
                rows.append((a, r))
            if rel != "<=":
                rows.append(([-v for v in a], -r))
        return cls(num_vars, rows)

    def satisfies(self, x: Sequence[Fraction]) -> bool:
        nums, den = _scaled_point(x)
        return all(sum(map(mul, a, nums)) <= r * den for a, r in self.rows)


def _scaled_point(x: Sequence[Fraction]) -> tuple[list[int], int]:
    """A rational point as integer numerators over one common denominator."""
    qs = [Fraction(v) for v in x]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _is_farkas(num_vars: int, rows: Sequence[Row], y: Sequence[int]) -> bool:
    """True iff y >= 0 proves the rows a.x <= r infeasible: y A = 0 and
    y.r < 0."""
    total = [0] * num_vars
    bound = 0
    for (a, r), v in zip(rows, y):
        if v < 0:
            return False
        if v:
            total = [t + v * c for t, c in zip(total, a)]
            bound += v * r
    return bound < 0 and not any(total)


class SimplexResult(NamedTuple):
    """A verdict and its certificate.

    ``witness`` is a satisfying point when feasible.  ``farkas`` holds, when
    infeasible, one integer multiplier y >= 0 per row with y A = 0 and
    y.r < 0.
    """

    feasible: bool
    witness: tuple[Fraction, ...] | None = None
    farkas: tuple[int, ...] | None = None


class _VertexBasis:
    """A vertex basis of rows a.x <= r, for the dual simplex.

    ``keys`` are the basis rows, one per slot, ``r_b`` their right-hand
    sides and ``cols`` the columns J they are independent on; ``adj`` =
    det B^-1 with det > 0 for their square matrix B, indexed [column
    position][slot].  The vertex is x_J = adj r_B / det, with every column
    outside J at 0.  ``run`` reads the system through ``_rhs``,
    ``_weights``, ``_pick`` and ``_vertex``, here from ``rows`` on J.
    """

    def __init__(self, num_cols: int, rows: Sequence[Row]):
        """Phase 0: admit each row, in key order, that is independent of the
        rows admitted before it; then keep the rows on J."""
        self.keys: list[int] = []
        self.r_b: list[int] = []
        self.cols: list[int] = []
        self.adj: list[list[int]] = []
        self.det = 1
        self.rows = rows  # as given, for phase 0's right-hand sides
        admitted: list[Sequence[int]] = []
        for key, (a, _) in enumerate(rows):
            if len(admitted) == num_cols:
                break
            det, adj = self.det, self.adj
            w = [sum(a[c] * v for c, v in zip(self.cols, slot)) for slot in zip(*adj)]
            # det times the part of a that the admitted rows miss, per column;
            # zero on J, and everywhere iff a is their combination
            miss = (
                det * a[c] - sum(v * u[c] for v, u in zip(w, admitted))
                for c in range(num_cols)
            )
            c, rho = next(((c, v) for c, v in enumerate(miss) if v), (-1, 0))
            if c < 0:
                continue
            # border B with the unit row of column c, then pivot a into its slot
            for line in adj:
                line.append(-sum(v * u[c] for v, u in zip(line, admitted)))
            adj.append([0] * len(admitted) + [det])
            self.cols.append(c)
            self.keys.append(key)
            self.r_b.append(0)
            admitted.append(a)
            self._pivot(len(w), [*w, rho], key)
        self.rows = [([a[c] for c in self.cols], r) for a, r in rows]

    def _rhs(self, key: int) -> int:
        return self.rows[key][1]

    def _weights(self, key: int) -> list[int]:
        """w = a adj, the entering weights of row ``key`` by slot."""
        a = self.rows[key][0]
        return [sum(map(mul, a, slot)) for slot in zip(*self.adj)]

    def _pick(self, point: list[int], bland: bool) -> int:
        return _violated_row(self.rows, point, self.det, bland)

    def _vertex(self) -> list[int]:
        """det times the vertex on J."""
        return [sum(map(mul, line, self.r_b)) for line in self.adj]

    def _pivot(self, j: int, w: Sequence[int], key: int) -> None:
        """Replace the row of slot j by row ``key``, w = row.adj (w_j != 0).

        Bareiss: the other columns divide exactly by det.  A negative pivot
        flips the sign of B's determinant, so adj is negated to keep det > 0.
        """
        det, piv = self.det, abs(w[j])
        sign = 1 if w[j] > 0 else -1
        for line in self.adj:
            a = sign * line[j]
            line[:] = [(piv * v - u * a) // det for v, u in zip(line, w)]
            line[j] = a
        self.det = piv
        self.keys[j], self.r_b[j] = key, self._rhs(key)

    def run(self) -> tuple[list[int], list[int]] | None:
        """Pivot to a vertex that satisfies every row.

        ``_pick(point, bland)`` gives the key of a row violated at the
        vertex point/det: the most violated one, or the lowest-keyed one
        once ``bland`` is set; -1 when none is.  That row, with entering
        weights w, enters the slot j with the largest w_j > 0, lowest key
        on ties, or with ``bland`` the lowest-keyed slot with w_j > 0.  The
        pivot makes w_j the new det, so the first rule gives the next basis
        the largest determinant of all the valid ones.  The first repeated
        basis sets ``bland``; Bland's rule never revisits a basis in exact
        arithmetic, so a repeat under it is a faulty pivot and raises
        AssertionError.  Returns None at a vertex that satisfies every row,
        else a Farkas certificate as (row keys, multipliers).
        """
        keys = self.keys
        seen = set()
        bland = False
        while True:
            basis = frozenset(keys)
            if basis in seen:
                if bland:
                    raise AssertionError("simplex basis repeated under Bland's rule")
                bland, seen = True, set()
            seen.add(basis)
            det = self.det
            leave = self._pick(self._vertex(), bland)
            if leave < 0:
                return None
            w = self._weights(leave)
            top = max(w, default=0)  # w is empty for a system of no columns
            if top <= 0:
                # a = (w/det) B, and B x <= r_B forces a.x >= a.vertex > r
                return [leave, *keys], [det, *(-v for v in w)]
            floor = 1 if bland else top  # any w_j > 0, or only the largest
            slot = min((j for j, v in enumerate(w) if v >= floor), key=keys.__getitem__)
            self._pivot(slot, w, leave)


def _violated_row(rows: Sequence[tuple[Sequence[int], int]], point, det, bland) -> int:
    """Key of the row a.x <= r most violated at point/det, lowest key on
    ties, or with ``bland`` the lowest violated key; -1 if none is."""
    worst, leave = 0, -1
    for key, (a, r) in enumerate(rows):
        gap = sum(map(mul, a, point)) - det * r
        if gap > worst:
            if bland:
                return key
            worst, leave = gap, key
    return leave


def simplex_feasible(lp: LinearProgram) -> SimplexResult:
    """Exact feasibility verdict with a checked witness or Farkas certificate."""
    basis = _VertexBasis(lp.num_vars, lp.rows)
    cert = basis.run()
    if cert is None:
        x = [Fraction(0)] * lp.num_vars
        for c, v in zip(basis.cols, basis._vertex()):
            x[c] = Fraction(v, basis.det)
        return SimplexResult(True, tuple(x))
    y = [0] * len(lp.rows)
    for key, v in zip(*cert):
        y[key] += v
    if not _is_farkas(lp.num_vars, lp.rows, y):
        raise AssertionError("simplex Farkas certificate failed exact check")
    return SimplexResult(False, farkas=tuple(y))


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


class LpCapScan(NamedTuple):
    """Full feasibility profile of the moment LP over b = lo..hi."""

    d: int
    cap: int
    profile: tuple[tuple[int, bool, bool], ...]  # (b, feasible tau=0, tau=1)

    @property
    def monotone(self) -> bool:
        """True iff feasibility never reappears after first vanishing, which
        can only fail before the b of ``lp_bs_cap``'s closing certificate."""
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
    seq = repeat(coeffs[-1], b + 1 - len(coeffs))
    for c in reversed((0, *coeffs[:-1])):
        seq = accumulate(seq, initial=c)
    return list(seq)


def _most_violated(vals: list[int], det: int, b: int, tau: int) -> int:
    """Key of the scan row most violated by the point vals/det, or -1.

    A row's violation is a.(det c) - det r; ties go to the lowest key.  The
    candidates are the two rows of point 1, the upper row of the largest
    and the lower row of the smallest value at points 2..b-1, and the two
    rows of point b; each beats the best so far only by a strictly larger
    gap, so the candidates are met in key order.
    """
    gap, key = vals[1] - det, 2
    if det - vals[1] > gap:
        gap, key = det - vals[1], 3
    inner = vals[2:b]  # points 2..b-1, all confined to [0, 1]
    if inner:
        top, low = max(inner), min(inner)
        up, up_key = top - det, 2 * inner.index(top) + 4
        down, down_key = -low, 2 * inner.index(low) + 5
        if down > up or (down == up and down_key < up_key):
            up, up_key = down, down_key
        if up > gap:
            gap, key = up, up_key
    end = vals[b] - tau * det
    if end > gap:
        gap, key = end, 2 * b
    if -end > gap:
        gap, key = -end, 2 * b + 1
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


def _binomial_quotient(p: Sequence[int], k: int) -> list[int]:
    """q = p / (t - k) for a root k of p, both on C(t, 1), C(t, 2), ....

    t C(t, i) = (i + 1) C(t, i + 1) + i C(t, i), so p's coefficient on
    C(t, i) is i q_{i-1} + (i - k) q_i, solved for q from the top down.
    """
    q = [0] * (len(p) - 1)
    above = 0
    for i in range(len(p) - 1, 0, -1):
        above = q[i - 1] = (p[i] - (i + 1 - k) * above) // (i + 1)
    return q


def _binomial_times(q: Sequence[int], k: int) -> list[int]:
    """q (t - k) on C(t, 1), C(t, 2), ..., one coefficient longer than q."""
    return [(i + 1) * lo + (i + 1 - k) * hi for i, (lo, hi) in enumerate(zip([0, *q], [*q, 0]))]


class _ScanBasis(_VertexBasis):
    """A vertex basis of one tau chain of the cap scan, kept as
    interpolation nodes instead of an adjugate.

    Its columns are the d coefficients.  With no objective every basis is
    dual feasible, so a basis carries over from b to b + 1, where only
    right-hand sides change and two rows are added.

    The row of key 2k + (0 or 1) is sigma (C(k, 1), ..., C(k, d)) with
    sigma = +1 or -1, the value sigma p(k).  So a basis is d distinct nodes
    k_s with sides sigma_s, and with p(0) = 0 column s of B^-1 is sigma_s
    times the coefficients of the Lagrange polynomial q_s / delta_s, where
    pi(t) = t prod_m (t - k_m), q_s = pi / (t - k_s) and delta_s = q_s(k_s)
    (barycentric weights; Berrut & Trefethen, SIAM Review 46, 2004).  The
    basis keeps the nodes, ``denoms`` = sigma_s delta_s, pi on C(t, 1..d+1),
    det and the vertex ``point`` = adj r_B, and computes from them, each in
    O(d) with every division exact, the integers the adjugate
    adj = det B^-1 holds:

    - a row sigma e(k) at no node has the entering weights
      w_s = sigma det pi(k) / ((k - k_s) sigma_s delta_s);
    - column j of adj is det q_j / (sigma_j delta_j) (``_column``), q_j by
      one synthetic division in the binomial basis;
    - the pivot of slot j to node k makes det' = w_j, moves the vertex to
      (w_j point + (det q_j / (sigma_j delta_j)) g) / det with
      g = r det - w.r_B and r the new row's right-hand side, rescales
      delta_s by (k_s - k) / (k_s - k_j), and sets delta_j' = q_j(k) and
      pi' = q_j (t - k);
    - a changed right-hand side moves the vertex by col_s times the change.

    ``vals`` holds det p(t) for t = 0..b at the vertex once a pick has read
    them; a pivot and a moved vertex drop them.

    It starts in closed form where phase 0 would end: at the upper rows
    p(k) <= hi_k of k = 1..d, so det = 1, pi = (d + 1)! C(t, d + 1),
    delta_k = (-1)^(d-k) k! (d - k)!, and r_B and the vertex are 0.
    """

    def __init__(self, d: int):
        self.keys = [2 * k for k in range(1, d + 1)]
        self.cols = list(range(d))
        self.nodes = list(range(1, d + 1))
        self.denoms = [(-1) ** (d - k) * factorial(k) * factorial(d - k) for k in self.nodes]
        self.pi = [0] * d + [factorial(d + 1)]
        self.det = 1
        self.point, self.r_b = [0] * d, [0] * d
        self.vals: list[int] | None = None

    def _column(self, s: int) -> list[int]:
        """Column s of adj: det q_s / (sigma_s delta_s)."""
        det, denom = self.det, self.denoms[s]
        return [det * v // denom for v in _binomial_quotient(self.pi, self.nodes[s])]

    def _rhs(self, key: int) -> int:
        return _scan_rhs(key, self.b, self.tau)

    def _weights(self, key: int) -> list[int]:
        k, nodes, det = key >> 1, self.nodes, self.det
        if k in nodes:  # plus or minus a basis row: +-det on its slot alone
            j = nodes.index(k)
            w = [0] * len(nodes)
            w[j] = det if self.keys[j] == key else -det
            return w
        top = (-det if key & 1 else det) * k * prod(k - m for m in nodes)
        return [top // ((k - m) * v) for m, v in zip(nodes, self.denoms)]

    def _pick(self, point: list[int], bland: bool) -> int:
        """The row to leave, read off the values at the vertex: all of them
        by ``_scan_values`` after the vertex moved, else only those of the
        points that b gained since the last pick, each as sum_j c_j C(t, j)."""
        vals = self.vals
        if vals is None:
            vals = self.vals = _scan_values(point, self.b)
        for t in range(len(vals), self.b + 1):
            vals.append(sum(map(mul, point, map(comb, repeat(t), range(1, len(point) + 1)))))
        return (_first_violated if bland else _most_violated)(vals, self.det, self.b, self.tau)

    def _vertex(self) -> list[int]:
        return self.point

    def _pivot(self, j: int, w: Sequence[int], key: int) -> None:
        nodes, denoms, det = self.nodes, self.denoms, self.det
        k, k_j, piv, r = key >> 1, nodes[j], w[j], self._rhs(key)
        q = _binomial_quotient(self.pi, k_j)
        g, denom = r * det - sum(map(mul, w, self.r_b)), denoms[j]
        self.point = [(piv * x + (det * v // denom) * g) // det for x, v in zip(self.point, q)]
        self.vals = None
        self.denoms = [
            piv * v // det if s == j else v * (m - k) // (m - k_j)
            for s, (m, v) in enumerate(zip(nodes, denoms))
        ]
        self.pi = _binomial_times(q, k)
        nodes[j] = k
        self.det = piv
        self.keys[j], self.r_b[j] = key, r

    def solve(self, b: int, tau: int) -> tuple[list[int], list[int]] | None:
        """``run`` on the rows of points 1..b, after moving the vertex for
        the basis rows whose right-hand side (b, tau) changes."""
        self.b, self.tau = b, tau
        for s, key in enumerate(self.keys):
            step = self._rhs(key) - self.r_b[s]
            if step:
                self.point = [x + c * step for x, c in zip(self.point, self._column(s))]
                self.r_b[s] += step
                self.vals = None
        return self.run()


def _closes(keys: Sequence[int], b: int, tau: int) -> bool:
    """True iff no row of these keys has a larger right-hand side in any LP
    after (b, tau) in the scan, so a certificate on them proves each of those
    infeasible as well.

    Rows of the points below b never change.  Later, p(b) <= tau has the
    bound 1, and -p(b) <= -tau the bound -1 at (b, 1) and 0 past b, so key
    2b keeps or lowers its bound only when tau = 1 and key 2b + 1 only when
    tau = 0.
    """
    return all(key < 2 * b or key == 2 * b + 1 - tau for key in keys)


def lp_bs_cap(d: int) -> LpCapScan:
    """Largest b for which the moment LP is feasible for some endpoint value.

    Scans every b from max(2, d) up to 2*d*d (no feasibility monotonicity
    assumed) and records the whole profile.  Each endpoint value is one chain
    of warm-started dual simplex solves (``_ScanBasis``); a feasible verdict
    has checked every row exactly at the final vertex, and every Farkas
    certificate a solve returns is checked exactly against the rows of its
    (b, tau).  A certificate that ``_closes`` uses only rows that every
    later (b', tau') has with the same or a lower right-hand side:
    p(1) = 1, 0 <= p(k) <= 1 for 1 < k < b, and p(b) <= 1 at tau = 1 or
    -p(b) <= 0 at tau = 0.  So y >= 0 keeps y.r' <= y.r < 0 and it proves
    them all infeasible: the scan stops solving and keeps the right-hand
    sides it checked.  It confirms that none of its rows has a larger one
    at (b, 1) after a close at (b, 0), and at b + 1 for both tau; past
    b + 1 every row is at a point below b', with the bounds it had at b + 1.
    """
    if not 1 <= d <= LP_CAP_SCAN_MAX_DEGREE:
        raise ValueError(f"lp_bs_cap supports 1 <= d <= {LP_CAP_SCAN_MAX_DEGREE}")
    profile = []
    cap = d
    chains = (_ScanBasis(d), _ScanBasis(d))
    closing = None  # (key, r) of each row of a checked certificate that closes
    for b in range(max(2, d), 2 * d * d + 1):
        feas = []
        for tau, chain in enumerate(chains):
            if closing:
                # past closed_at + 1 every row is at a point below b, whose
                # bounds are those it had at closed_at + 1 (``_scan_bounds``)
                if b <= closed_at + 1 and any(_scan_rhs(key, b, tau) > r for key, r in closing):
                    raise AssertionError(
                        f"cap scan Farkas certificate does not cover b={b}, tau={tau}: "
                        "a bound rose"
                    )
                feas.append(False)
                continue
            cert = chain.solve(b, tau)
            if cert is not None:
                keys, y = cert
                checked = [(key, _scan_rhs(key, b, tau)) for key in keys]
                if not _is_farkas(d, [(_scan_row(key, d), r) for key, r in checked], y):
                    raise AssertionError("cap scan Farkas certificate failed exact check")
                if _closes(keys, b, tau):
                    closing, closed_at = checked, b
            feas.append(cert is None)
        profile.append((b, *feas))
        if any(feas):
            cap = b
    return LpCapScan(d, cap, tuple(profile))


def _monomials(n: int, d: int) -> list[int]:
    """The masks of at most d of n coordinates, in (size, mask) order."""
    masks = (m for m in range(1 << n) if m.bit_count() <= d)
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def adeg_lp(f: BooleanFunction, d: int, eps: Fraction) -> LinearProgram:
    """Uniform eps-approximation by a degree <= d multilinear polynomial.

    Variables are coefficients of every subset of size <= d (ordered by
    (size, mask)); each input point x contributes a two-sided band
    |P(x) - f(x)| <= eps, written for eps = p/q as the rows
    q P(x) <= q f(x) + p and -q P(x) <= p - q f(x).
    """
    check_arity(f.n, APPROX_DEGREE_MAX_ARITY, "approximation LP")
    if not 0 <= d <= f.n:
        raise ValueError(f"degree {d} is outside 0..{f.n}")
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"eps {eps} is negative")
    p, q = eps.numerator, eps.denominator
    monomials = _monomials(f.n, d)
    rows = []
    for x in range(1 << f.n):
        coeffs = [q if m & x == m else 0 for m in monomials]
        qfx = q * ((f.table >> x) & 1)
        rows.append((coeffs, qfx + p))
        rows.append(([-c for c in coeffs], p - qfx))
    return LinearProgram(len(monomials), rows)


def _automorphisms(f: BooleanFunction) -> list[tuple[int, ...]]:
    """Every coordinate permutation p with f(p(x)) = f(x) for all x, the
    identity first; p moves bit j of a point to bit p[j], and fixes f
    exactly when its lane of ``bf._permutation_images`` equals f's table."""
    *_, perms = _permutation_stages(f.n)
    return [p for p, t in zip(perms, _permutation_images(f.n, f.table)) if t == f.table]


def _point_map(p: Sequence[int]) -> bytes:
    """Byte x holds the point p(x), one coordinate doubling the list at a
    time."""
    image = [0]
    for bit in p:
        image += [v | 1 << bit for v in image]
    return bytes(image)


def _lift_farkas(y: Sequence[int], orbits: Sequence[Sequence[int]]) -> list[int]:
    """Multipliers on the rows of every point from those on the two rows of
    each orbit P: y_x = y_P L / |P|, L the lcm of the orbit sizes.

    Each member m of a monomial orbit O lies below the same number of P's
    members, |P| c / |O| with c P's coefficient on O.  So y_P / |P| on each
    member of P gives column m the total of column O over |O|, which is 0,
    and the right-hand sides the same negative total as y_P; L clears the
    denominators.
    """
    top = lcm(*map(len, orbits))
    lifted = [0] * (2 * sum(map(len, orbits)))
    for k, members in enumerate(orbits):
        scale = top // len(members)
        for x in members:
            lifted[2 * x] = y[2 * k] * scale
            lifted[2 * x + 1] = y[2 * k + 1] * scale
    return lifted


def _mask_orbits(n: int, perms: Iterable[Sequence[int]]) -> list[list[int]]:
    """The orbits of the masks of n coordinates under a group of coordinate
    permutations, each in ascending order, listed by least member."""
    classes: dict[int, list[int]] = {}
    for x, least in enumerate(map(min, range(1 << n), *map(_point_map, perms))):
        classes.setdefault(least, []).append(x)
    return list(classes.values())


def _orbit_lp(
    f: BooleanFunction, orbits: list[list[int]], d: int, eps: Fraction
) -> tuple[LinearProgram, list[list[int]]]:
    """The approximation LP of f at degree d over the polynomials fixed by
    a group with mask orbits ``orbits``, and the orbits of its columns: those
    of size <= d, in order of (size, least member).  Such a polynomial, like
    f, is constant on each point orbit P, so the band at P's least member x
    stands for all of P's; its coefficient on a monomial orbit O is
    q #{m in O : m <= x}, scaled as in ``adeg_lp`` for eps = p/q."""
    p, q = eps.numerator, eps.denominator
    cols = [o for o in orbits if o[0].bit_count() <= d]
    cols.sort(key=lambda o: (o[0].bit_count(), o[0]))
    rows = []
    for x, *_ in orbits:
        counts = [q * sum(m & x == m for m in o) for o in cols]
        qfx = q * ((f.table >> x) & 1)
        rows.append((counts, qfx + p))
        rows.append(([-c for c in counts], p - qfx))
    return LinearProgram(len(cols), rows), cols


def _orbit_feasible(f: BooleanFunction, orbits: list[list[int]], d: int, eps: Fraction) -> bool:
    """The verdict of ``adeg_lp(f, d, eps)`` from one solve of ``_orbit_lp``.
    A witness spread over each orbit's members, or a Farkas vector lifted
    by ``_lift_farkas``, must pass the full LP, or AssertionError is raised."""
    reduced, cols = _orbit_lp(f, orbits, d, eps)
    result = simplex_feasible(reduced)
    full = adeg_lp(f, d, eps)
    if result.feasible:
        value = {m: c for o, c in zip(cols, result.witness) for m in o}
        ok = full.satisfies([value[m] for m in _monomials(f.n, d)])
    else:
        # the reduced and the full bands carry the same factor q
        ok = _is_farkas(full.num_vars, full.rows, _lift_farkas(result.farkas, orbits))
    if not ok:
        raise AssertionError(f"orbit LP verdict at degree {d} failed the full LP")
    return result.feasible
