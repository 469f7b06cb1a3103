"""Exact global complexity measures of truth tables.

All search-heavy measures (block sensitivity, certificates, decision-tree
depth) run in exact mode only, guarded by arity caps that raise instead of
truncating.  Each cap is checked by ``bf.check_arity`` inside the code
that every caller shares (``_cert_walk``, ``TableMeasures.bs``,
``TableMeasures.dt``, and ``coordinate._monomial_sens_violation``), so the
theorem suite meets the same caps as the public functions;
``approx_degree`` and ``lp.adeg_lp`` check the approximate-degree cap.
Certificates grow the monochromatic subcubes of f one dimension at a time,
keeping only the nonempty ones, and block sensitivity packs minimal
sensitive blocks, by branching on coordinates, only at the points whose
certificate could raise it.

Memoisation has one home per table.  A ``TableMeasures`` record carries
every per-table measure of one packed ``(n, table)`` pair, the coordinate
measures of ``coordinate.py`` among them, each computed on first read.
``table_measures`` is the one bounded memo, of one shared record per
table, so the coordinate checks and the public API (which wraps records
for :class:`~bfc.bf.BooleanFunction` values) compute each measure of a
table once while its record stays in the memo.  Decision-tree depth
recurses through the shared records of the restrictions.  The theorem
suite's own records are private: it builds each corpus function's record
directly, every row reads that one record, and the record goes once the
function's rows are done, so of the suite's tables the memo keeps only
the restrictions the DT search shares and the standard forms of fewer
inputs than f, and no deep table's cut list outlives its rows.
The search returns n at once on a table with unequal numbers of 1s on the odd- and even-weight
points: its top Möbius coefficient sum_x (-1)^(n-|x|) f(x) is then nonzero,
so deg = n, and deg <= DT <= n.

Per-point values live in one integer per table with one byte per point:
byte x (bits 8x..8x+7) holds the value at point x.  Every such value is at
most 2n <= 40 under ``bf.MAX_ARITY``, so lane-wise sums never carry out of
a byte.  ``_lanes`` spreads a bit mask over the bytes, and coordinate i
flips as the bit trick of ``bf.flip_table`` at eight times the stride.  A
maximum or minimum over a set of points masks the other bytes away and
searches the bytes for each candidate value t = 2n, ..., 1 (or 0, ..., 2n),
each test ``t in bytes`` one memchr in C, so it costs at most 2n passes
and no Python step per byte.  s_x, C_x, sens_i and cert_i are built this
way, with no loop over the points in Python; only the public ``per_point``
tuples and block sensitivity decode the bytes.  deg and deg_i take the
Möbius nonzeros one bit per mask S (the record's ``support``) and test
them, all or those whose S holds i, against the masks of each size
(``_size_levels``), from n down.

A record's restrictions f|x_j=b are read on its own points.  Fixing
x_j = b keeps every point x with x_j = b, and a monochromatic subcube of
f|x_j=b there is one of f at x whose free set avoids j, so one
certificate walk of f (``_cert_walk``) gives C_x and a cut list, from
which block j of ``branch_cert_lanes`` takes the C_x of f|x_j=x_j at
every x (``_branch_lanes``, run on the first read of the field: only
``mono_dt_intersect``, on monotone f, and the ``rrcm`` row at a drop
pair read it, and a random table seldom has a drop pair); block j of
``branch_sens_lanes`` is s_x less 1 where x is sensitive to j.  An edge
along i != j never leaves its branch of x_j, so the theorem suite's
``rrcm`` and ``mono_dt_intersect`` rows read the restrictions' values
off these blocks and build no record for any restriction.

Every field is a pure function of the table, so concurrent readers of one
record that race on a field compute the same value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import NamedTuple

from .bf import (
    _BIT_BYTES,
    BooleanFunction,
    check_arity,
    diff_mask,
    flip_table,
    fourier_vector,
    half_mask,
    mobius_support,
    odd_points,
    restrict_bit,
)

# block sensitivity, certificates, DT depth, the monomial sensitivity check:
# at n = 13-14 (PARITY 14, MAJ 13, OR 14, AND 14, a random table) C took at
# most 0.07 s, as did C with the restrictions' C_x, and DT under 0.001 s,
# bs with its C at most 0.25 s (MAJ 13), deg_i, sens_i and cert_i with C
# at most 0.06 s, and a process peaked at 29 MB (OR and AND 14, whose
# subcube levels are widest); raw seconds, the largest of three fresh
# processes each, one 2-core x86-64 host
EXACT_SEARCH_MAX_ARITY = 14
# approximate degree and its LP (lp.adeg_lp): three seeded 6-input tables
# with no coordinate symmetry solve the full LP in 197-215 pivots,
# 0.15-0.22 s; on the orbit LP (lp._orbit_lp), its check on the full LP
# included, KUSHILEVITZ took 1.3 ms, MAF 3 1.9 ms and PARITY 6 7.7-7.9 ms,
# against 15 ms, 16 ms and 0.25 s solving the full LP alone; a 7-input
# table with no symmetry took 520 pivots, 1.6 s; raw, in-process, one
# 2-core x86-64 host
APPROX_DEGREE_MAX_ARITY = 6


# ---------------------------------------------------------------------------
# one byte per point
# ---------------------------------------------------------------------------

def _lanes(mask: int) -> int:
    """The packed int whose byte x is bit x of ``mask`` (mask >= 0)."""
    return int.from_bytes(f"{mask:b}".encode().translate(_BIT_BYTES), "big")


@lru_cache(maxsize=None)
def _lane_halves(n: int) -> tuple[tuple[int, int], ...]:
    """(lo, s) per coordinate i: the bytes of the points with x_i = 0, and
    the shift in bits from point x to point x ^ 2**i."""
    return tuple((half_mask(n + 3, i + 3), 8 << i) for i in range(n))


def _flip_lanes(v: int, lo: int, s: int) -> int:
    """Byte x of the result is byte x ^ 2**i of ``v``, for (lo, s) of coordinate i."""
    return (v >> s) & lo | (v & lo) << s


def _lane_max(v: int, n: int) -> int:
    """The largest byte of the packed ``v``, whose every byte is at most 2n.

    The bytes are searched for t = 2n, 2n - 1, ..., 1 in turn (each test one
    memchr in C), so a byte above 2n is never found: callers keep every lane
    at most 2n, as the module docstring states.  0 when no byte is nonzero.
    """
    lanes = v.to_bytes(1 << n, "little")
    for t in range(2 * n, 0, -1):
        if t in lanes:
            return t
    return 0


def _lane_min(v: int, n: int) -> int:
    """The smallest byte of the packed ``v``, whose every byte is at most 2n
    or 0xff (a point masked away); 0xff when every byte is.

    The search of ``_lane_max`` in ascending order, t = 0, 1, ..., 2n.
    """
    lanes = v.to_bytes(1 << n, "little")
    for t in range(2 * n + 1):
        if t in lanes:
            return t
    return 0xFF


@lru_cache(maxsize=None)
def _size_levels(n: int) -> tuple[int, ...]:
    """Entry k has bit S set for every mask S of n coordinates with |S| = k.

    Built a coordinate at a time: the masks of n coordinates of size k are
    those of n - 1 coordinates of size k, and those of size k - 1 with the
    top coordinate added (shifted up by 2**(n-1)).
    """
    if n == 0:
        return (1,)
    below = _size_levels(n - 1)
    s = 1 << (n - 1)
    return tuple(a | b << s for a, b in zip(below + (0,), (0,) + below))


def _top_size(n: int, support: int) -> int:
    """The largest |S| with bit S of ``support`` set, tested against the
    masks of each size from n down; 0 when there is none."""
    levels = _size_levels(n)
    k = n
    while k and not support & levels[k]:
        k -= 1
    return k


def _edge_sums(point: int, edge: int, lo: int, s: int) -> int:
    """point[x] + point[x ^ 2**i] at the points x where ``edge`` is 1 (the
    sensitive edges along i), else 0, for (lo, s) of coordinate i."""
    return (point + _flip_lanes(point, lo, s)) & edge * 255


# ---------------------------------------------------------------------------
# search kernels on (n, table)
# ---------------------------------------------------------------------------

class CertificateReport(NamedTuple):
    C: int
    C0: int
    C1: int
    Cmin: int
    Cmin0: int
    Cmin1: int
    per_point: tuple[int, ...]


def _cert_walk(n: int, table: int) -> tuple[int, list[tuple[int, int]]]:
    """(C_x packed, the cut list): C_x is n minus the dimension K_x of the
    largest monochromatic subcube at x, and the cut list holds, for each
    set S of a monochromatic subcube, the points x with K_x = |S| that lie
    in one spanned by S (``_branch_lanes`` reads it).

    A subcube of a monochromatic subcube is monochromatic, so the
    dimensions of those at x are 0..K_x, and K_x counts the k >= 1 for
    which x lies in a monochromatic subcube of dimension k.  Level k
    holds, for each k-set S whose mask ``mono[S]`` (bit x set iff f is
    constant on {x ^ T : T <= S}) is nonzero, the pair (S, mono[S]).
    S + i, for i above every coordinate of S, has mask mono[S] & (mono[S]
    flipped along i) & (f agrees across i): f is constant on the subcubes
    spanned by S at x and at x ^ i, and takes one value at both.  Every
    superset of a zero mask is zero, so a level lists only the nonzero
    masks, and each set is reached once, from its prefix.

    After a level is extended, each of its masks, cut to the points that
    lie in no mask of the next level (those with K_x = |S|), goes on the
    cut list when nonzero, after the entry (0, the points with K_x = 0).
    A cut mask holds only points at its own level, so the list can be far
    shorter than the widest level: 15 masks for OR 14, whose widest level
    holds 3,432.  A random 14-input table keeps 495 masks of 2**14 bits,
    about 1.1 MB.
    """
    check_arity(n, EXACT_SEARCH_MAX_ARITY, "certificate search")
    full = (1 << (1 << n)) - 1
    agree = [full ^ diff_mask(table, n, i) for i in range(n)]
    cx = n * _lanes(full)
    level = [(1 << i, a) for i, a in enumerate(agree) if a]
    edged = 0
    for a in agree:
        edged |= a
    cut = [(0, full ^ edged)]
    while level:
        up = higher = 0
        wider = []
        for sset, m in level:
            up |= m
            for i in range(sset.bit_length(), n):
                c = m & flip_table(m, n, i) & agree[i]
                if c:
                    wider.append((sset | 1 << i, c))
                    higher |= c
        cx -= _lanes(up)
        keep = ~higher
        while level:  # popped, so each mask is freed as its cut is kept
            sset, m = level.pop()
            m &= keep
            if m:
                cut.append((sset, m))
        level = wider
    return cx, cut


def _branch_lanes(n: int, cx: int, cut: list[tuple[int, int]]) -> int:
    """C^j_x packed in n blocks: block j, bytes j 2**n .. (j+1) 2**n - 1,
    holds C^j_x = n - 1 - K^j_x, with K^j_x the largest dimension of a
    monochromatic subcube at x whose free set avoids j; ``cx`` and
    ``cut`` are the two outputs of ``_cert_walk``.

    Dropping j, or any coordinate when j is not in it, from the free set
    of a largest subcube at x leaves one of dimension K_x - 1 that avoids
    j, so K^j_x is K_x - 1 or K_x, and it is K_x iff x lies in a mask of
    level K_x whose set avoids j (always, when K_x = 0).  So C^j_x is C_x
    less 1 at the points of ``avoid[j]``, the OR of the cut masks whose
    set S leaves j out.  Every point of a cut mask has K_x = |S|, so one
    pass over the whole list serves every level.  Every j at or above
    top, one above the highest coordinate of S, is outside S, so those
    masks are ORed by top first and a running OR over top covers those j;
    only the j below top take one OR per mask.

    A monochromatic subcube of f|x_j=b at y is one of f at the point x
    that puts x_j = b back into y, with a free set that avoids j, so
    C^j_x is the certificate complexity of f|x_j=x_j at that point.
    """
    size = 1 << n
    avoid = [0] * n
    by_top = [0] * (n + 1)
    for sset, m in cut:
        top = sset.bit_length()
        by_top[top] |= m
        rest = sset ^ (1 << top) - 1  # the j below top outside S
        while rest:
            low = rest & -rest
            avoid[low.bit_length() - 1] |= m
            rest ^= low
    run = 0
    for j in range(n):
        run |= by_top[j]
        avoid[j] |= run
    blocks = b"".join((cx - _lanes(a)).to_bytes(size, "little") for a in avoid)
    return int.from_bytes(blocks, "little")


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


class _Packing:
    """The largest families of pairwise disjoint blocks, out of ``blocks``
    (coordinate masks), inside a mask of free coordinates.

    ``count`` branches on the lowest coordinate that a fitting block uses:
    either that coordinate stays free, or one block holding it is taken.  A
    free mask first shrinks to the union of the blocks that fit in it, and
    ``memo`` keeps the count of every mask met, except the masks with fewer
    coordinates than the smallest block, which hold none.
    """

    def __init__(self, blocks: list[int]):
        self.blocks = blocks
        self.least = min(map(int.bit_count, blocks), default=1)
        self.memo: dict[int, int] = {}

    def count(self, av: int) -> int:
        if av.bit_count() < self.least:
            return 0
        memo = self.memo
        got = memo.get(av)
        if got is None:
            fit = []
            used = 0
            for b in self.blocks:
                if not b & ~av:
                    fit.append(b)
                    used |= b
            if not used:
                got = 0
            elif used != av:
                got = self.count(used)
            else:
                low = used & -used
                got = self.count(av ^ low)
                for b in fit:
                    if b & low:
                        taken = self.count(av & ~b) + 1
                        if taken > got:
                            got = taken
            memo[av] = got
        return got

    def witness(self, av: int) -> tuple[int, ...]:
        """A largest family inside ``av``: at each step the first block, in
        list order, whose remainder holds one block fewer.  That is the first
        maximum of the plain search that tries every fitting block in order
        and keeps a strictly larger count."""
        chosen = []
        for left in range(self.count(av) - 1, -1, -1):
            for b in self.blocks:
                if not b & ~av and self.count(av & ~b) == left:
                    break
            chosen.append(b)
            av &= ~b
        return tuple(chosen)


class BlockSensitivityReport(NamedTuple):
    bs: int
    witness_input: tuple[int, ...]
    witness_blocks: tuple[frozenset[int], ...]


# ---------------------------------------------------------------------------
# the measure record of one table
# ---------------------------------------------------------------------------

class _lazy:
    """A field computed by ``func`` on first read and stored in the
    instance ``__dict__``, which then shadows this non-data descriptor.

    Unlike ``functools.cached_property`` it takes no lock: a field is a pure
    function of the table, so two readers that race compute the same value.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rec, owner=None):
        if rec is None:
            return self
        value = rec.__dict__[self.name] = self.func(rec)
        return value


class TableMeasures:
    """The measures of one truth table, each computed on first read and
    kept on the record.

    ``table_measures`` hands out the shared record of each table; a record
    built directly starts empty.  Decision-tree depth recurses through the
    shared records of the restrictions.  Of the packed per-point values
    (one byte per point, see the module docstring) only f, s_x, C_x and
    the restrictions' C_x are kept; the byte masks of f's values and of
    the sensitive points, and the restrictions' s_x, are rebuilt where
    they are read.
    """

    def __init__(self, n: int, table: int):
        self.n = n
        self.table = table

    @_lazy
    def f(self) -> BooleanFunction:
        return BooleanFunction(self.n, self.table)

    @_lazy
    def monotone(self) -> bool:
        return self.f.is_monotone()

    @_lazy
    def diffs(self) -> tuple[int, ...]:
        return tuple(diff_mask(self.table, self.n, i) for i in range(self.n))

    @_lazy
    def nrel(self) -> int:
        """Number of relevant coordinates."""
        return sum(1 for d in self.diffs if d)

    @_lazy
    def table_lanes(self) -> int:
        """f packed one byte per point."""
        return _lanes(self.table)

    def _value_masks(self) -> tuple[int, int]:
        """Byte masks (0xff per point) of the points where f = 0 and f = 1."""
        ones = self.table_lanes * 255
        return ones ^ ((1 << (8 << self.n)) - 1), ones

    @_lazy
    def sens_lanes(self) -> int:
        """s_x packed: the sum over coordinates i of f ^ (f flipped along
        i), whose byte x is 1 iff x is sensitive to i."""
        t = self.table_lanes
        sx = 0
        for lo, s in _lane_halves(self.n):
            sx += t ^ _flip_lanes(t, lo, s)
        return sx

    def branch_sens_lanes(self, j: int) -> int:
        """Byte x is the sensitivity of f|x_j=x_j at the point x, which is
        s_x less 1 where x is sensitive to j: block j of the restrictions'
        s_x, the sibling of ``branch_cert_lanes``.  Built where it is read
        and never kept, since sensitivity serves arities up to
        ``bf.MAX_ARITY``."""
        t = self.table_lanes
        return self.sens_lanes - (t ^ _flip_lanes(t, *_lane_halves(self.n)[j]))

    @_lazy
    def point_sens(self) -> tuple[int, ...]:
        return tuple(self.sens_lanes.to_bytes(1 << self.n, "little"))

    @_lazy
    def sens(self) -> tuple[int, int, int]:
        """(s, s0, s1)."""
        n, sx = self.n, self.sens_lanes
        zeros, ones = self._value_masks()
        s0, s1 = _lane_max(sx & zeros, n), _lane_max(sx & ones, n)
        return max(s0, s1), s0, s1

    @_lazy
    def support(self) -> int:
        """The Möbius support: bit S set iff c_S != 0 (``bf.mobius_support``)."""
        return mobius_support(self.n, self.table)

    @_lazy
    def deg(self) -> int:
        """The largest |S| with c_S != 0, one scan of ``support`` by size
        (``_top_size``); 0 for constants."""
        return _top_size(self.n, self.support)

    @_lazy
    def cert_walk(self) -> tuple[int, list[tuple[int, int]]]:
        """C_x packed and the cut list, from one ``_cert_walk``."""
        return _cert_walk(self.n, self.table)

    @_lazy
    def cert_lanes(self) -> int:
        """C_x packed: n minus the dimension of the largest monochromatic
        subcube at x."""
        return self.cert_walk[0]

    @_lazy
    def branch_cert_lanes(self) -> int:
        """n blocks of 2**n byte lanes: byte x of block j is the certificate
        complexity of f|x_j=x_j at the point x, built from the walk's cut
        list on first read (``_branch_lanes``)."""
        return _branch_lanes(self.n, *self.cert_walk)

    @_lazy
    def point_certs(self) -> tuple[int, ...]:
        """C_x for every point: n minus the largest monochromatic subcube at x."""
        return tuple(self.cert_lanes.to_bytes(1 << self.n, "little"))

    @_lazy
    def certs(self) -> CertificateReport:
        """Maxima and minima of C_x; a minimum over the points of a value f
        never takes is 0, as is a maximum.  Minima search the bytes after the
        other points are set to 0xff."""
        n, cx = self.n, self.cert_lanes
        zeros, ones = self._value_masks()
        C0, C1 = _lane_max(cx & zeros, n), _lane_max(cx & ones, n)
        Cmin0 = _lane_min(cx | ones, n) if zeros else 0
        Cmin1 = _lane_min(cx | zeros, n) if ones else 0
        return CertificateReport(
            max(C0, C1), C0, C1, _lane_min(cx, n), Cmin0, Cmin1, self.point_certs
        )

    @_lazy
    def bs(self) -> BlockSensitivityReport:
        """bs and the first point, in index order, that attains it.

        Since bs_x <= C_x (a certificate meets every sensitive block), a point
        with C_x <= best cannot raise the count and is skipped, and the search
        stops once best reaches max C_x.  The search starts from the floor
        bs >= s: a point with C_x < s has bs_x <= C_x < s <= bs and can never
        attain bs, so it is skipped too.  The points that could win are
        visited as before, so the witness does not change.  At each point
        visited ``_Packing`` counts the most disjoint minimal sensitive blocks; the
        witness blocks are rebuilt once, from the packing of the point that
        wins.
        """
        n, table = self.n, self.table
        check_arity(n, EXACT_SEARCH_MAX_ARITY, "block sensitivity")
        cx = self.point_certs
        top = max(cx)
        floor = self.sens[0]
        full = (1 << n) - 1
        best, best_x, best_packing = 0, 0, _Packing([])  # a constant packs none
        for x, c in enumerate(cx):
            if best == top:
                break
            if c <= best or c < floor:
                continue
            blocks = _minimal_sensitive_blocks(n, table, x)
            if len(blocks) <= best:
                continue
            packing = _Packing(blocks)
            cnt = packing.count(full)
            if cnt > best:
                best, best_x, best_packing = cnt, x, packing
        witness = tuple((best_x >> i) & 1 for i in range(n))
        blocks = tuple(
            frozenset(i + 1 for i in range(n) if (b >> i) & 1)
            for b in best_packing.witness(full)
        )
        return BlockSensitivityReport(best, witness, blocks)

    @_lazy
    def dt(self) -> int:
        """Minimax query depth, searched through the shared records of the
        restrictions, so each sub-table is searched once while its record
        stays in the memo.

        A table whose top Möbius coefficient sum_x (-1)^(n-|x|) f(x) is
        nonzero, that is, with unequal numbers of 1s on the odd- and
        even-weight points, has degree n, and deg <= DT <= n, so its depth
        is n with no search.  The rule is tried at every node, so sub-tables
        of full degree end at once.
        """
        n, table = self.n, self.table
        check_arity(n, EXACT_SEARCH_MAX_ARITY, "decision-tree depth")
        if table == 0 or table == (1 << (1 << n)) - 1:
            return 0
        if 2 * (table & odd_points(n)).bit_count() != table.bit_count():
            return n
        best = n
        for i in range(n):
            if not diff_mask(table, n, i):
                continue
            d0 = table_measures(n - 1, restrict_bit(table, n, i, 0)).dt
            if d0 + 1 >= best:
                continue
            d1 = table_measures(n - 1, restrict_bit(table, n, i, 1)).dt
            best = min(best, 1 + max(d0, d1))
        return best

    @_lazy
    def inf_counts(self) -> tuple[int, ...]:
        """#{x : f(x) != f(x^i)} for each coordinate."""
        return tuple(d.bit_count() for d in self.diffs)

    # -- coordinate measures (see coordinate.py) ----------------------------

    @_lazy
    def deg_i(self) -> tuple[int, ...]:
        """Degree of f(x) - f(x^i) for each coordinate (0 when irrelevant).

        With f = sum c_S x^S, flipping x_i turns x^S into (1 - x_i) x^(S-i) for
        S containing i, so f(x) - f(x^i) = sum_{S∋i} c_S (2 x^S - x^(S-i)).
        The terms 2 c_S x^S cannot cancel, so deg_i is the largest |S| with
        i in S and c_S != 0: the largest k whose level of ``_size_levels``
        meets ``support`` on the masks that contain i (``_top_size``).
        """
        n, support = self.n, self.support
        return tuple(_top_size(n, support & ~half_mask(n, i)) for i in range(n))

    def _edge_max(self, point: int) -> tuple[int, ...]:
        """max over sensitive edges {x, x^i} of point[x] + point[x^i], per
        coordinate, for a packed ``point``.

        The sum of ``point`` and its flip along i takes that value at both
        ends of every edge along i, so its largest byte over the sensitive
        points (d_i, the bytes where f differs from its flip) is the
        maximum over edges.  sens_i and cert_i build d_i apart: sens_i
        serves arities up to MAX_ARITY and cert_lanes stops at
        EXACT_SEARCH_MAX_ARITY, so one pass for both would put sens_i
        behind the certificate cap.  The rrcm row needs no maximum over
        the restrictions' edges, only whether each stays below f's value:
        it adds a threshold to the same sums over the blocks of
        ``branch_sens_lanes`` and ``branch_cert_lanes`` and tests one bit
        per byte, and runs this byte search on one block only where that
        test fails (``coordinate._Axioms``).
        """
        n, t = self.n, self.table_lanes
        return tuple(
            _lane_max(_edge_sums(point, t ^ _flip_lanes(t, lo, s), lo, s), n)
            for lo, s in _lane_halves(n)
        )

    @_lazy
    def sens_i(self) -> tuple[int, ...]:
        """max over sensitive edges of s_x + s_{x^i}, per coordinate."""
        return self._edge_max(self.sens_lanes)

    @_lazy
    def cert_i(self) -> tuple[int, ...]:
        """max over sensitive edges of C_x + C_{x^i}, per coordinate."""
        return self._edge_max(self.cert_lanes)


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
    return table_measures(f.n, f.table).dt


class InfluenceReport(NamedTuple):
    per_coordinate: tuple[Fraction, ...]
    total: Fraction


def influence(f: BooleanFunction) -> InfluenceReport:
    """Counting influences, cross-checked exactly against the spectrum."""
    n, table = f.n, f.table
    counts = table_measures(n, table).inf_counts
    # at step i, squares[S] (S a mask of coordinates 0..i) sums w^2 over
    # the masks that agree with S there: those holding i are its upper half,
    # and adding the two halves sums i out, with no Python step per mask
    w = fourier_vector(n, table)
    squares = list(map(mul, w, w))
    spectra = [0] * n
    for i in reversed(range(n)):
        half = 1 << i
        spectra[i] = sum(squares[half:])
        squares = list(map(add, squares[:half], squares[half:]))
    scale = 1 << n
    for i, spectral in enumerate(spectra):
        if spectral != counts[i] * scale:
            raise AssertionError(
                f"influence mismatch on coordinate {i + 1}: "
                f"count {counts[i]}/{scale} vs spectrum {spectral}/{scale * scale}"
            )
    per = tuple(Fraction(c, scale) for c in counts)
    return InfluenceReport(per, sum(per, Fraction(0)))


def approx_degree(f: BooleanFunction, eps: Fraction = Fraction(1, 3)) -> int:
    """Least degree admitting a uniform eps-approximation, by exact LP.

    Averaging an approximation over the coordinate permutations that fix f
    keeps its degree and its error (Minsky-Papert symmetrization), so each
    degree's LP is solved over the polynomials those permutations fix: one
    variable per monomial orbit and one band per point orbit
    (``lp._orbit_lp``, on the orbits ``lp._mask_orbits`` finds once).
    ``lp._orbit_feasible`` checks every verdict against the full LP
    ``lp.adeg_lp``, through a spread witness or a lifted Farkas vector.
    """
    return _approx_degree(table_measures(f.n, f.table), eps)


def _approx_degree(rec: TableMeasures, eps: Fraction) -> int:
    """``approx_degree`` of the function of the record ``rec``."""
    f = rec.f
    check_arity(f.n, APPROX_DEGREE_MAX_ARITY, "approximate degree")
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    from .lp import _automorphisms, _mask_orbits, _orbit_feasible

    # f's own multilinear polynomial meets the LP at d = deg f with error
    # 0, so that LP is feasible and is never solved
    top = rec.deg
    orbits = _mask_orbits(f.n, _automorphisms(f))
    for d in range(top):
        if _orbit_feasible(f, orbits, d, eps):
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
