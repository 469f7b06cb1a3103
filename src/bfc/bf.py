"""Truth-table representation of Boolean functions.

A function on ``n`` inputs (coordinates are 1-based, ``1..n``) is stored as a
single Python integer whose bit at index ``sum(x_i * 2**(i-1))`` is ``f(x)``;
coordinate 1 is the least-significant index bit.  All operations are pure and
instances are immutable, so they can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

MAX_ARITY = 20


class ArityError(ValueError):
    """Raised when an operation is asked to exceed its exact-mode arity cap."""


def check_arity(n: int, cap: int = MAX_ARITY, what: str = "truth table") -> None:
    """The one arity guard: every cap in the package is checked here."""
    if not 0 <= n <= cap:
        bound = f"<= {cap}" if n > cap else ">= 0"
        raise ArityError(f"{what} supports arity {bound}, got {n}")


# ---------------------------------------------------------------------------
# bit-pattern helpers on packed truth tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def half_mask(n: int, i0: int) -> int:
    """Mask of the 2**n index positions whose index bit ``i0`` is 0."""
    s = 1 << i0
    block = (1 << s) - 1
    width = 2 * s
    total = 1 << n
    m = block
    while width < total:
        m |= m << width
        width <<= 1
    return m


@lru_cache(maxsize=None)
def odd_points(n: int) -> int:
    """Mask of the 2**n points of odd weight (the table of PARITY_n), built a
    coordinate at a time: the points with x_k = 1 are the points below them
    with their values negated."""
    m = 0
    for k in range(n):
        m |= (m ^ ((1 << (1 << k)) - 1)) << (1 << k)
    return m


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_string(n: int, table: int) -> str:
    """The 2**n bits of ``table`` as '0'/'1', character x holding bit x."""
    return format(table, f"0{1 << n}b")[::-1]


def _table_bytes(n: int, table: int) -> bytes:
    """The 2**n bits of ``table`` as bytes 0/1, byte x holding bit x."""
    return _bit_string(n, table).encode().translate(_BIT_BYTES)


def restrict_bit(table: int, n: int, i0: int, b: int) -> int:
    """Table of f with 0-based coordinate ``i0`` fixed to ``b`` (arity n-1).

    Step i merges runs of 2**(i-1) kept bits into runs of 2**i, which the
    mask of index bit i then keeps.
    """
    s = 1 << i0
    t = (table >> s) if b else table
    t &= half_mask(n, i0)
    for i in range(i0 + 1, n):
        t = (t | (t >> (1 << (i - 1)))) & half_mask(n, i)
    return t


def flip_table(table: int, n: int, i0: int) -> int:
    """Table of x -> f(x with coordinate i0 flipped)."""
    s = 1 << i0
    lo = half_mask(n, i0)
    return (table >> s) & lo | (table & lo) << s


def diff_mask(table: int, n: int, i0: int) -> int:
    """Bit x is set iff f(x) != f(x^(i0+1))."""
    return table ^ flip_table(table, n, i0)


# struct reads lanes of at most 64 bits, and 7 inputs would need 128
PERMUTATION_MAX_ARITY = 6


@lru_cache(maxsize=None)
def _permutation_stages(n: int) -> tuple[str, int, tuple, tuple[tuple[int, ...], ...]]:
    """(lane format, bytes, stages, lane permutations) of ``_permutation_images``.

    Lanes are max(2**n, 8) bits wide.  Stage m, for m = n - 1 down to 1,
    copies the lanes so far m + 1 times; copy 0 stays, and copy c + 1
    exchanges coordinates c and m on every lane by one delta-swap, its mask
    a lane's indices with bit c set and bit m clear times a repunit over the
    copy's lanes.  Lane k holds x -> t(p(x)) for p = perms[k], p moving bit
    j of a point to bit p[j], so an exchange swaps two entries of p.  Each
    permutation is one product of exchanges, one per stage: it sits in one
    lane, and lane 0 holds the identity.
    """
    check_arity(n, PERMUTATION_MAX_ARITY, "permutation images")
    w, perms, stages = max(1 << n, 8), [tuple(range(n))], []
    for m in reversed(range(1, n)):
        base, span = perms[:], w * len(perms)
        repunit = int.from_bytes((b"\1" + bytes((w >> 3) - 1)) * len(base), "little")
        swaps = []
        for c in range(m):
            lane = half_mask(n, m) & ~half_mask(n, c)
            swaps.append(((1 << m) - (1 << c), lane * repunit << span * (c + 1)))
            order = (*range(c), m, *range(c + 1, m), c, *range(m + 1, n))
            perms += map(itemgetter(*order), base)
        stages.append((span >> 3, m + 1, tuple(swaps)))
    return f"<{len(perms)}{'BBBBHIQ'[n]}", len(perms) * w >> 3, tuple(stages), tuple(perms)


def _permutation_images(n: int, table: int) -> tuple[int, ...]:
    """The n! images of ``table`` under coordinate permutations, side by
    side in one integer: lane k under permutation k of ``_permutation_stages``."""
    fmt, size, stages, _ = _permutation_stages(n)
    v = table
    for span, copies, swaps in stages:
        v = int.from_bytes(v.to_bytes(span, "little") * copies, "little")
        for shift, mask in swaps:
            d = ((v >> shift) ^ v) & mask
            v ^= d ^ (d << shift)
    return struct.unpack(fmt, v.to_bytes(size, "little"))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _Pairs(NamedTuple):
    pairs: tuple[tuple[int, int], ...]


class PartialAssignment(_Pairs):
    """A set of (coordinate, bit) fixings with distinct coordinates."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]]):
        pairs = tuple((int(i), int(b)) for i, b in pairs)
        coords = [i for i, _ in pairs]
        if len(set(coords)) != len(coords):
            raise ValueError(f"duplicate coordinates in assignment: {coords}")
        for i, b in pairs:
            if i < 1:
                raise ValueError(f"coordinate {i} out of range")
            if b not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {b}")
        return super().__new__(cls, pairs)


def _as_pairs(a) -> tuple[tuple[int, int], ...]:
    if isinstance(a, PartialAssignment):
        return a.pairs
    return PartialAssignment(a).pairs


class BooleanFunction:
    """Explicit truth table of a Boolean function on at most 20 inputs."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: int):
        check_arity(n)
        size = 1 << n
        if not 0 <= table < (1 << size):
            raise ValueError(f"table does not fit in {size} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)

    def __setattr__(self, *_):
        raise AttributeError("BooleanFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[tuple[int, ...]], int]) -> "BooleanFunction":
        """Tabulate ``fn`` on every input tuple, after checking the arity."""
        check_arity(n)
        return cls(n, _tabulate(n, fn))

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.n, self.table))

    def __repr__(self) -> str:
        return f"BooleanFunction(n={self.n}, table=0x{self.table:x})"

    def bits(self) -> tuple[int, ...]:
        return tuple(_table_bytes(self.n, self.table))

    def bit(self, index: int) -> int:
        return (self.table >> index) & 1

    def evaluate(self, x: Sequence[int]) -> int:
        """Value of f at the given input bits (one per coordinate)."""
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} input bits, got {len(x)}")
        idx = 0
        for i, bit in enumerate(x):
            if bit not in (0, 1):
                raise ValueError(f"input bits must be 0/1, got {bit!r}")
            idx |= bit << i
        return (self.table >> idx) & 1

    def is_constant(self) -> bool:
        size = 1 << self.n
        return self.table == 0 or self.table == (1 << size) - 1

    # -- restriction and structure ------------------------------------------

    def restrict(self, assignment) -> "BooleanFunction":
        """Fix some coordinates; survivors are renumbered preserving order."""
        pairs = _as_pairs(assignment)
        for i, _ in pairs:
            if i > self.n:
                raise ValueError(f"coordinate {i} out of range for arity {self.n}")
        table, n = self.table, self.n
        for i, b in sorted(pairs, reverse=True):
            table = restrict_bit(table, n, i - 1, b)
            n -= 1
        return BooleanFunction(n, table)

    def relevant_variables(self) -> frozenset[int]:
        return frozenset(
            i + 1 for i in range(self.n) if diff_mask(self.table, self.n, i)
        )

    def num_relevant(self) -> int:
        return len(self.relevant_variables())

    def is_monotone(self) -> bool:
        """True iff raising any single input bit never lowers the output."""
        for i in range(self.n):
            lo = half_mask(self.n, i)
            a = self.table & lo
            b = (self.table >> (1 << i)) & lo
            if a & ~b:
                return False
        return True

    # -- file format ---------------------------------------------------------

    def to_tt(self) -> str:
        return f"n={self.n}\n{_bit_string(self.n, self.table)}\n"

    @classmethod
    def from_tt(cls, text: str) -> "BooleanFunction":
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("n="):
            raise ValueError("truth-table text must start with an 'n=<arity>' line")
        try:
            n = int(lines[0][2:])
        except ValueError:
            raise ValueError(
                f"truth-table header {lines[0]!r} needs an integer arity"
            ) from None
        check_arity(n)
        bits = lines[1].strip()
        if len(bits) != 1 << n:
            raise ValueError(f"expected {1 << n} table bits, got {len(bits)}")
        if set(bits) - {"0", "1"}:
            raise ValueError("table line may contain only 0 and 1")
        if any(line.strip() for line in lines[2:]):
            raise ValueError("truth-table text has a non-blank line after the table line")
        return cls(n, int(bits[::-1], 2) if bits else 0)


def _tabulate(n: int, fn: Callable[[tuple[int, ...]], int]) -> int:
    """The table of ``fn``, called once per input tuple."""
    # product counts the reversed tuples down from the top index, so the
    # string reads most-significant bit first, coordinate 1 lowest
    bits = "".join(
        "1" if fn(x[::-1]) else "0" for x in itertools.product((1, 0), repeat=n)
    )
    return int(bits, 2)


def _biased_lanes(n: int, w: int) -> bytes:
    """2**n lanes of w bits, each holding 2**(w-1), as little-endian bytes."""
    return (bytes(w // 8 - 1) + b"\x80") * (1 << n)


def _mobius_lanes(n: int, table: int) -> tuple[int, int]:
    """(v, w): lane m of ``v``, w bits wide, holds the coefficient c_m of f
    over {0,1} in two's complement.

    The butterflies run on one integer with a w-bit lane per mask (w = 16
    for n <= 15, else 32), lane m holding 2**(w-1) plus its value.  The step
    for coordinate i subtracts lane m - i from each lane m that contains i
    and adds the bias back; steps go from the top coordinate down, so the
    mask of the lanes without i is derived from the one before.  Every value
    a lane ever holds is a coefficient c_S of some restriction of f, and
    |c_S| <= 2**(|S|-1) (a signed sum of 2**|S| bits, half of them negated),
    so with |S| <= n < w it stays within [-2**(w-1), 2**(w-1)): no lane
    borrows from or carries into the next, and the integer arithmetic is
    lane-wise.  Clearing the bias bits leaves each value in two's complement.
    """
    w = 16 if n <= 15 else 32
    biased = _biased_lanes(n, w)
    bias = int.from_bytes(biased, "little")
    lanes = bytearray(biased)
    lanes[:: w // 8] = _table_bytes(n, table)
    v = int.from_bytes(lanes, "little")
    lo = (1 << (w << n >> 1)) - 1  # the lanes of the masks without coordinate n - 1
    for i in reversed(range(n)):
        s = w << i
        v += (bias & ~lo) - ((v & lo) << s)
        lo ^= lo << (s >> 1)
    return v ^ bias, w


def _signed_lanes(n: int, v: int, w: int) -> list[int]:
    """The 2**n lanes of ``v``, w bits each, read as two's complement."""
    signed = f"<{1 << n}{'h' if w == 16 else 'i'}"
    return list(struct.unpack(signed, v.to_bytes(w << n >> 3, "little")))


def mobius_vector(n: int, table: int) -> list[int]:
    """Integer monomial coefficients of f over {0,1}, indexed by subset mask:
    the lanes of ``_mobius_lanes`` read back as signed w-bit integers."""
    return _signed_lanes(n, *_mobius_lanes(n, table))


_NONZERO_TO_BIT = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)


def _lane_support(n: int, v: int, w: int) -> int:
    """The mask with bit m set iff lane m of ``v`` (2**n lanes of w bits)
    is nonzero.

    ORing each lane down into its lowest byte leaves that byte nonzero iff
    the lane is; those bytes, one per mask, become the bits of the result
    with no Python step per mask.
    """
    v |= v >> 8
    if w == 32:
        v |= v >> 16
    low = v.to_bytes(w << n >> 3, "little")[:: w // 8]
    return int(low[::-1].translate(_NONZERO_TO_BIT), 2)


def mobius_support(n: int, table: int) -> int:
    """The mask with bit m set iff the coefficient c_m of ``mobius_vector``
    is nonzero."""
    return _lane_support(n, *_mobius_lanes(n, table))


def _support_at_one(n: int, lanes: tuple[int, int], j: int) -> int:
    """The Möbius support of f|x_j=1, as masks of f's n coordinates (none
    holding j), from f's ``_mobius_lanes``.

    Fixing x_j = 1 turns c_S x^S + c_(S+j) x^(S+j) into (c_S + c_(S+j)) x^S
    for every S without j.  Lanes S and S + j are added with their biases,
    one bias taken off, all in one integer sum: each lane ends at 2**(w-1)
    plus a coefficient of the restriction, which lies in the lane's range
    as every value of ``_mobius_lanes`` does, so the sum is lane-wise.
    """
    v, w = lanes
    lw = w.bit_length() - 1
    keep = half_mask(n + lw, j + lw)  # the lanes of the masks without j
    full = int.from_bytes(_biased_lanes(n, w), "little")
    v ^= full
    bias = full & keep
    summed = (v & keep) + (v >> (w << j) & keep) - bias
    return _lane_support(n, summed ^ bias, w)


def fourier_vector(n: int, table: int) -> list[int]:
    """2**n times the Fourier coefficients, via the Walsh-Hadamard transform.

    The butterflies run on lanes, as in ``_mobius_lanes``: lane m, w bits
    wide, holds 2**(w-1) plus the partial transform at mask m, starting
    from 1 - 2 f(m).  The step for coordinate i takes the lanes a without i
    and b = the lanes with i moved down onto them, and writes a + b back
    without i and a - b with i, each plus the bias.  A partial transform
    over k coordinates is a signed sum of 2**k values +-1, so every lane
    holds at most 2**n in size, below 2**(w-1) with w = 16 to n = 14 and
    w = 32 from 15: the integer arithmetic is lane-wise.
    """
    w = 16 if n <= 14 else 32
    lw = w.bit_length() - 1
    bias = int.from_bytes(_biased_lanes(n, w), "little")
    ones = bytearray(w << n >> 3)
    ones[:: w // 8] = _table_bytes(n, table)
    # 2**(w-1) + 1 - 2 f(m) in lane m
    v = bias + (bias >> w - 1) - (int.from_bytes(ones, "little") << 1)
    for i in range(n):
        lo = half_mask(n + lw, i + lw)  # the lanes of the masks without i
        a, b, low_bias = v & lo, v >> (w << i) & lo, bias & lo
        v = a + b - low_bias + (a - b + low_bias << (w << i))
    return _signed_lanes(n, v ^ bias, w)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

# the 6-variable cubic separating block sensitivity from degree; the ten cubic
# monomials carry coefficient +1, every pair -1, every singleton +1
_KUSHILEVITZ_CUBICS = (
    (1, 3, 4), (1, 2, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5),
    (1, 2, 6), (1, 3, 6), (2, 4, 6), (3, 5, 6), (4, 5, 6),
)


def _kushilevitz_value(x: Sequence[int]) -> int:
    total = sum(x)
    for i, j in itertools.combinations(range(6), 2):
        total -= x[i] * x[j]
    for a, b, c in _KUSHILEVITZ_CUBICS:
        total += x[a - 1] * x[b - 1] * x[c - 1]
    if total not in (0, 1):
        raise ValueError(
            f"KUSHILEVITZ polynomial evaluated to {total} at {x}; not Boolean"
        )
    return total


def _addr(k: int) -> Callable[[tuple[int, ...]], int]:
    # the first k inputs address one of the 2**k data inputs after them
    return lambda x: x[k + sum(b << i for i, b in enumerate(x[:k]))]


def _maf(k: int) -> Callable[[tuple[int, ...]], int]:
    # majority of the k selectors, or some half-size selector set fully on
    # together with its own target input (one per set, in combinations order)
    targets = list(enumerate(itertools.combinations(range(k), k // 2), start=k))
    return lambda x: sum(x[:k]) > k // 2 or any(
        x[t] and all(x[i] for i in sel) for t, sel in targets
    )


class _Family(NamedTuple):
    least: int  # smallest k
    odd: bool  # whether k must be odd
    arity: Callable[[int], int]
    table: Callable[[int, int], int]  # (n, k) -> the table of f on n inputs


def _ones(n: int) -> int:
    return (1 << (1 << n)) - 1


# CONST0/1, DICT, AND, OR and PARITY are written down whole, PARITY a
# coordinate at a time; the others call their rule once per point
_FAMILIES = {
    "CONST0": _Family(0, False, lambda k: k, lambda n, k: 0),
    "CONST1": _Family(0, False, lambda k: k, lambda n, k: _ones(n)),
    "DICT": _Family(1, False, lambda k: k, lambda n, k: _ones(n) ^ half_mask(n, 0)),
    "AND": _Family(1, False, lambda k: k, lambda n, k: 1 << ((1 << n) - 1)),
    "OR": _Family(1, False, lambda k: k, lambda n, k: _ones(n) - 1),
    "PARITY": _Family(1, False, lambda k: k, lambda n, k: odd_points(n)),
    "MAJ": _Family(1, True, lambda k: k, lambda n, k: _tabulate(n, lambda x: sum(x) > k // 2)),
    "ADDR": _Family(1, False, lambda k: k + (1 << k), lambda n, k: _tabulate(n, _addr(k))),
    "MAF": _Family(1, True, lambda k: k + comb(k, k // 2), lambda n, k: _tabulate(n, _maf(k))),
}

FAMILY_NAMES = (*_FAMILIES, "KUSHILEVITZ")


def family(name: str, k: int | None = None) -> BooleanFunction:
    """Construct a named family member; ``k`` is the single size parameter."""
    name = name.upper()
    if name == "KUSHILEVITZ":
        if k is not None:
            raise ValueError("KUSHILEVITZ takes no parameter")
        return BooleanFunction.from_callable(6, _kushilevitz_value)
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    if k is None:
        raise ValueError(f"family {name} requires a size parameter")
    least, odd, arity, table = _FAMILIES[name]
    if k < least or (odd and k % 2 == 0):
        parity = "odd " if odd else ""
        raise ValueError(f"family {name} requires {parity}k >= {least}, got {k}")
    # every arity is at least k, so a huge k is refused before arity(k)
    # builds its 2^k or binomial
    check_arity(k, what=f"family {name}")
    n = arity(k)
    check_arity(n, what=f"family {name}")
    return BooleanFunction(n, table(n, k))
