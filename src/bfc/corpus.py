"""Corpora of Boolean functions for exhaustive and randomised sweeps."""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Iterator

from .bf import MAX_ARITY, BooleanFunction, _permutation_images, check_arity, family

# number of monotone functions per arity, used as a generation cross-check
DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}

MONOTONE_ENUM_MAX_ARITY = 5
# 2^16 tables at n = 4; the 2^32 at n = 5 would never finish
ALL_ENUM_MAX_ARITY = 4
# the least points a function counts: below 6 inputs its fixed cost outweighs 2**n
POINTS_FLOOR = 64


@lru_cache(maxsize=None)
def _monotone_tables(n: int) -> tuple[int, ...]:
    """All monotone truth tables on n inputs, as sorted packed integers.

    A function is monotone iff both halves along the top coordinate are
    monotone and the low half is pointwise below the high half.  The
    tables are built high half first, each half in increasing order, so
    they come out sorted with no sort: the high half is the more
    significant, and ``Corpus.representatives`` relies on that order.
    """
    if n == 0:
        return (0, 1)
    prev, half = _monotone_tables(n - 1), 1 << (n - 1)
    out = [lo | hi << half for hi in prev for lo in prev if lo & ~hi == 0]
    if len(out) != DEDEKIND[n]:
        raise AssertionError(
            f"monotone count mismatch at n={n}: {len(out)} != {DEDEKIND[n]}"
        )
    return tuple(out)


def _parse_named(item: str) -> tuple[str, BooleanFunction]:
    if ":" in item:
        name, k = item.split(":", 1)
        f = family(name, int(k))
        return f"{name.upper()}:{k}", f
    return item.upper(), family(item)


class Corpus:
    """A deterministic iterable of labelled functions.

    Kinds: ``all`` (every function of arity n), ``monotone`` (exactly the
    monotone ones), ``random`` (reproducible from the seed), ``named``.
    Iteration yields every function; ``representatives`` yields one per
    orbit under coordinate permutations, weighted by the orbit's size.
    """

    __slots__ = ("kind", "n", "count", "seed", "names")

    def __init__(
        self, kind: str, n: int = 0, count: int = 0, seed: int = 0,
        names: tuple[str, ...] = (),
    ):
        for name, value in zip(self.__slots__, (kind, n, count, seed, names)):
            object.__setattr__(self, name, value)
        if kind not in ("all", "monotone", "random", "named"):
            raise ValueError(f"unknown corpus kind {kind!r}")
        cap = {"all": ALL_ENUM_MAX_ARITY, "monotone": MONOTONE_ENUM_MAX_ARITY}
        check_arity(n, cap.get(kind, MAX_ARITY), f"{kind} corpus")
        if count < 0:
            raise ValueError(f"corpus {self.describe()} needs a count >= 0")

    def __setattr__(self, *_):
        raise AttributeError("Corpus is immutable")

    def _key(self) -> tuple:
        return (self.kind, self.n, self.count, self.seed, self.names)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is Corpus else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        if self.kind == "all":
            return 1 << (1 << self.n)
        if self.kind == "monotone":
            return DEDEKIND[self.n]
        if self.kind == "random":
            return self.count
        return len(self.names)

    def points(self) -> int:
        """The sum of max(2**n, ``POINTS_FLOOR``) over the functions, counted
        without enumerating an ``all``, ``monotone`` or ``random`` corpus."""
        if self.kind == "named":
            return sum(max(1 << f.n, POINTS_FLOOR) for _, f in self)
        return len(self) * max(1 << self.n, POINTS_FLOOR)

    def _tables(self) -> Iterable[int]:
        """Every table of an ``all``, ``monotone`` or ``random`` corpus, in
        corpus order."""
        n = self.n
        if self.kind == "all":
            return range(1 << (1 << n))
        if self.kind == "monotone":
            return _monotone_tables(n)
        rng = random.Random(self.seed)
        return (rng.getrandbits(1 << n) for _ in range(self.count))

    def _label(self, i: int, t: int) -> str:
        """The label of table t, the i-th of the corpus."""
        if self.kind == "random":
            return f"rand{self.n}:{i}:0x{t:x}"
        return f"{'all' if self.kind == 'all' else 'mono'}{self.n}:0x{t:x}"

    def __iter__(self) -> Iterator[tuple[str, BooleanFunction]]:
        if self.kind == "named":
            for item in self.names:
                yield _parse_named(item)
        else:
            for i, t in enumerate(self._tables()):
                yield self._label(i, t), BooleanFunction(self.n, t)

    def representatives(self) -> Iterator[tuple[str, BooleanFunction, int]]:
        """(label, f, weight): one f per orbit under coordinate permutations,
        weight its orbit's size, for ``all`` and ``monotone``; every f with
        weight 1 for ``random`` and ``named``.

        Both enumerated kinds are closed under permutation and listed in
        increasing table order, so the first member met is the orbit's
        least.  Its orbit is the set of its n! images, computed at once by
        ``bf._permutation_images``; ``pending`` holds the members not yet
        met, and each is dropped when the corpus reaches it.  Only the
        tables yielded are labelled.
        """
        if self.kind not in ("all", "monotone"):
            for label, f in self:
                yield label, f, 1
            return
        pending: set[int] = set()
        for i, t in enumerate(self._tables()):
            if t not in pending:
                orbit = set(_permutation_images(self.n, t))
                pending |= orbit
                yield self._label(i, t), BooleanFunction(self.n, t), len(orbit)
            pending.remove(t)

    def describe(self) -> str:
        if self.kind == "all":
            return f"all:{self.n}"
        if self.kind == "monotone":
            return f"monotone:{self.n}"
        if self.kind == "random":
            return f"random:{self.n}:{self.count}:{self.seed}"
        return "named:" + ",".join(self.names)


def _spec_int(spec: str, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"corpus {spec} needs an integer {what}, got {text!r}") from None


def parse_corpus(spec: str) -> Corpus:
    """Parse ``all:N``, ``monotone:N``, ``random:N:COUNT:SEED``, ``named:L``."""
    kind, _, rest = spec.partition(":")
    kind = kind.lower()
    if kind in ("all", "monotone"):
        return Corpus(kind=kind, n=_spec_int(spec, "arity", rest))
    if kind == "random":
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError("random corpus needs N:COUNT:SEED")
        n, count, seed = (
            _spec_int(spec, what, text) for what, text in zip(("arity", "count", "seed"), parts)
        )
        return Corpus(kind="random", n=n, count=count, seed=seed)
    if kind == "named":
        names = tuple(s.strip() for s in rest.split(",") if s.strip())
        if not names:
            raise ValueError("named corpus needs at least one family")
        for item in names:
            name, sized, k = item.partition(":")
            if sized:
                _spec_int(spec, f"size for {name.upper()}", k)
        return Corpus(kind="named", names=names)
    raise ValueError(f"unknown corpus spec {spec!r}")
