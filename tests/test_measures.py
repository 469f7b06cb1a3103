import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfc import measures
from bfc.bf import (
    ArityError,
    BooleanFunction,
    diff_mask,
    family,
    flip_table,
    half_mask,
    mobius_vector,
    restrict_bit,
)
from bfc.corpus import parse_corpus
from bfc.lp import adeg_lp, simplex_feasible
from bfc.measures import (
    BlockSensitivityReport,
    CertificateReport,
    TableMeasures,
    approx_degree,
    block_sensitivity,
    certificate_complexity,
    degree,
    dt_depth,
    influence,
    measure_report,
    sensitivity,
    table_measures,
    _minimal_sensitive_blocks,
)
from bfc.verify import check_influence_restriction_average, run_theorem_suite


def test_degree_examples():
    assert degree(family("CONST1", 3)) == 0
    assert degree(family("PARITY", 5)) == 5
    assert degree(family("KUSHILEVITZ")) == 3


def test_sensitivity_examples():
    assert sensitivity(family("DICT", 3)).s == 1
    rep = sensitivity(family("OR", 4))
    assert rep.s == 4 and rep.s0 == 4 and rep.s1 == 1
    assert rep.per_point[0] == 4  # attained at all-zeros
    assert sensitivity(family("MAJ", 3)).s == 2


def test_block_sensitivity_examples():
    assert block_sensitivity(family("OR", 5)).bs == 5
    assert block_sensitivity(family("MAJ", 3)).bs == 2
    rep = block_sensitivity(family("KUSHILEVITZ"))
    assert rep.bs == 6
    # witness blocks really flip the value, pairwise disjointly
    f = family("KUSHILEVITZ")
    base = f.evaluate(rep.witness_input)
    seen = set()
    for blk in rep.witness_blocks:
        assert not (blk & seen)
        seen |= blk
        flipped = tuple(
            b ^ 1 if i + 1 in blk else b for i, b in enumerate(rep.witness_input)
        )
        assert f.evaluate(flipped) != base


def test_certificate_examples():
    rep = certificate_complexity(family("AND", 4))
    assert rep.C1 == 4 and rep.C0 == 1 and rep.Cmin == 1
    assert certificate_complexity(family("DICT", 1)).C == 1
    assert certificate_complexity(family("MAJ", 3)).C == 2


def _reference_point_certificates(n, table):
    """C_x by definition: the fewest coordinates of x that pin f."""
    cx = [n] * (1 << n)
    for fixed in range(1 << n):
        values = {}
        for y in range(1 << n):
            values.setdefault(y & fixed, set()).add((table >> y) & 1)
        for x in range(1 << n):
            if len(values[x & fixed]) == 1:
                cx[x] = min(cx[x], bin(fixed).count("1"))
    return tuple(cx)


def _reference_minimal_blocks(n, table, x):
    """Blocks B with f(x^B) != f(x) and no proper sub-block sensitive, ascending."""
    fx = (table >> x) & 1

    def sensitive(b):
        return ((table >> (x ^ b)) & 1) != fx

    def proper_submasks(b):
        sub = (b - 1) & b
        while sub:
            yield sub
            sub = (sub - 1) & b

    return [
        b for b in range(1, 1 << n)
        if sensitive(b) and not any(sensitive(s) for s in proper_submasks(b))
    ]


_small_tables = st.integers(0, 5).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: (n, t))
)


@given(_small_tables)
@settings(max_examples=150, deadline=None)
def test_point_certificates_match_definition(args):
    n, t = args
    rep = certificate_complexity(BooleanFunction(n, t))
    assert rep.per_point == _reference_point_certificates(n, t)


@given(_small_tables)
@settings(max_examples=150, deadline=None)
def test_minimal_sensitive_blocks_match_definition(args):
    n, t = args
    for x in range(1 << n):
        assert _minimal_sensitive_blocks(n, t, x) == _reference_minimal_blocks(n, t, x)


def test_subcube_searches_match_definitions_seeded():
    rng = random.Random(20261018)
    for n in (6, 7, 8):
        t = rng.getrandbits(1 << n)
        f = BooleanFunction(n, t)
        assert certificate_complexity(f).per_point == _reference_point_certificates(n, t)
        for x in rng.sample(range(1 << n), 16):
            assert _minimal_sensitive_blocks(n, t, x) == _reference_minimal_blocks(n, t, x)


def _mono_subcubes(n, table):
    """``mono[S]`` for every mask S, the dense table the certificate search
    once built: bit x is set iff f is constant on ``{x ^ T : T <= S}``.

    With ``i`` the lowest coordinate of S, the subcube at x spanned by S is
    the one spanned by ``S - i`` at x and at ``x ^ i``, and f must agree
    across coordinate i at x.
    """
    agree = [~diff_mask(table, n, i) for i in range(n)]
    mono = [(1 << (1 << n)) - 1]
    for smask in range(1, 1 << n):
        i = (smask & -smask).bit_length() - 1
        prev = mono[smask ^ (1 << i)]
        mono.append(prev & flip_table(prev, n, i) & agree[i])
    return mono


def _reference_blocks_all(n, table):
    """Every point's minimal sensitive blocks, ascending, read off the table
    of monochromatic subcubes as the unpruned search built them."""
    mono = _mono_subcubes(n, table)
    blocks = [[] for _ in range(1 << n)]
    for bmask in range(1, 1 << n):
        hit = ~mono[bmask]
        for i in range(n):
            if (bmask >> i) & 1:
                hit &= mono[bmask ^ (1 << i)]
        for x in range(1 << n):
            if (hit >> x) & 1:
                blocks[x].append(bmask)
    return blocks


def _reference_packing(blocks, avail):
    """Maximum disjoint sub-family by memoised search, first best kept."""
    memo = {}

    def go(av):
        if av not in memo:
            best, chosen = 0, ()
            for b in blocks:
                if b & ~av == 0:
                    cnt, picked = go(av & ~b)
                    if cnt + 1 > best:
                        best, chosen = cnt + 1, (b,) + picked
            memo[av] = (best, chosen)
        return memo[av]

    return go(avail)


def _reference_block_sensitivity(n, table):
    """The search over every point in index order, with no certificate bound."""
    full = (1 << n) - 1
    best, best_x, best_blocks = 0, 0, ()
    for x, blocks in enumerate(_reference_blocks_all(n, table)):
        if len(blocks) <= best:
            continue
        cnt, chosen = _reference_packing(blocks, full)
        if cnt > best:
            best, best_x, best_blocks = cnt, x, chosen
    return BlockSensitivityReport(
        best,
        tuple((best_x >> i) & 1 for i in range(n)),
        tuple(
            frozenset(i + 1 for i in range(n) if (b >> i) & 1) for b in best_blocks
        ),
    )


def _bs_tables():
    tables = [(n, t) for n in range(4) for t in range(1 << (1 << n))]
    tables += [(f.n, f.table) for _, f in parse_corpus("monotone:4")]
    rng = random.Random(20261019)
    tables += [(n, rng.getrandbits(1 << n)) for n in (6, 6, 7, 7, 8, 8, 9, 10)]
    return tables


def test_block_sensitivity_matches_unpruned_search():
    for n, t in _bs_tables():
        assert table_measures(n, t).bs == _reference_block_sensitivity(n, t), (n, t)


def test_packing_matches_the_plain_search_on_seeded_points():
    # count and witness of the coordinate-branching packing, against the
    # search that tries every fitting block at every free mask
    rng = random.Random(20261023)
    for n in range(6, 11):
        full = (1 << n) - 1
        t = rng.getrandbits(1 << n)
        for x in rng.sample(range(1 << n), 12):
            blocks = _minimal_sensitive_blocks(n, t, x)
            packing = measures._Packing(blocks)
            got = packing.count(full), packing.witness(full)
            assert got == _reference_packing(blocks, full), (n, hex(t), x)


def _dense_cert_lanes(n, table, avoid=None):
    """cert_lanes as read off the dense table: n at every point, less one
    for each dimension k >= 1 of a monochromatic subcube holding the point;
    with ``avoid`` = j, n - 1 less one for each k of such a subcube whose
    free set avoids j, block j of ``branch_cert_lanes``."""
    by_dim = [0] * (n + 1)
    for smask, m in enumerate(_mono_subcubes(n, table)):
        if avoid is None or not smask >> avoid & 1:
            by_dim[smask.bit_count()] |= m
    cx = (n if avoid is None else n - 1) * measures._lanes((1 << (1 << n)) - 1)
    up = 0
    for k in range(n, 0, -1):
        up |= by_dim[k]
        cx -= measures._lanes(up)
    return cx


def test_sparse_certificate_levels_match_the_dense_table():
    rng = random.Random(20261024)
    tables = [(n, rng.getrandbits(1 << n)) for n in range(1, 13)]
    tables += [(n, t) for n in (0, 5, 14) for t in (0, (1 << (1 << n)) - 1)]
    tables += [(14, family(name, 14).table) for name in ("AND", "OR", "PARITY")]
    for n, t in tables:
        rec = TableMeasures(n, t)
        assert rec.cert_lanes == _dense_cert_lanes(n, t), (n, hex(t))
        branches = sum(_dense_cert_lanes(n, t, j) << (8 << n) * j for j in range(n))
        assert rec.branch_cert_lanes == branches, (n, hex(t))


def _reference_cert_walk(n, table):
    """(C_x, C^j_x) packed from one breadth-first walk that ORs each level's
    cut masks into avoid[j] as it goes, the oracle of its split into
    ``_cert_walk`` and ``_branch_lanes``."""
    size = 1 << n
    full = (1 << size) - 1
    agree = [full ^ diff_mask(table, n, i) for i in range(n)]
    cx = n * measures._lanes(full)
    level = [(1 << i, a) for i, a in enumerate(agree) if a]
    edged = 0
    for a in agree:
        edged |= a
    avoid = [full ^ edged] * n
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
        cx -= measures._lanes(up)
        by_top = [0] * (n + 1)
        for sset, m in level:
            m &= ~higher
            if m:
                top = sset.bit_length()
                by_top[top] |= m
                rest = sset ^ (1 << top) - 1
                while rest:
                    low = rest & -rest
                    avoid[low.bit_length() - 1] |= m
                    rest ^= low
        run = 0
        for j in range(n):
            avoid[j] |= run
            run |= by_top[j + 1]
        level = wider
    stack = 0
    for a in reversed(avoid):
        stack = stack << size | a
    return cx, int.from_bytes(cx.to_bytes(size, "little") * n, "little") - measures._lanes(stack)


def test_deferred_restriction_pass_matches_the_one_pass_walk():
    rng = random.Random(20261020)
    tables = [(n, rng.getrandbits(1 << n)) for n in range(1, 13)]
    tables += [(f.n, f.table) for _, f in parse_corpus("all:3")]
    tables += [(f.n, f.table) for _, f, _ in parse_corpus("monotone:5").representatives()]
    tables += [(14, family("AND", 14).table), (14, family("OR", 14).table)]
    tables += [(13, family("MAJ", 13).table)]
    for n, t in tables:
        rec = TableMeasures(n, t)
        got = rec.cert_lanes, rec.branch_cert_lanes
        assert got == _reference_cert_walk(n, t), (n, hex(t))


def _branch_tables():
    """all:3, monotone:4 and seeded tables of 6..10 inputs, some sparse."""
    rng = random.Random(31)
    tables = [(f.n, f.table) for spec in ("all:3", "monotone:4") for _, f in parse_corpus(spec)]
    tables += [(n, rng.getrandbits(1 << n)) for n in range(6, 11) for _ in range(2)]
    tables += [(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n)) for n in range(6, 11)]
    return tables


def test_branch_lanes_are_the_restrictions_lanes():
    # byte x of block j is s_x and C_x of f|x_j=x_j at the point that
    # drops x_j from x, at every (j, b)
    for n, t in _branch_tables():
        rec = TableMeasures(n, t)
        size = 1 << n
        certs = rec.branch_cert_lanes.to_bytes(n << n, "little")
        for j in range(n):
            sens = rec.branch_sens_lanes(j).to_bytes(size, "little")
            for b in (0, 1):
                sub = table_measures(n - 1, restrict_bit(t, n, j, b))
                at = [x for x in range(size) if x >> j & 1 == b]
                got_c = tuple(certs[j * size + x] for x in at)
                got_s = tuple(sens[x] for x in at)
                assert got_c == sub.point_certs, (n, hex(t), j, b)
                assert got_s == sub.point_sens, (n, hex(t), j, b)


def test_branch_certificates_lie_within_one_of_f():
    # K^j_x is K_x or K_x - 1: dropping j from the free set of a largest
    # monochromatic subcube at x leaves one a dimension smaller; both ends
    # are met
    ends = Counter()
    for n, t in _branch_tables():
        rec = TableMeasures(n, t)
        certs = rec.branch_cert_lanes.to_bytes(n << n, "little")
        for j in range(n):
            for c, cj in zip(rec.point_certs, certs[j << n:(j + 1) << n]):
                assert c - 1 <= cj <= c, (n, hex(t), j)
                ends[c - cj] += 1
    assert ends[0] and ends[1]


def test_certificate_bound_skips_points_and_visits_loose_ones(monkeypatch):
    # the pruned search must both skip points (C_x <= best) and still pack
    # at points whose certificate overstates their block sensitivity
    visited = []
    kernel = measures._minimal_sensitive_blocks

    def spy(n, table, x):
        visited.append((n, table, x))
        return kernel(n, table, x)

    monkeypatch.setattr(measures, "_minimal_sensitive_blocks", spy)
    rng = random.Random(20261020)
    skipped = loose = 0
    for n in (6, 7, 8):
        t = rng.getrandbits(1 << n)
        TableMeasures(n, t).bs  # a fresh record, so the search runs
        seen = [x for m, u, x in visited if (m, u) == (n, t)]
        skipped += (1 << n) - len(seen)
        cx = table_measures(n, t).point_certs
        full = (1 << n) - 1
        for x in seen:
            bs_x = _reference_packing(_reference_minimal_blocks(n, t, x), full)[0]
            assert bs_x <= cx[x]
            loose += bs_x < cx[x]
    assert skipped > 0 and loose > 0


# flip_table calls inside the certificate walks (_cert_walk), and packing
# memo entries, over the suite on random:8:12:1 from an empty memo.  The
# dense subcube table, one flip per nonempty mask, made 27,446 flips there,
# one sparse walk per record 12,594, and stacked walks of f and of its
# restrictions 2,106; one walk of f that also gives every restriction's C_x
# makes 1,184.  The packing search that tried every fitting block at every
# free mask kept 4,792 entries; packing every point with C_x > best, before
# bs started from its floor s, kept 529.
SUITE_CERT_FLIPS, SUITE_PACKING_ENTRIES = 1184, 147


def test_certificate_and_packing_work_on_the_suite_is_pinned(monkeypatch):
    flips, inside, packings = [], [], []
    flip, walk = measures.flip_table, measures._cert_walk

    def counted_flip(*args):
        if inside:
            flips.append(1)
        return flip(*args)

    def counted_walk(n, table):
        inside.append(1)
        try:
            return walk(n, table)
        finally:
            inside.pop()

    class Recorded(measures._Packing):
        def __init__(self, blocks):
            super().__init__(blocks)
            packings.append(self)

    monkeypatch.setattr(measures, "flip_table", counted_flip)
    monkeypatch.setattr(measures, "_cert_walk", counted_walk)
    monkeypatch.setattr(measures, "_Packing", Recorded)
    table_measures.cache_clear()
    run_theorem_suite(parse_corpus("random:8:12:1"))
    entries = sum(len(p.memo) for p in packings)
    assert (len(flips), entries) == (SUITE_CERT_FLIPS, SUITE_PACKING_ENTRIES)


# restriction passes (_branch_lanes) over the suite on monotone:5, one per
# record that reads branch_cert_lanes: the rrcm row where a drop pair is
# tested, and mono_dt_intersect
SUITE_BRANCH_PASSES = 208


def test_restriction_pass_runs_only_where_its_lanes_are_read(monkeypatch):
    passes, readers = [], set()
    branch, read = measures._branch_lanes, TableMeasures.branch_cert_lanes.func

    def spy_branch(n, cx, cut):
        passes.append(n)
        return branch(n, cx, cut)

    def spy_read(rec):
        readers.add((rec.n, rec.table))
        return read(rec)

    monkeypatch.setattr(measures, "_branch_lanes", spy_branch)
    monkeypatch.setattr(TableMeasures.branch_cert_lanes, "func", spy_read)
    for spec in ("random:8:12:1", "random:14:2:1"):
        table_measures.cache_clear()
        run_theorem_suite(parse_corpus(spec))
        assert passes == [] and readers == set(), spec
    table_measures.cache_clear()
    run_theorem_suite(parse_corpus("monotone:5"))
    assert len(passes) == len(readers) == SUITE_BRANCH_PASSES
    rng = random.Random(7)
    for n in (3, 8, 11):
        t = rng.getrandbits(1 << n)
        for field in ("cert_lanes", "certs", "bs", "cert_i"):
            getattr(TableMeasures(n, t), field)
    assert len(passes) == SUITE_BRANCH_PASSES


def test_stacks_hold_no_more_points_than_the_capped_walk(monkeypatch):
    # the rrcm kernel builds the restrictions' s_x one block of 2^n points
    # (as many as f) at a time, so no integer it builds outgrows f's own
    # certificate lanes, and it runs no walk of its own
    from bfc.coordinate import ALL_BASE_KINDS, _Axioms, _rrcm_violation

    stacks, walks = [], []
    branch_sens, walk = TableMeasures.branch_sens_lanes, measures._cert_walk

    def spy_stack(rec, j):
        stacks.append(rec.n)
        return branch_sens(rec, j)

    def spy_walk(n, table):
        walks.append(n)
        return walk(n, table)

    monkeypatch.setattr(TableMeasures, "branch_sens_lanes", spy_stack)
    monkeypatch.setattr(measures, "_cert_walk", spy_walk)
    rng = random.Random(13)
    # x1 AND a random table, whose other coordinates drop out at x1 = 0
    rec = TableMeasures(13, rng.getrandbits(1 << 13) & ~half_mask(13, 0))
    rec.cert_i  # f's own walk, before the kernel
    assert walks == [13] and any(_Axioms(rec, ()).drop)
    assert _rrcm_violation(rec, ALL_BASE_KINDS, range(13)) is None
    assert stacks and set(stacks) == {13}
    assert walks == [13]
    # past the certificate cap, deg and sens still run, a block at a time;
    # a lowered sens_i makes every block of its coordinate tested
    for n in (15, 16):
        stacks.clear()
        rec = TableMeasures(n, rng.getrandbits(1 << n))
        with pytest.raises(ArityError, match=f"certificate search supports arity <= 14, got {n}"):
            _rrcm_violation(rec, ALL_BASE_KINDS, range(n))
        vars(rec)["sens_i"] = (0,) + rec.sens_i[1:]
        assert _rrcm_violation(rec, ALL_BASE_KINDS, range(n))[1:] == (0, 1, 0, "axiom1")
        assert stacks and set(stacks) == {n}
    with pytest.raises(ArityError, match="certificate search supports arity <= 14, got 15"):
        measures._cert_walk(15, 0)
    with pytest.raises(ArityError, match="certificate search"):
        TableMeasures(15, 0).branch_cert_lanes


def test_certificates_at_the_arity_cap():
    # MAJ_13: any 7 agreeing votes pin the value, and 6 never do
    rep = certificate_complexity(family("MAJ", 13))
    assert (rep.C, rep.C0, rep.C1, rep.Cmin) == (7, 7, 7, 7)
    assert set(rep.per_point) == {7}


# ---------------------------------------------------------------------------
# the packed per-point fields (one byte per point) against per-point loops
# ---------------------------------------------------------------------------

PACKED_FIELDS = ("point_sens", "sens", "point_certs", "certs", "sens_i", "cert_i", "deg_i")


def _per_point_reports(n, table, sx, cx):
    """The sensitivity and certificate fields from the tuples s_x and C_x."""
    s0 = [sx[x] for x in range(1 << n) if not (table >> x) & 1]
    s1 = [sx[x] for x in range(1 << n) if (table >> x) & 1]
    c0 = [cx[x] for x in range(1 << n) if not (table >> x) & 1]
    c1 = [cx[x] for x in range(1 << n) if (table >> x) & 1]
    return {
        "point_sens": sx,
        "sens": (max(sx), max(s0, default=0), max(s1, default=0)),
        "point_certs": cx,
        "certs": CertificateReport(
            max(cx), max(c0, default=0), max(c1, default=0),
            min(cx), min(c0, default=0), min(c1, default=0), cx,
        ),
    }


def _reference_deg_i(n, table):
    """deg_i by definition: the degree of f(x) - f(x^i), from Moebius sums
    over the submasks of each mask."""
    out = []
    for i in range(n):
        g = [((table >> x) & 1) - ((table >> (x ^ (1 << i))) & 1) for x in range(1 << n)]
        top = 0
        for mask in range(1 << n):
            c, sub = 0, mask
            while True:
                c += (-1) ** (mask ^ sub).bit_count() * g[sub]
                if not sub:
                    break
                sub = (sub - 1) & mask
            if c:
                top = max(top, mask.bit_count())
        out.append(top)
    return tuple(out)


def _brute_fields(n, table):
    """Every packed field by its per-point definition."""
    f = [(table >> x) & 1 for x in range(1 << n)]
    sx = tuple(sum(f[x] != f[x ^ (1 << i)] for i in range(n)) for x in range(1 << n))
    cx = _reference_point_certificates(n, table)

    def edge_max(point):
        return tuple(
            max(
                (point[x] + point[x ^ (1 << i)] for x in range(1 << n) if f[x] != f[x ^ (1 << i)]),
                default=0,
            )
            for i in range(n)
        )

    return _per_point_reports(n, table, sx, cx) | {
        "sens_i": edge_max(sx),
        "cert_i": edge_max(cx),
        "deg_i": _reference_deg_i(n, table),
    }


def _tuple_kernels(n, table):
    """The per-point loops over tuples that the packed fields replaced."""
    diffs = [diff_mask(table, n, i) for i in range(n)]
    sx = [0] * (1 << n)
    for d in diffs:
        while d:
            low = d & -d
            sx[low.bit_length() - 1] += 1
            d ^= low
    by_dim = [0] * (n + 1)
    for smask, m in enumerate(_mono_subcubes(n, table)):
        by_dim[smask.bit_count()] |= m
    cx = [0] * (1 << n)
    seen = 0
    for k in range(n, -1, -1):
        new = by_dim[k] & ~seen
        seen |= new
        while new:
            low = new & -new
            cx[low.bit_length() - 1] = n - k
            new ^= low
    sx, cx = tuple(sx), tuple(cx)

    def edge_max(point):
        out = []
        for i, d in enumerate(diffs):
            bit = 1 << i
            d &= half_mask(n, i)
            best = 0
            while d:
                low = d & -d
                x = low.bit_length() - 1
                best = max(best, point[x] + point[x ^ bit])
                d ^= low
            out.append(best)
        return tuple(out)

    deg_i = [0] * n
    for mask, c in enumerate(mobius_vector(n, table)):
        if c:
            for i in range(n):
                if (mask >> i) & 1:
                    deg_i[i] = max(deg_i[i], mask.bit_count())
    return _per_point_reports(n, table, sx, cx) | {
        "sens_i": edge_max(sx),
        "cert_i": edge_max(cx),
        "deg_i": tuple(deg_i),
    }


def _fields(n, table):
    rec = TableMeasures(n, table)  # a fresh record, so every field runs
    return {name: getattr(rec, name) for name in PACKED_FIELDS}


@given(st.integers(0, 6).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: (n, t))
))
@settings(max_examples=120, deadline=None)
def test_packed_fields_match_per_point_definitions(args):
    n, t = args
    assert _fields(n, t) == _brute_fields(n, t)


def test_packed_fields_match_tuple_kernels_seeded():
    rng = random.Random(20261019)
    for n in range(8, 15):
        t = rng.getrandbits(1 << n)
        assert _fields(n, t) == _tuple_kernels(n, t), n


def _brute_point_cert(n, table, x):
    """C_x by definition: n minus the most coordinates that can move
    together from x without changing f."""
    fx = (table >> x) & 1
    best = 0
    for free in range(1 << n):
        if free.bit_count() <= best:
            continue
        sub = free
        while sub and (table >> (x ^ sub)) & 1 == fx:
            sub = (sub - 1) & free
        if not sub:
            best = free.bit_count()
    return n - best


def test_packed_bytes_hold_the_largest_values():
    # s_x = C_x = n at every point of PARITY and its negation, so every
    # edge sum is 2n, the largest byte a packed field holds at n inputs
    for n in range(1, 15):
        parity = family("PARITY", n).table
        for t in (parity, parity ^ ((1 << (1 << n)) - 1)):
            rec = TableMeasures(n, t)
            assert rec.sens_i == rec.cert_i == (2 * n,) * n, n
            assert rec.sens == (n, n, n) and rec.certs[:6] == (n,) * 6, n
    # the largest values the arity caps allow: s_x = 20 at every point of
    # PARITY 20, so sens_i = 40, and C_x = 14 at every point of PARITY 14
    rec = TableMeasures(20, family("PARITY", 20).table)
    assert rec.sens == (20, 20, 20)
    assert rec.sens_i == (40,) * 20
    rec = TableMeasures(14, family("PARITY", 14).table)
    assert rec.certs[:6] == (14,) * 6 and rec.cert_i == (28,) * 14
    # a random 14-input table: C_x by brute force at sampled points and at
    # both ends of an edge where each cert_i is attained
    n = 14
    t = random.Random(20261020).getrandbits(1 << n)
    rec = TableMeasures(n, t)
    cx = rec.point_certs
    points = set(random.Random(20261021).sample(range(1 << n), 8))
    for i, c in enumerate(rec.cert_i):
        x = next(
            x for x in range(1 << n)
            if (t >> x) & 1 != (t >> (x ^ (1 << i))) & 1 and cx[x] + cx[x ^ (1 << i)] == c
        )
        points |= {x, x ^ (1 << i)}
    for x in sorted(points):
        assert cx[x] == _brute_point_cert(n, t, x), x


@st.composite
def _lane_bytes(draw):
    """n <= 10 and 2**n bytes in 0..2n: a seeded fill below a drawn ceiling,
    with a few drawn values planted at drawn points."""
    n = draw(st.integers(0, 10))
    ceiling = draw(st.integers(0, 2 * n))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    lanes = bytearray(rng.randint(0, ceiling) for _ in range(1 << n))
    for _ in range(draw(st.integers(0, 4))):
        lanes[draw(st.integers(0, (1 << n) - 1))] = draw(st.integers(0, 2 * n))
    return n, bytes(lanes), draw(st.integers(0, (1 << (1 << n)) - 1))


def _check_lane_search(n, lanes, hidden):
    """_lane_max and _lane_min against max and min over the bytes, and
    _lane_min again with the points of ``hidden`` set to 0xff."""
    v = int.from_bytes(lanes, "little")
    assert measures._lane_max(v, n) == max(lanes)
    assert measures._lane_min(v, n) == min(lanes)
    masked = v | measures._lanes(hidden) * 255
    assert measures._lane_min(masked, n) == min(masked.to_bytes(1 << n, "little"))


@given(_lane_bytes())
@settings(max_examples=200, deadline=None)
def test_lane_search_matches_max_and_min_over_the_bytes(args):
    _check_lane_search(*args)


def test_lane_search_matches_max_and_min_seeded():
    rng = random.Random(20261023)
    for n in (12, 14):
        for ceiling in (0, 1, n, 2 * n - 1, 2 * n):
            lanes = bytearray(rng.randint(0, ceiling) for _ in range(1 << n))
            _check_lane_search(n, bytes(lanes), rng.getrandbits(1 << n))
            # one planted value above the fill, at a random point
            lanes[rng.randrange(1 << n)] = min(ceiling + 1, 2 * n)
            _check_lane_search(n, bytes(lanes), rng.getrandbits(1 << n))


def test_lane_search_at_the_ends_of_the_byte_range():
    for n in range(1, 15):
        size = 1 << n
        assert measures._lane_max(0, n) == measures._lane_min(0, n) == 0
        hide_all = measures._lanes((1 << size) - 1) * 255
        assert measures._lane_min(hide_all, n) == 0xFF
        for x in {0, size // 2, size - 1}:
            top = 2 * n << 8 * x  # one lane at 2n, every other byte 0
            assert measures._lane_max(top, n) == 2 * n, (n, x)
            assert measures._lane_min(top, n) == 0, (n, x)
            # the lane at 2n alone among masked points
            assert measures._lane_min(top | hide_all ^ 255 << 8 * x, n) == 2 * n, (n, x)


def test_record_fields_run_once_and_stay_on_the_record(monkeypatch):
    fields = [name for name, attr in vars(TableMeasures).items() if hasattr(attr, "func")]
    assert set(PACKED_FIELDS) <= set(fields)
    # per record: reading dt also fills dt on the records of the restrictions
    calls = Counter()
    for name in fields:
        kernel = getattr(TableMeasures, name).func

        def counted(rec, kernel=kernel, name=name):
            calls[id(rec), name] += 1
            return kernel(rec)

        monkeypatch.setattr(getattr(TableMeasures, name), "func", counted)
    recs = [TableMeasures(4, 0x6996), TableMeasures(5, 0xFEEDBEEF)]
    for rec in recs:
        for _ in range(2):
            for name in fields:
                getattr(rec, name)
        assert all(name in vars(rec) for name in fields)
        assert all(calls[id(rec), name] == 1 for name in fields)
    assert set(calls.values()) == {1}


def test_dt_depth_examples():
    assert dt_depth(family("CONST0", 3)) == 0
    assert dt_depth(family("DICT", 3)) == 1
    assert dt_depth(family("MAJ", 3)) == 3


# decision-tree depth oracles: the minimax definition, with no memo, no
# pruning and no degree rule, sharing no code with TableMeasures.dt

def _plain_dt(table, points, free):
    """Minimax depth of f on the subcube ``points``, querying coordinates in ``free``."""
    if len({(table >> x) & 1 for x in points}) == 1:
        return 0
    return 1 + min(
        max(_plain_dt(table, [x for x in points if (x >> i) & 1 == b], free - {i}) for b in (0, 1))
        for i in free
    )


def _subcube_dt(n, table):
    """The same recurrence evaluated once on each of the 3**n subcubes; past
    n = 5 the plain recursion is too slow, visiting up to 2**n * n! nodes.

    Base-3 digit i of a subcube's code is x_i, or 2 when coordinate i is
    free; fixing a free digit gives a smaller code, so one ascending pass
    sees every subcube after its children.
    """
    pow3 = [3 ** i for i in range(n)]
    value = [None] * 3 ** n  # f's value on a constant subcube, else None
    depth = [0] * 3 ** n
    for c in range(3 ** n):
        digits = [c // p % 3 for p in pow3]
        free = [i for i in range(n) if digits[i] == 2]
        if not free:
            x = sum(1 << i for i in range(n) if digits[i])
            value[c] = (table >> x) & 1
            continue
        p = pow3[free[0]]
        v = value[c - 2 * p]
        if v is not None and v == value[c - p]:
            value[c] = v
            continue
        depth[c] = 1 + min(max(depth[c - 2 * pow3[i]], depth[c - pow3[i]]) for i in free)
    return depth[-1]


def _balanced_table(n, rng):
    """A random nonconstant table with as many 1s on odd- as on even-weight
    points: its top Möbius coefficient is 0, so deg < n."""
    odd = [x for x in range(1 << n) if x.bit_count() & 1]
    even = [x for x in range(1 << n) if not x.bit_count() & 1]
    k = rng.randrange(1, 1 << (n - 1))
    return sum(1 << x for x in rng.sample(odd, k) + rng.sample(even, k))


def _counts_differ(n, table):
    odd = sum((table >> x) & 1 for x in range(1 << n) if x.bit_count() & 1)
    return 2 * odd != table.bit_count()


@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))
))
@settings(max_examples=150, deadline=None)
def test_dt_depth_equals_plain_minimax_up_to_five_inputs(nt):
    n, t = nt
    want = _plain_dt(t, range(1 << n), frozenset(range(n)))
    assert _subcube_dt(n, t) == want
    assert dt_depth(BooleanFunction(n, t)) == want


def test_dt_depth_equals_minimax_on_seeded_tables():
    rng = random.Random(20261019)
    for n in (6, 7, 8):
        tables = [rng.getrandbits(1 << n) for _ in range(4)]
        tables += [_balanced_table(n, rng) for _ in range(4)]
        assert [_counts_differ(n, t) for t in tables] == [True] * 4 + [False] * 4
        for t in tables:
            assert dt_depth(BooleanFunction(n, t)) == _subcube_dt(n, t), (n, hex(t))


@pytest.mark.parametrize(
    "name, k, depth",
    [("PARITY", k, k) for k in range(1, 9)]
    + [("AND", k, k) for k in range(1, 9)]
    + [("OR", k, k) for k in range(1, 9)]
    + [("MAJ", 3, 3), ("ADDR", 1, 2), ("ADDR", 2, 3)],
)
def test_dt_depth_of_named_families(name, k, depth):
    f = family(name, k)
    assert _subcube_dt(f.n, f.table) == depth
    assert dt_depth(f) == depth


def test_full_degree_tables_end_the_dt_search_at_once():
    # unequal counts of 1s on odd- and even-weight points: DT = n with no
    # restriction searched; equal counts still recurse
    n = 14
    rng = random.Random(20261019)
    unequal = rng.getrandbits(1 << n)
    assert _counts_differ(n, unequal)
    for t in (family("PARITY", n).table, unequal):
        table_measures.cache_clear()
        assert dt_depth(BooleanFunction(n, t)) == n
        assert table_measures.cache_info().misses == 1
    table_measures.cache_clear()
    dt_depth(BooleanFunction(n, _balanced_table(n, rng)))
    assert table_measures.cache_info().misses > 1


def test_arity_caps_fail_loudly():
    big = family("CONST0", 15)
    with pytest.raises(ArityError):
        block_sensitivity(big)
    with pytest.raises(ArityError):
        certificate_complexity(big)
    with pytest.raises(ArityError):
        dt_depth(big)
    with pytest.raises(ArityError):
        approx_degree(family("CONST0", 11))


def test_influence_examples():
    per, total = influence(family("DICT", 1))
    assert per == (Fraction(1),) and total == 1
    per, total = influence(family("PARITY", 4))
    assert set(per) == {Fraction(1)} and total == 4
    per, total = influence(family("MAJ", 3))
    assert set(per) == {Fraction(1, 2)} and total == Fraction(3, 2)


@given(st.integers(0, 4).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: (n, t))
))
@settings(max_examples=120)
def test_influence_counting_matches_spectrum(args):
    # the cross-check inside influence() is exact and always on
    n, t = args
    influence(BooleanFunction(n, t))


def test_influence_cross_check_catches_a_wrong_spectrum(monkeypatch):
    # the spectrum of x2 stands in for that of the dictator x1, so the
    # folded sums put coordinate 1's weight on coordinate 2
    x2 = BooleanFunction.from_callable(2, lambda x: x[1]).table
    spectrum = measures.fourier_vector
    monkeypatch.setattr(measures, "fourier_vector", lambda n, t: spectrum(n, x2))
    wrong = "influence mismatch on coordinate 1: count 4/4 vs spectrum 0/16"
    with pytest.raises(AssertionError, match=wrong):
        influence(family("DICT", 2))


def test_influence_restriction_averaging_seeded():
    rng = random.Random(20240809)
    for _ in range(100):
        n = rng.randint(2, 6)
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        i = rng.randint(1, n)
        others = [j for j in range(1, n + 1) if j != i]
        H = [j for j in others if rng.random() < 0.5]
        assert check_influence_restriction_average(f, i, H)


def test_approx_degree_examples():
    assert approx_degree(family("CONST0", 2)) == 0
    assert approx_degree(family("DICT", 2)) == 1
    # a constant approximation of a dictator is off by >= 1/2 somewhere:
    # adeg(AND_2) = 1 (e.g. -1/6 + x1/2 + x2/2 stays within 1/3 everywhere)
    assert approx_degree(family("AND", 2)) == 1
    assert approx_degree(family("OR", 2), Fraction(1, 3)) == 1


def test_adeg_lp_is_feasible_at_the_degree():
    # approx_degree returns deg f without solving this LP: f's own
    # multilinear polynomial meets it with error 0
    rng = random.Random(20261022)
    for n in range(5):
        for _ in range(3):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            assert simplex_feasible(adeg_lp(f, degree(f), Fraction(1, 3))).feasible, f.table


def test_approx_degree_eps_validation():
    with pytest.raises(ValueError):
        approx_degree(family("OR", 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        approx_degree(family("OR", 2), Fraction(0))


def test_measure_report_tsv_layout():
    rep = measure_report(family("MAJ", 3), with_adeg=True)
    lines = rep.to_tsv().splitlines()
    keys = [ln.split("\t")[0] for ln in lines]
    assert keys == [
        "deg", "s", "s0", "s1", "bs", "C", "C0", "C1",
        "Cmin", "Cmin0", "Cmin1", "DT", "I",
        "Inf1", "Inf2", "Inf3", "adeg", "adeg_eps",
    ]
    vals = dict(ln.split("\t") for ln in lines)
    assert vals["I"] == "3/2"
    assert vals["Inf2"] == "1/2"
    assert vals["adeg_eps"] == "1/3"


def test_chain_and_square_sensitivity_on_all_three_variable_functions():
    for t in range(1 << 8):
        f = BooleanFunction(3, t)
        s = sensitivity(f).s
        bs = block_sensitivity(f).bs
        C = certificate_complexity(f).C
        DT = dt_depth(f)
        d = degree(f)
        assert s <= bs <= C <= DT
        assert d <= DT
        assert d <= s * s


def _memoised_functions(tree):
    """(name, leading parameter names) of each function decorated with
    ``lru_cache`` or ``cache``, called or bare."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in fn.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                    yield fn.name, [a.arg for a in fn.args.args[:2]]


def test_one_memo_per_table():
    # every per-table measure is a field of the shared TableMeasures record,
    # decision-tree depth too, whose search recurses through those records
    src = Path(__file__).resolve().parents[1] / "src" / "bfc"
    keyed = sorted(
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name, params in _memoised_functions(ast.parse(path.read_text(encoding="utf-8")))
        if params == ["n", "table"]
    )
    assert keyed == ["measures.table_measures"]
