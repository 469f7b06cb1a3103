"""Reference computations and output checks, made apart from ``bfc``.

Nothing here imports ``bfc``: every reference value is recomputed from the
truth table or from the published figures with the standard library alone,
so a fault in a shared kernel cannot hide itself.  Each ``check_*`` function
returns a list of problems, empty when the output is right.

Truth tables are packed integers: bit ``x`` of ``table`` is ``f(x)`` and
coordinate ``i`` (0-based) is bit ``i`` of ``x``.
"""

from __future__ import annotations

from fractions import Fraction

# Dedekind number D(5): the monotone Boolean functions of five inputs.
DEDEKIND_5 = 7581
# The block-sensitivity cap row for degrees 1..14 published with the paper.
PUBLISHED_CAPS = (1, 3, 6, 10, 15, 21, 29, 38, 47, 58, 71, 84, 99, 114)
DEGREE_HEADLINE_MAX = 4.3935 + 5e-4
MONOTONE_HEADLINE_MAX = Fraction(1325, 1000)
DS_HEADLINE_MAX = 8.277
INFLUENCE_MIN_MAX = 11.602
INFLUENCE_SCAN_K_MAX = 200  # the range `bfc table ds` scans for the minimum
SUITE_CHECK_IDS = (
    "chain", "deg_le_dt", "deg_le_s2", "bs_quartic", "bs_quadratic",
    "relvars_deg", "relvars_cert", "relvars_inf_deg", "relvars_inf_sens",
    "relvars_ds", "relvars_cs", "cert_potential", "rrcm", "influence_bound",
    "monomial_sens", "monomial_potential", "top_monomial_deg_i",
    "standard_form", "adeg", "mono_s_bs_C", "mono_triple", "mono_dt_intersect",
)


# ---------------------------------------------------------------------------
# reference measures of one truth table
# ---------------------------------------------------------------------------

def _f(table: int, x: int) -> int:
    return (table >> x) & 1


def ref_sensitivity(n: int, table: int) -> int:
    """max over x of the number of neighbours x ^ e_i with another value."""
    return max(
        sum(_f(table, x) != _f(table, x ^ (1 << i)) for i in range(n))
        for x in range(1 << n)
    )


def ref_degree(n: int, table: int) -> int:
    """Largest |S| whose Moebius coefficient sum_{T <= S} (-1)^|S-T| f(T) is non-zero."""
    deg = 0
    for s in range(1 << n):
        size = bin(s).count("1")
        if size <= deg:
            continue
        coeff, t = 0, s
        while True:
            sign = -1 if (size - bin(t).count("1")) & 1 else 1
            coeff += sign * _f(table, t)
            if t == 0:
                break
            t = (t - 1) & s
        if coeff:
            deg = size
    return deg


def ref_relevant(n: int, table: int) -> int:
    return sum(
        any(_f(table, x) != _f(table, x ^ (1 << i)) for x in range(1 << n))
        for i in range(n)
    )


def ref_monotone(n: int, table: int) -> bool:
    return all(
        _f(table, x) <= _f(table, x | (1 << i))
        for x in range(1 << n)
        for i in range(n)
    )


def ref_certificate(n: int, table: int) -> int:
    """C(f) = max over x of the fewest fixed coordinates forcing f(x).

    Subcubes are indexed in base 3 (digit 2 = free coordinate).  A subcube
    is monochromatic when both halves along its lowest free coordinate are
    monochromatic with one value; C_x is n minus the most free coordinates
    of a monochromatic subcube through x.
    """
    pow3 = [3 ** i for i in range(n)]
    mono = [0] * (3 ** n)  # constant value, or -1 when mixed
    for c in range(3 ** n):
        rest, x, free = c, 0, -1
        for i in range(n):
            rest, digit = divmod(rest, 3)
            if digit == 2:
                free = i
                break
            x |= digit << i
        if free < 0:
            mono[c] = _f(table, x)
        else:
            lo, hi = mono[c - 2 * pow3[free]], mono[c - pow3[free]]
            mono[c] = lo if lo == hi else -1
    tern = [sum(pow3[i] for i in range(n) if m >> i & 1) for m in range(1 << n)]
    best = 0
    for x in range(1 << n):
        most_free = max(
            bin(m).count("1")
            for m in range(1 << n)
            if mono[tern[x & ~m] + 2 * tern[m]] >= 0
        )
        best = max(best, n - most_free)
    return best


def check_measures(n: int, table: int, api: dict) -> list[str]:
    """Compare the API's s, deg, C and relevant count with the references,
    and test s <= bs <= C <= DT, deg <= DT and, on monotone inputs, s = bs = C.

    ``api`` holds the program's values under the keys
    ``s, bs, C, DT, deg, relevant``.
    """
    name = f"n={n} table=0x{table:x}"
    out = []
    refs = {
        "s": ref_sensitivity(n, table),
        "deg": ref_degree(n, table),
        "C": ref_certificate(n, table),
        "relevant": ref_relevant(n, table),
    }
    for key, want in refs.items():
        if api[key] != want:
            out.append(f"{name}: {key} is {api[key]}, reference {want}")
    s, bs, c, dt, deg = (api[k] for k in ("s", "bs", "C", "DT", "deg"))
    if not s <= bs <= c <= dt:
        out.append(f"{name}: s <= bs <= C <= DT fails: {s} {bs} {c} {dt}")
    if deg > dt:
        out.append(f"{name}: deg {deg} > DT {dt}")
    if ref_monotone(n, table) and not s == bs == c:
        out.append(f"{name}: monotone but s, bs, C = {s}, {bs}, {c}")
    return out


def check_suite_rows(rows, size: int) -> list[str]:
    """Every registered check passed and saw each corpus function once.

    ``rows`` holds ``(check_id, passed, checked, skipped)`` per check.
    """
    out = []
    ids = [r[0] for r in rows]
    missing = [c for c in SUITE_CHECK_IDS if c not in ids]
    if missing:
        out.append(f"suite lacks checks {missing}")
    for check_id, passed, checked, skipped in rows:
        if not passed:
            out.append(f"check {check_id} failed")
        if checked + skipped != size:
            out.append(
                f"check {check_id}: checked {checked} + skipped {skipped} != {size}"
            )
    return out


# ---------------------------------------------------------------------------
# LP cap scan
# ---------------------------------------------------------------------------

def lps_in_scan(d: int) -> int:
    """Moment LPs the documented cap scan decides: b = max(2, d)..2d^2, two endpoints each."""
    return 2 * (2 * d * d - max(2, d) + 1)


def check_cap_row(caps: dict) -> list[str]:
    return [
        f"cap({d}) is {cap}, published {PUBLISHED_CAPS[d - 1]}"
        for d, cap in sorted(caps.items())
        if cap != PUBLISHED_CAPS[d - 1]
    ]


def check_moment_witness(d: int, b: int, tau: int, coeffs) -> list[str]:
    """p(t) = sum_j coeffs[j-1] t^j must give p(1) = 1, 0 <= p(t) <= 1 on 2..b-1, p(b) = tau."""
    if coeffs is None or len(coeffs) != d:
        return [f"d={d} b={b}: witness has no {d} coefficients"]

    def p(t: int) -> Fraction:
        return sum((Fraction(a) * t ** j for j, a in enumerate(coeffs, 1)), Fraction(0))

    out = []
    if p(1) != 1:
        out.append(f"d={d} b={b}: p(1) = {p(1)}")
    for t in range(2, b):
        if not 0 <= p(t) <= 1:
            out.append(f"d={d} b={b}: p({t}) = {p(t)} outside [0, 1]")
            break
    if p(b) != tau:
        out.append(f"d={d} b={b}: p({b}) = {p(b)} != {tau}")
    return out


# ---------------------------------------------------------------------------
# the one-shot commands
# ---------------------------------------------------------------------------

def _rows(text: str) -> list[list[str]]:
    return [ln.split("\t") for ln in text.splitlines() if ln.strip()]


def _keyed(text: str) -> dict:
    return {r[0]: r[1:] for r in _rows(text)}


def _analyze_values(text: str) -> dict:
    keyed = _keyed(text)
    try:
        return {k: int(keyed[k][0]) for k in ("n", "relevant", "deg", "s", "bs", "C", "DT")}
    except (KeyError, IndexError, ValueError):
        return {}


def _check_table_degree(text):
    h = _keyed(text).get("headline")
    if not h or not float(h[0]) <= DEGREE_HEADLINE_MAX:
        return [f"degree headline {h} exceeds {DEGREE_HEADLINE_MAX}"]
    return []


def _check_table_monotone_degree(text):
    h = _keyed(text).get("headline")
    if not h or not Fraction(h[0]) <= MONOTONE_HEADLINE_MAX:
        return [f"monotone degree headline {h} exceeds {MONOTONE_HEADLINE_MAX}"]
    return []


def _check_table_monotone_dt(text):
    small = {0: 0, 1: 1, 2: 2, 3: 4, 4: 6, 5: 10}
    values = {int(r[0]): int(r[1]) for r in _rows(text) if r[0].isdigit()}
    if sorted(values) != list(range(21)):
        return [f"monotone-dt rows are {sorted(values)}, want 0..20"]
    return [
        f"monotone-dt at {d} is {v}, want {small.get(d, 2 ** (d - 2) + 2)}"
        for d, v in values.items()
        if v != small.get(d, 2 ** (d - 2) + 2)
    ]


def _check_table_ds(text):
    keyed = _keyed(text)
    out = []
    h = keyed.get("headline")
    if not h or not float(h[0]) <= DS_HEADLINE_MAX:
        out.append(f"ds headline {h} exceeds {DS_HEADLINE_MAX}")
    k, value = keyed.get("influence_min_k"), keyed.get("influence_min_value")
    if not k or not value:
        return out + ["ds table has no influence minimum"]
    if not 1 < int(k[0]) < INFLUENCE_SCAN_K_MAX:
        out.append(f"influence minimum at k = {k[0]} is not interior")
    if not float(value[0]) <= INFLUENCE_MIN_MAX:
        out.append(f"influence minimum {value[0]} exceeds {INFLUENCE_MIN_MAX}")
    return out


def _check_table_cs(text):
    rows = {int(r[0]): Fraction(r[1]) for r in _rows(text) if r[0].isdigit()}
    if sorted(rows) != list(range(1, 31)):
        return [f"cs rows are {sorted(rows)}, want 1..30"]
    out = []
    harmonic = Fraction(0)
    for d in range(1, 31):
        harmonic += Fraction(1, d)
        if rows[d] != harmonic / 2:
            out.append(f"cs at {d} is {rows[d]}, want H_{d}/2 = {harmonic / 2}")
    return out


def _check_analyze(text, table=None, n=None, expect=None):
    got = _analyze_values(text)
    if not got:
        return ["analyze output lacks n, relevant, deg, s, bs, C or DT"]
    out = []
    if not got["s"] <= got["bs"] <= got["C"] <= got["DT"] or got["deg"] > got["DT"]:
        out.append(f"analyze measures break s <= bs <= C <= DT, deg <= DT: {got}")
    want = dict(expect or {})
    if table is not None:
        want.update(
            n=n,
            relevant=ref_relevant(n, table),
            deg=ref_degree(n, table),
            s=ref_sensitivity(n, table),
            C=ref_certificate(n, table),
        )
    for key, value in want.items():
        if got[key] != value:
            out.append(f"analyze {key} is {got[key]}, want {value}")
    return out


def _parse_tt(text: str):
    lines = text.split()
    if len(lines) != 2 or not lines[0].startswith("n="):
        return None, None
    n, bits = int(lines[0][2:]), lines[1]
    if len(bits) != 1 << n or set(bits) - {"0", "1"}:
        return None, None
    return n, sum(1 << x for x, c in enumerate(bits) if c == "1")


MAJ3_TABLE = sum(1 << x for x in range(8) if bin(x).count("1") >= 2)


def _check_verify_named(text):
    rows = _rows(text)
    if not rows or rows[0][:1] != ["corpus"] or rows[0][-1] != "3":
        return ["verify output lacks the corpus line for three functions"]
    if _keyed(text).get("failures") != ["0"]:
        return ["verify reports failures"]
    body = [r for r in rows[2:] if r[0] != "failures"]
    try:
        suite = [(r[0], r[1] == "pass", int(r[2]), int(r[3])) for r in body]
    except (IndexError, ValueError):
        return ["verify rows are malformed"]
    return check_suite_rows(suite, 3)


def check_cli_outputs(outputs: dict) -> list[str]:
    """Check the one-shot commands' standard output, keyed by command name."""
    out = []
    maf_n, maf_table = _parse_tt(outputs.get("family_maf_3", ""))
    if maf_table is None:
        out.append("family MAF --k 3 wrote no truth table")
    checks = {
        "table_degree": _check_table_degree,
        "table_monotone_degree": _check_table_monotone_degree,
        "table_monotone_dt": _check_table_monotone_dt,
        "table_ds": _check_table_ds,
        "table_cs": _check_table_cs,
        "analyze_kushilevitz": lambda t: _check_analyze(t, expect={"n": 6, "deg": 3, "bs": 6}),
        "analyze_maj_3": lambda t: _check_analyze(t, MAJ3_TABLE, 3),
        "analyze_maf_3": lambda t: _check_analyze(t, maf_table, maf_n),
        "verify_named": _check_verify_named,
    }
    for name, check in checks.items():
        if name not in outputs:
            continue
        try:
            problems = check(outputs[name])
        except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            problems = [f"unparseable output ({exc})"]
        out.extend(f"{name}: {p}" for p in problems)
    return out
