"""Command-line interface.

Subcommands: ``analyze`` (measures, coordinate measures, potentials of one
function), ``lp-caps`` (block-sensitivity caps per degree), ``table``
(bound tables), ``verify`` (corpus theorem suite; exit code 0 iff clean),
and ``family`` (write a named truth table).  Output is tab-separated and
byte-deterministic for fixed flags and seeds.  Every command is a fresh
process, so each ``_cmd_*`` imports the modules it runs and no others:
``family`` loads ``bf`` alone, and ``table`` adds ``bounds``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bf import BooleanFunction, FAMILY_NAMES, family

# points `verify` runs unless --no-budget is given, 2^n per function but at
# least corpus.POINTS_FLOOR: the suite took 0.2-8.6 us per point on all:4,
# monotone:5 and random corpora of 2-16 inputs (raw, in-process, one 2-core
# x86-64 host), so the budget is at most about 40 s of suite; all:4 (2^22
# points) just fits
VERIFY_BUDGET = 1 << 22
# corpus.POINTS_FLOOR, written out so that building the parser loads no
# corpus module (a test holds the two equal)
_HELP_POINTS_FLOOR = 64

# the most digits a --beta literal may have written out, its mantissa's
# digits plus the size of its exponent: Fraction builds 10^|exponent|,
# which took 11 s at 1e10000000; within the bound every numerator and
# denominator prints under Python's 4,300-digit limit on int-to-str
# conversion, and a table takes well under a second
BETA_MAX_DIGITS = 4000


def _check_beta_size(text: str) -> None:
    """Refuse a --beta literal whose digits, written out with no exponent,
    exceed ``BETA_MAX_DIGITS``, before Fraction reads it."""
    size = sum(c.isdigit() for c in text)
    mantissa, e, exponent = text.upper().partition("E")
    if e and size <= BETA_MAX_DIGITS:
        try:
            size = sum(c.isdigit() for c in mantissa) + abs(int(exponent))
        except ValueError:  # not a number: Fraction says so
            pass
    if size > BETA_MAX_DIGITS:
        raise ValueError(
            f"--beta {text} has {size} digits written out, more than {BETA_MAX_DIGITS}"
        )


def _load_function(args) -> BooleanFunction:
    if args.family:
        return family(args.family, args.k)
    with open(args.table, "r", encoding="ascii") as fh:
        return BooleanFunction.from_tt(fh.read())


def _cmd_analyze(args) -> int:
    from fractions import Fraction

    from .coordinate import CERT_I, DEG_I, SENS_I, mix_cs, mix_ds, potential
    from .measures import APPROX_DEGREE_MAX_ARITY, measure_report, table_measures

    f = _load_function(args)
    print(f"n\t{f.n}")
    print(f"relevant\t{f.num_relevant()}")
    # flushed, so these lines stand before an error the searches raise
    print(f"monotone\t{int(f.is_monotone())}", flush=True)
    report = measure_report(f, with_adeg=f.n <= APPROX_DEGREE_MAX_ARITY, eps=Fraction(1, 3))
    print(report.to_tsv())
    print("coordinate\tdeg_i\tsens_i\tcert_i")
    rec = table_measures(f.n, f.table)
    for i, (d, s, c) in enumerate(zip(rec.deg_i, rec.sens_i, rec.cert_i), start=1):
        print(f"{i}\t{d}\t{s}\t{c}")
    for kind in (DEG_I, SENS_I, CERT_I, mix_ds(Fraction(1, 2)), mix_cs(Fraction(1, 2))):
        print(f"potential\t{kind.label()}")
        for line in potential(f, kind).format_lines():
            print(line)
    return 0


def _cmd_lp_caps(args) -> int:
    from .lp import LP_CAP_SCAN_MAX_DEGREE, lp_bs_cap

    if not 1 <= args.dmax <= LP_CAP_SCAN_MAX_DEGREE:
        raise ValueError(f"--dmax must lie in 1..{LP_CAP_SCAN_MAX_DEGREE}, got {args.dmax}")
    caps = []
    for d in range(1, args.dmax + 1):
        scan = lp_bs_cap(d)
        caps.append(scan.cap)
        note = "" if scan.monotone else "\tnon-monotone-profile"
        print(f"{d}\t{scan.cap}{note}")
    print("row\t" + ",".join(str(c) for c in caps))
    return 0


def _cmd_table(args) -> int:
    from fractions import Fraction

    from .bounds import (
        CS_TABLE_MAX_DMAX,
        cap_profile,
        cs_sens_bound,
        dp_degree,
        dp_mixed_ds,
        dp_monotone_degree,
        ds_influence_min,
        monotone_dt_table,
    )

    if args.bstep < 1:
        raise ValueError(f"--bstep must be >= 1, got {args.bstep}")
    if args.which == "degree":
        grid = dp_degree(args.dmax, cap_profile(args.caps))
        print(f"caps\t{args.caps}")
        print("sources\t" + ",".join(grid.cap_sources()))
        print(grid.to_text(b_step=args.bstep))
    elif args.which == "monotone-degree":
        print(dp_monotone_degree(args.dmax).to_text())
    elif args.which == "monotone-dt":
        print(monotone_dt_table(args.dmax).to_text())
    elif args.which == "ds":
        _check_beta_size(args.beta)
        try:
            beta = Fraction(args.beta)
        except ZeroDivisionError:
            raise ValueError(f"--beta needs a nonzero denominator, got {args.beta}") from None
        grid = dp_mixed_ds(beta, args.dmax, cap_profile(args.caps), step=args.step)
        mn = ds_influence_min(beta)
        print(f"caps\t{args.caps}")
        print(f"step\t{args.step}")
        print(grid.to_text(b_step=args.bstep))
        print(f"influence_min_k\t{mn.k}")
        print(f"influence_min_value\t{mn.value:.9f}")
    else:  # cs
        if args.dmax < 1:
            raise ValueError(f"--dmax must be >= 1, got {args.dmax}")
        if args.dmax > CS_TABLE_MAX_DMAX:
            raise ValueError(f"--dmax must be <= {CS_TABLE_MAX_DMAX}, got {args.dmax}")
        h = Fraction(0)
        for d in range(1, args.dmax + 1):
            h += Fraction(1, 2 * d)  # (1/2) H_d, as bounds.cs_harmonic_bound(d)
            print(f"{d}\t{h.numerator}/{h.denominator}\t{float(h):.9f}")
        print(f"sens_form_at_4\t{cs_sens_bound(4):.9f}")
    return 0


def _cmd_verify(args) -> int:
    from .corpus import POINTS_FLOOR, parse_corpus
    from .verify import run_theorem_suite, suite_failures

    corpus = parse_corpus(args.corpus)
    points = corpus.points()
    if points > VERIFY_BUDGET and not args.no_budget:
        raise ValueError(
            f"corpus {corpus.describe()} holds {points} points (2^n per function, at least "
            f"{POINTS_FLOOR}), more than the budget of {VERIFY_BUDGET}; --no-budget lifts it"
        )
    checks = run_theorem_suite(corpus)
    print(f"corpus\t{corpus.describe()}\t{len(corpus)}")
    print("check\tstatus\tchecked\tskipped\tleft\tright\twitness")
    for c in checks:
        print(c.row())
    bad = suite_failures(checks)
    print(f"failures\t{bad}")
    return 0 if bad == 0 else 1


def _cmd_family(args) -> int:
    f = family(args.name, args.k)
    text = f.to_tt()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bfc",
        description="Exact analysis and bound certification for Boolean functions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="measures and potentials of one function")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("table", nargs="?", help="path to a .tt truth-table file")
    src.add_argument("--family", choices=FAMILY_NAMES)
    pa.add_argument("--k", type=int, default=None, help="family size parameter")
    pa.set_defaults(fn=_cmd_analyze)

    pl = sub.add_parser("lp-caps", help="block-sensitivity caps per degree")
    pl.add_argument("--dmax", type=int, default=14)
    pl.set_defaults(fn=_cmd_lp_caps)

    pt = sub.add_parser("table", help="bound tables")
    pt.add_argument(
        "which",
        choices=("degree", "monotone-degree", "monotone-dt", "ds", "cs"),
    )
    pt.add_argument("--dmax", type=int, default=30)
    pt.add_argument("--caps", choices=("square", "lp", "markov"), default="lp")
    pt.add_argument("--beta", default="1/2", help="mixing weight as num/den")
    pt.add_argument("--step", choices=("profile", "uniform"), default="profile")
    pt.add_argument("--bstep", type=int, default=25, help="row stride in grid output")
    pt.set_defaults(fn=_cmd_table)

    pv = sub.add_parser("verify", help="run the theorem suite over a corpus")
    pv.add_argument(
        "--corpus",
        required=True,
        help="all:N | monotone:N | random:N:COUNT:SEED | named:LIST",
    )
    pv.add_argument(
        "--no-budget",
        action="store_true",
        help=f"run a corpus of more than {VERIFY_BUDGET} points "
        f"(2^n per function, at least {_HELP_POINTS_FLOOR})",
    )
    pv.set_defaults(fn=_cmd_verify)

    pf = sub.add_parser("family", help="write a named family truth table")
    pf.add_argument("name", choices=FAMILY_NAMES)
    pf.add_argument("--k", type=int, default=None)
    pf.add_argument("--out", default=None)
    pf.set_defaults(fn=_cmd_family)
    return p


def main(argv=None) -> int:
    """Run one command; bad input (arity caps, malformed or missing files,
    invalid parameters) ends in one ``bfc: error:`` line and exit code 2.
    A reader that closes stdout early (``| head``) ends it quietly with
    the shell's SIGPIPE status, 141."""
    # argparse reads a word like -1/2 as an option, not as the value of
    # --beta, so it is passed on as --beta=-1/2
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1] == "--beta" and word[:1] == "-" and word[1:2].isdigit():
            words[-1] += "=" + word
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # ArityError is a ValueError
        print(f"bfc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
