import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfc
from bfc.bf import BooleanFunction
from bfc.bounds import (
    CS_TABLE_MAX_DMAX,
    MONOTONE_DEGREE_MAX_DMAX,
    MONOTONE_DT_MAX_DMAX,
    cs_harmonic_bound,
)
from bfc.cli import _HELP_POINTS_FLOOR, BETA_MAX_DIGITS, VERIFY_BUDGET, main
from bfc.corpus import POINTS_FLOOR, parse_corpus
from bfc.lp import LP_CAP_SCAN_MAX_DEGREE


def run_cli(*argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_analyze_family():
    code, out = run_cli("analyze", "--family", "MAJ", "--k", "3")
    assert code == 0
    lines = dict(
        ln.split("\t", 1) for ln in out.splitlines() if ln.count("\t") == 1
    )
    assert lines["deg"] == "3"
    assert lines["DT"] == "3"
    assert lines["I"] == "3/2"
    assert "potential\tdeg" in out
    assert "total\t3/8" in out


def test_analyze_tt_file(tmp_path):
    path = tmp_path / "or2.tt"
    code, _ = run_cli("family", "OR", "--k", "2", "--out", str(path))
    assert code == 0
    f = BooleanFunction.from_tt(path.read_text())
    assert f.n == 2 and f.bits() == (0, 1, 1, 1)
    code, out = run_cli("analyze", str(path))
    assert code == 0
    assert "s\t2" in out


def test_family_stdout():
    code, out = run_cli("family", "PARITY", "--k", "2")
    assert code == 0
    assert out == "n=2\n0110\n"


def test_lp_caps_small():
    code, out = run_cli("lp-caps", "--dmax", "3")
    assert code == 0
    assert out.splitlines() == ["1\t1", "2\t3", "3\t6", "row\t1,3,6"]


def test_table_degree_deterministic():
    code1, out1 = run_cli("table", "degree", "--dmax", "8", "--caps", "square")
    code2, out2 = run_cli("table", "degree", "--dmax", "8", "--caps", "square")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "headline\t" in out1


def test_table_monotone_degree():
    code, out = run_cli("table", "monotone-degree", "--dmax", "10")
    assert code == 0
    assert out.splitlines()[0] == "1\t1/2\t0.500000000"


def test_table_monotone_dt():
    code, out = run_cli("table", "monotone-dt", "--dmax", "5")
    assert code == 0
    assert out.splitlines()[:6] == ["0\t0", "1\t1", "2\t2", "3\t4", "4\t6", "5\t10"]


def test_table_ds_and_cs():
    code, out = run_cli("table", "ds", "--beta", "1/2", "--dmax", "12")
    assert code == 0
    assert "influence_min_k\t" in out
    code, out = run_cli("table", "cs", "--dmax", "4")
    assert code == 0
    assert out.splitlines()[3].startswith("4\t25/24")


def test_table_cs_running_sum_equals_the_fresh_sum_up_to_the_cap():
    # the table keeps a running sum; each row must print what the fresh
    # sum cs_harmonic_bound(d) gives, at every d up to the --dmax cap
    code, out = run_cli("table", "cs", "--dmax", str(CS_TABLE_MAX_DMAX))
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == CS_TABLE_MAX_DMAX + 1
    for d, row in enumerate(rows[:-1], start=1):
        want = cs_harmonic_bound(d)
        assert row == f"{d}\t{want.numerator}/{want.denominator}\t{float(want):.9f}"


def test_table_ds_influence_minimum_past_two_hundred():
    code, out = run_cli("table", "ds", "--beta", "7/64", "--dmax", "8")
    assert code == 0
    assert "influence_min_k\t211\n" in out


@given(st.integers(1, 10 ** 70).flatmap(lambda q: st.tuples(
    st.integers(-1, 3) | st.integers(-1, q + 1), st.just(q),
)))
@settings(max_examples=30, deadline=None)
def test_table_ds_any_beta_exits_cleanly(pq):
    # a table, or exit 2 before any output; main raises nothing
    code, out = run_cli("table", "ds", "--beta={}/{}".format(*pq), "--dmax", "2")
    assert code in (0, 2)
    assert (code == 0) == out.startswith("caps\t")


def test_verify_exit_codes():
    code, out = run_cli("verify", "--corpus", "all:2")
    assert code == 0
    assert out.rstrip().endswith("failures\t0")
    code, out = run_cli("verify", "--corpus", "named:KUSHILEVITZ")
    assert code == 0


def test_verify_deterministic():
    _, out1 = run_cli("verify", "--corpus", "random:4:25:9")
    _, out2 = run_cli("verify", "--corpus", "random:4:25:9")
    assert out1 == out2


def test_verify_budget_is_lifted_by_its_flag(monkeypatch, capsys):
    # at the budget, 25 functions of 2^4 points counted at the floor of 64,
    # the corpus runs; past it only --no-budget runs it, with the output the
    # corpus has at any budget
    _, want = run_cli("verify", "--corpus", "random:4:25:9")
    monkeypatch.setattr(bfc.cli, "VERIFY_BUDGET", 1600)
    assert run_cli("verify", "--corpus", "random:4:25:9") == (0, want)
    monkeypatch.setattr(bfc.cli, "VERIFY_BUDGET", 1599)
    assert run_cli("verify", "--corpus", "random:4:25:9") == (2, "")
    assert (
        "holds 1600 points (2^n per function, at least 64), more than the budget of 1599"
        in capsys.readouterr().err
    )
    assert run_cli("verify", "--corpus", "random:4:25:9", "--no-budget") == (0, want)


def test_verify_budget_counts_points_without_enumerating():
    # the sum of max(2^n, 64) over the corpus, from its spec alone; every
    # corpus the README and the goldens run fits the budget
    for spec in (
        "all:2", "monotone:3", "random:5:7:1", "random:7:3:1", "named:MAJ:3,AND:2,KUSHILEVITZ",
        "named:AND:7",
    ):
        corpus = parse_corpus(spec)
        assert corpus.points() == sum(max(1 << f.n, POINTS_FLOOR) for _, f in corpus), spec
    assert parse_corpus("all:4").points() == 1 << 22 == VERIFY_BUDGET
    assert parse_corpus("random:7:3:1").points() == 3 << 7
    for spec in (
        "all:4", "monotone:5", "random:6:200:42", "random:8:12:7",
        "named:KUSHILEVITZ,MAJ:3,MAF:3,ADDR:2,PARITY:4",
    ):
        assert parse_corpus(spec).points() <= VERIFY_BUDGET, spec


def test_analyze_over_arity_cap_fails_cleanly(capsys):
    # MAF at k = 5 has 15 inputs, past the exact certificate search
    code = main(["analyze", "--family", "MAF", "--k", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("bfc: error: ") and err.count("\n") == 1
    assert "arity" in err


def test_analyze_prints_what_needs_no_search_before_an_error():
    # the header lines need no search, so they stand before the error line
    # (stdout is flushed first); MAF 5 has 15 inputs, past the certificate cap
    result = subprocess.run(
        [sys.executable, "-m", "bfc.cli", "analyze", "--family", "MAF", "--k", "5"],
        env={**os.environ, "PYTHONPATH": str(Path(bfc.__file__).resolve().parents[1])},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, check=False,
    )
    assert result.returncode == 2
    assert result.stdout == (
        "n\t15\nrelevant\t15\nmonotone\t1\n"
        "bfc: error: certificate search supports arity <= 14, got 15\n"
    )


def test_analyze_malformed_tt_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_text("n=2\n01x1\n")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "bfc: error: table line may contain only 0 and 1\n"


def test_analyze_tt_with_a_line_after_the_table_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_text("n=2\n0110\n1111\n")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "bfc: error: truth-table text has a non-blank line after the table line\n"
    )


def test_analyze_tt_with_a_non_integer_arity_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_text("n=x\n0\n")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "bfc: error: truth-table header 'n=x' needs an integer arity\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["analyze", "{path}"], "n=1099511627776\n0\n"),
        (["analyze", "{path}"], "n=-1\n0\n"),
        (["verify", "--corpus", "random:40:1:0"], None),
        (["verify", "--corpus", "all:40"], None),
        (["verify", "--corpus", "all:5"], None),
        (["family", "ADDR", "--k", "100000000000"], None),
        (["family", "MAF", "--k", "10000001"], None),
    ],
    ids=["tt-huge", "tt-negative", "random-40", "all-40", "all-5", "addr-huge", "maf-huge"],
)
def test_arity_past_the_cap_fails_cleanly(argv, text, tmp_path, capsys):
    path = tmp_path / "big.tt"
    if text is not None:
        path.write_text(text)
    code = main([a.format(path=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("bfc: error: ") and captured.err.count("\n") == 1
    assert "arity" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["lp-caps", "--dmax", str(LP_CAP_SCAN_MAX_DEGREE + 1)],
            f"--dmax must lie in 1..{LP_CAP_SCAN_MAX_DEGREE}, got {LP_CAP_SCAN_MAX_DEGREE + 1}",
        ),
        (["lp-caps", "--dmax", "0"], f"--dmax must lie in 1..{LP_CAP_SCAN_MAX_DEGREE}, got 0"),
        (["table", "degree", "--bstep", "0"], "--bstep must be >= 1, got 0"),
        (["table", "ds", "--bstep", "-3"], "--bstep must be >= 1, got -3"),
        (["verify", "--corpus", "random:3:-5:1"], "corpus random:3:-5:1 needs a count >= 0"),
        (
            ["verify", "--corpus", "random:6:100000000:1"],
            f"corpus random:6:100000000:1 holds 6400000000 points "
            f"(2^n per function, at least 64), "
            f"more than the budget of {VERIFY_BUDGET}; --no-budget lifts it",
        ),
        (
            ["verify", "--corpus", "random:14:100000:1"],
            f"corpus random:14:100000:1 holds 1638400000 points "
            f"(2^n per function, at least 64), "
            f"more than the budget of {VERIFY_BUDGET}; --no-budget lifts it",
        ),
        (
            ["verify", "--corpus", "random:2:1000000:1"],
            f"corpus random:2:1000000:1 holds 64000000 points "
            f"(2^n per function, at least 64), "
            f"more than the budget of {VERIFY_BUDGET}; --no-budget lifts it",
        ),
        (
            ["verify", "--corpus", "random:x:3:1"],
            "corpus random:x:3:1 needs an integer arity, got 'x'",
        ),
        (
            ["verify", "--corpus", "random:3:1:x"],
            "corpus random:3:1:x needs an integer seed, got 'x'",
        ),
        (["verify", "--corpus", "all:x"], "corpus all:x needs an integer arity, got 'x'"),
        (
            ["verify", "--corpus", "named:MAJ:x"],
            "corpus named:MAJ:x needs an integer size for MAJ, got 'x'",
        ),
        (["table", "ds", "--beta", "1/0"], "--beta needs a nonzero denominator, got 1/0"),
        (["table", "cs", "--dmax", "0"], "--dmax must be >= 1, got 0"),
        (
            ["table", "cs", "--dmax", str(CS_TABLE_MAX_DMAX + 1)],
            f"--dmax must be <= {CS_TABLE_MAX_DMAX}, got {CS_TABLE_MAX_DMAX + 1}",
        ),
        (
            ["table", "monotone-degree", "--dmax", "100000"],
            f"table supports 2 <= d_max <= {MONOTONE_DEGREE_MAX_DMAX}, got 100000",
        ),
        (
            ["table", "monotone-degree", "--dmax", "1"],
            f"table supports 2 <= d_max <= {MONOTONE_DEGREE_MAX_DMAX}, got 1",
        ),
        (
            ["table", "monotone-dt", "--dmax", "100000"],
            f"table supports 1 <= d_max <= {MONOTONE_DT_MAX_DMAX}, got 100000",
        ),
        (
            ["table", "ds", "--beta", f"1/{10 ** 60}"],
            f"mixing weight 1/{10 ** 60} is too small: 2^-beta rounds to 1 at 192 bits",
        ),
        (
            ["table", "ds", "--beta", f"1/{10 ** 62}"],
            f"mixing weight 1/{10 ** 62} is too small: 2^-beta rounds to 1 at 192 bits",
        ),
    ],
    ids=[
        "dmax-past-cap", "dmax-zero", "bstep-zero", "bstep-negative", "count-negative",
        "count-past-budget", "wide-count-past-budget", "tiny-count-past-budget",
        "random-arity-not-integer", "random-seed-not-integer", "all-arity-not-integer",
        "named-size-not-integer",
        "beta-zero-denominator", "cs-dmax-zero", "cs-dmax-past-cap",
        "monotone-degree-dmax-past-cap", "monotone-degree-dmax-one",
        "monotone-dt-dmax-past-cap", "beta-below-resolution-60",
        "beta-below-resolution-62",
    ],
)
def test_out_of_range_argument_fails_before_any_output(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"bfc: error: {message}\n"


@pytest.mark.parametrize("argv", [["--beta", "-1/2"], ["--beta=-1/2"]], ids=["spaced", "joined"])
def test_negative_beta_fails_with_one_error_line(argv, capsys):
    # a value that starts with "-" is still the value of --beta
    code = main(["table", "ds", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "bfc: error: mixing weight must lie in (0, 1], got -1/2\n"


@pytest.mark.parametrize("beta", ["1e10000000", "1e-10000000"])
def test_a_beta_of_unbounded_size_is_refused_at_once(beta):
    # Fraction would build 10^10000000 for either before failing; the
    # refusal comes first, so the command ends well within the timeout
    src = str(Path(bfc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "bfc.cli", "table", "ds", "--beta", beta],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"bfc: error: --beta {beta} has 10000001 digits written out, "
        f"more than {BETA_MAX_DIGITS}\n"
    )


@pytest.mark.parametrize(
    "beta, size",
    [
        (f"1e-{BETA_MAX_DIGITS}", BETA_MAX_DIGITS + 1),  # past the bound by its exponent
        ("0." + "3" * BETA_MAX_DIGITS, BETA_MAX_DIGITS + 1),
        ("1/" + "7" * BETA_MAX_DIGITS, BETA_MAX_DIGITS + 1),
        # an exponent of more digits than the bound is not read
        ("1e" + "0" * BETA_MAX_DIGITS + "1", BETA_MAX_DIGITS + 2),
    ],
    ids=["exponent", "decimal", "fraction", "long-exponent"],
)
def test_a_beta_past_the_digit_bound_fails_with_one_error_line(beta, size, capsys):
    code = main(["table", "ds", "--beta", beta, "--dmax", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"bfc: error: --beta {beta} has {size} digits written out, more than {BETA_MAX_DIGITS}\n"
    )


@pytest.mark.parametrize(
    "beta, last",
    [
        (
            "1e-57",
            "influence_min_value\t"
            "149277456004906511826120405263448672302038041113566495375360.000000000",
        ),
        ("0." + "3" * (BETA_MAX_DIGITS - 1), "influence_min_value\t17.704799939"),
        (f"1e-{BETA_MAX_DIGITS - 1}", None),  # at the bound, below the resolution of 2^-beta
    ],
    ids=["tiny", "decimal-at-bound", "exponent-at-bound"],
)
def test_a_beta_within_the_digit_bound_is_read(beta, last, capsys):
    code = main(["table", "ds", "--beta", beta, "--dmax", "2"])
    captured = capsys.readouterr()
    if last is None:
        assert code == 2
        assert captured.err.startswith("bfc: error: mixing weight 1/1000")
        assert captured.err.endswith(" is too small: 2^-beta rounds to 1 at 192 bits\n")
    else:
        assert code == 0 and captured.out.splitlines()[-1] == last


def test_no_budget_help_names_the_points_floor(capsys):
    # the parser writes the floor out so as to load no corpus module
    assert _HELP_POINTS_FLOOR == POINTS_FLOOR
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    words = " ".join(capsys.readouterr().out.split())
    assert f"(2^n per function, at least {POINTS_FLOOR})" in words


@pytest.mark.parametrize(
    "argv, more",
    [
        ("family MAF --k 3", ""),
        ("table cs --dmax 30", "bounds"),
        ("table degree --dmax 4", "bounds"),
        ("table monotone-degree --dmax 4", "bounds"),
        ("table monotone-dt --dmax 4", "bounds"),
        ("table ds --dmax 4", "bounds"),
        ("lp-caps --dmax 2", "lp measures"),
        ("analyze --family MAJ --k 3", "bounds coordinate lp measures"),
        ("verify --corpus named:MAJ:5", "bounds coordinate corpus measures verify"),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, more):
    # every command is a fresh process, so each pays for what it imports:
    # the bfc modules loaded once it has run, beyond bfc, bfc.bf and bfc.cli
    src = str(Path(bfc.__file__).resolve().parents[1])
    code = (
        "import sys; from bfc.cli import main; code = main(sys.argv[1:]); "
        "print(*sorted(m for m in sys.modules if m.startswith('bfc.')), file=sys.stderr); "
        "sys.exit(code)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv.split()],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    want = ["bfc.bf", "bfc.cli", *(f"bfc.{m}" for m in more.split())]
    assert done.stderr.split() == sorted(want)


def test_closed_stdout_pipe_ends_quietly_with_sigpipe_status():
    # 1.4 MB of output, far past a pipe buffer: the reader takes one line
    # and closes the pipe while bfc is still printing
    src = str(Path(bfc.__file__).resolve().parents[1])
    code = "import sys; from bfc.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "table", "degree", "--dmax", "64", "--bstep", "1"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"caps\tlp\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 141


def test_corpus_sweep_closed_stdout_pipe_ends_quietly_with_sigpipe_status():
    # 200 sweeps of all:1 print about 190 kB, far past a pipe buffer
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, str(root / "scripts" / "corpus_sweep.py"), *["all:1"] * 200],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"== all")
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 141


def test_verify_skips_rows_past_the_exact_search_cap():
    code, out = run_cli("verify", "--corpus", "named:CONST0:15")
    assert code == 0
    rows = {ln.split("\t")[0]: ln.split("\t")[1:4] for ln in out.splitlines()[2:-1]}
    for check_id in ("deg_le_dt", "monomial_sens", "mono_triple"):
        assert rows[check_id] == ["pass", "0", "1"], check_id
    assert rows["deg_le_s2"] == ["pass", "1", "0"]


# arbitrary text, and near misses of the format: a head, an arity n (or
# another), 2^n table bits (or a line from a small alphabet), and a tail
TT_TEXT = st.one_of(
    st.text(),
    st.integers(0, 4).flatmap(lambda n: st.builds(
        "{}{}\n{}{}".format,
        st.sampled_from(["n=", "n= ", "n=+", "n=0", "m=", ""]),
        st.just(n) | st.integers(-2, 5),
        st.text("01", min_size=1 << n, max_size=1 << n) | st.text("01 x\t", max_size=20),
        st.sampled_from(["", "\n", "\r\n", " \n", "\nextra"]) | st.text(max_size=6),
    )),
)


@given(TT_TEXT)
@settings(max_examples=300, deadline=None)
def test_tt_parser_rejects_or_round_trips(text):
    try:
        f = BooleanFunction.from_tt(text)
    except ValueError:  # ArityError included
        return
    assert BooleanFunction.from_tt(f.to_tt()) == f


@given(TT_TEXT)
@settings(max_examples=60, deadline=None)
def test_analyze_any_tt_text_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.tt"
        path.write_text(text, encoding="utf-8")
        code, out = run_cli("analyze", str(path))
    assert code in (0, 2)
    assert (code == 0) == out.startswith("n\t")
