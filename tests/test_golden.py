"""Byte-for-byte pins of ``bfc`` output for fixed commands.

Each file under ``tests/data/`` is the standard output of one command, kept
as printed; a change to any TSV cell (tightest instance, witness, potential
digits, table entry) shows up here.
"""

import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

import bfc
from bfc.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "verify_all3.tsv": ["verify", "--corpus", "all:3"],
    "verify_monotone4.tsv": ["verify", "--corpus", "monotone:4"],
    "verify_monotone5.tsv": ["verify", "--corpus", "monotone:5"],
    "verify_random6_200_42.tsv": ["verify", "--corpus", "random:6:200:42"],
    "verify_random8_12_7.tsv": ["verify", "--corpus", "random:8:12:7"],
    "verify_random14_2_1.tsv": ["verify", "--corpus", "random:14:2:1"],
    "verify_named.tsv": [
        "verify", "--corpus", "named:KUSHILEVITZ,MAJ:3,MAF:3,ADDR:2,PARITY:4",
    ],
    "analyze_kushilevitz.tsv": ["analyze", "--family", "KUSHILEVITZ"],
    "analyze_maj3.tsv": ["analyze", "--family", "MAJ", "--k", "3"],
    "analyze_maf3.tsv": ["analyze", "--family", "MAF", "--k", "3"],
    "table_degree.tsv": ["table", "degree", "--dmax", "30", "--caps", "markov"],
    "table_monotone_degree.tsv": ["table", "monotone-degree", "--dmax", "30"],
    "table_monotone_dt.tsv": ["table", "monotone-dt", "--dmax", "20"],
    "table_ds.tsv": [
        "table", "ds", "--beta", "1/2", "--dmax", "48", "--caps", "markov",
    ],
    "table_cs.tsv": ["table", "cs", "--dmax", "30"],
    "table_ds_third_square40.tsv": [
        "table", "ds", "--beta", "1/3", "--dmax", "40", "--caps", "square", "--bstep", "1",
    ],
    "table_ds_two_thirds_uniform.tsv": [
        "table", "ds", "--beta", "2/3", "--dmax", "20", "--caps", "markov",
        "--step", "uniform", "--bstep", "1",
    ],
    "table_ds_one_markov30.tsv": [
        "table", "ds", "--beta", "1", "--dmax", "30", "--caps", "markov", "--bstep", "1",
    ],
    "table_degree_lp64.tsv": [
        "table", "degree", "--dmax", "64", "--caps", "lp", "--bstep", "1",
    ],
    "family_maf3.tt": ["family", "MAF", "--k", "3"],
    "lp_caps_dmax14.tsv": ["lp-caps", "--dmax", "14"],
    "lp_caps_dmax16.tsv": ["lp-caps", "--dmax", "16"],
    "verify_named_readme.tsv": ["verify", "--corpus", "named:KUSHILEVITZ,MAJ:3,MAF:3"],
}

# the README's one-shot commands, as benchmarked by perfbench's cli-oneshot
ONE_SHOT = (
    "table_degree.tsv", "table_monotone_degree.tsv", "table_monotone_dt.tsv",
    "table_ds.tsv", "table_cs.tsv", "analyze_kushilevitz.tsv", "analyze_maj3.tsv",
    "analyze_maf3.tsv", "family_maf3.tt", "verify_named_readme.tsv",
)


def assert_same_lines(got, want):
    """got == want (both str or both bytes), compared line by line with
    line ends kept, so a mismatch names its first differing line instead of
    diffing the whole output."""
    pairs = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    for number, texts in enumerate(pairs, 1):
        if texts[0] != texts[1]:
            line, wanted = ("(end of output)" if t is None else repr(t) for t in texts)
            pytest.fail(f"line {number} differs:\n got: {line}\nwant: {wanted}", pytrace=False)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, capsys):
    assert main(GOLDEN[name]) == 0
    assert_same_lines(capsys.readouterr().out, (DATA / name).read_text(encoding="ascii"))


def test_a_golden_mismatch_names_its_first_differing_line():
    for same in ("", "a\nb", "a\nb\n", b"a\r\nb\n", "(end of output)"):
        assert_same_lines(same, same)
    for got, want, line in [
        ("a\nb\nc\n", "a\nB\nc\n", "line 2 differs:\n got: 'b\\n'\nwant: 'B\\n'"),
        ("a\nb", "a\nb\n", "line 2 differs:\n got: 'b'\nwant: 'b\\n'"),
        ("a\n", "a\nb\n", "line 2 differs:\n got: (end of output)\nwant: 'b\\n'"),
        (
            "a\n(end of output)", "a\n",
            "line 2 differs:\n got: '(end of output)'\nwant: (end of output)",
        ),
        (b"a\r\n", b"a\n", "line 1 differs:\n got: b'a\\r\\n'\nwant: b'a\\n'"),
    ]:
        with pytest.raises(pytest.fail.Exception) as failed:
            assert_same_lines(got, want)
        assert str(failed.value) == line


@pytest.mark.parametrize("name", ONE_SHOT)
def test_one_shot_commands_run_without_mpmath(name):
    # mpmath is a test dependency only: with it unimportable, each command
    # still prints its golden bytes
    src = str(Path(bfc.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['mpmath'] = None; "
        "from bfc.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *GOLDEN[name]], env=env, capture_output=True, check=True
    ).stdout
    assert_same_lines(out, (DATA / name).read_bytes())


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each one-shot command is a fresh process, so what ``import bfc.cli``
    # loads is paid on every run; records are NamedTuples, not dataclasses,
    # and the permutation lanes are read by struct, not by the array module
    src = str(Path(bfc.__file__).resolve().parents[1])
    gone = "{'array', 'dataclasses', 'inspect'}"
    code = f"import sys, bfc.cli; print(sorted({gone} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True
    ).stdout
    assert out == "[]\n"
