"""Byte-for-byte pins of ``bfc`` output for fixed commands.

Each file under ``tests/data/`` is the standard output of one command, kept
as printed; a change to any TSV cell (tightest instance, witness, potential
digits, table entry) shows up here.
"""

from pathlib import Path

import pytest

from bfc.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "verify_all3.tsv": ["verify", "--corpus", "all:3"],
    "verify_monotone4.tsv": ["verify", "--corpus", "monotone:4"],
    "verify_random6_200_42.tsv": ["verify", "--corpus", "random:6:200:42"],
    "verify_random8_12_7.tsv": ["verify", "--corpus", "random:8:12:7"],
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, capsys):
    assert main(GOLDEN[name]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text(encoding="ascii")
