"""The benchmark's output checks pass on bfc's output and fail on corrupted copies.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from bfc import (  # noqa: E402
    BooleanFunction,
    block_sensitivity,
    certificate_complexity,
    degree,
    dt_depth,
    lp_bs_cap,
    moment_lp,
    parse_corpus,
    run_theorem_suite,
    sensitivity,
    simplex_feasible,
)
from bfc.cli import main as cli_main  # noqa: E402


def api_values(f: BooleanFunction) -> dict:
    return {
        "s": sensitivity(f).s,
        "bs": block_sensitivity(f).bs,
        "C": certificate_complexity(f).C,
        "DT": dt_depth(f),
        "deg": degree(f),
        "relevant": f.num_relevant(),
    }


def sample_functions():
    rng = random.Random(7)
    mono = [f for _, f in parse_corpus("monotone:4")]
    wide = [f for _, f in parse_corpus("random:6:4:7")]
    return rng.sample(mono, 12) + wide + [BooleanFunction(3, checks.MAJ3_TABLE)]


# ---------------------------------------------------------------------------
# measures against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", sample_functions(), ids=repr)
def test_measures_pass_on_program_output(f):
    assert checks.check_measures(f.n, f.table, api_values(f)) == []


@pytest.mark.parametrize("key", ["s", "deg", "C", "relevant"])
def test_measures_catch_off_by_one(key):
    f = BooleanFunction(3, checks.MAJ3_TABLE)
    api = api_values(f)
    api[key] += 1
    assert checks.check_measures(f.n, f.table, api)


def test_measures_catch_flipped_table_bit():
    and3 = BooleanFunction(3, 0x80)
    assert checks.check_measures(3, 0x80 ^ 0x80, api_values(and3))


def test_measures_catch_broken_chain():
    f = BooleanFunction(3, checks.MAJ3_TABLE)
    api = api_values(f)
    api["bs"] = api["C"] + 1
    problems = checks.check_measures(f.n, f.table, api)
    assert any("s <= bs <= C <= DT" in p for p in problems)
    assert any("monotone" in p for p in problems)


def test_reference_certificate_on_known_functions():
    assert checks.ref_certificate(3, checks.MAJ3_TABLE) == 2
    assert checks.ref_certificate(3, 0x80) == 3  # AND3 at 1^3
    assert checks.ref_certificate(4, 0) == 0


# ---------------------------------------------------------------------------
# suite rows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_rows():
    suite = run_theorem_suite(parse_corpus("monotone:3"))
    return [(c.check_id, c.passed, c.checked, c.skipped) for c in suite]


def test_suite_rows_pass(suite_rows):
    assert checks.check_suite_rows(suite_rows, 20) == []


def test_suite_rows_catch_corruption(suite_rows):
    first = suite_rows[0]
    assert checks.check_suite_rows(suite_rows, 21)
    assert checks.check_suite_rows([(first[0], False, *first[2:])] + suite_rows[1:], 20)
    assert checks.check_suite_rows([(first[0], True, first[2] - 1, first[3])] + suite_rows[1:], 20)
    assert checks.check_suite_rows(suite_rows[1:], 20)


# ---------------------------------------------------------------------------
# LP caps and witnesses
# ---------------------------------------------------------------------------

def test_cap_row_pass_and_wrong_cap():
    caps = {d: lp_bs_cap(d).cap for d in range(1, 6)}
    assert checks.check_cap_row(caps) == []
    caps[4] += 1
    assert checks.check_cap_row(caps)


def test_moment_witness_pass_and_corrupted():
    d, cap = 4, 10
    tau = next(t for b, *feas in lp_bs_cap(d).profile if b == cap for t in (0, 1) if feas[t])
    witness = simplex_feasible(moment_lp(d, cap, tau)).witness
    assert checks.check_moment_witness(d, cap, tau, witness) == []
    bent = list(witness)
    bent[0] += bent[0] / 1000 if bent[0] else 1
    assert checks.check_moment_witness(d, cap, tau, bent)
    assert checks.check_moment_witness(d, cap, 1 - tau, witness)
    assert checks.check_moment_witness(d, cap, tau, witness[:-1])


def test_lps_in_scan_counts_the_documented_range():
    assert checks.lps_in_scan(1) == 2  # b = 2 only
    assert checks.lps_in_scan(3) == 2 * (18 - 3 + 1)


# ---------------------------------------------------------------------------
# one-shot commands
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_outputs():
    outputs = {}
    for name, command in W.CLI_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(command.split()) == 0
        outputs[name] = buf.getvalue()
    return outputs


def test_cli_outputs_pass(cli_outputs):
    assert checks.check_cli_outputs(cli_outputs) == []


def _set_field(text: str, key: str, value: str, column: int = 1) -> str:
    lines = []
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == key:
            fields[column] = value
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def _flip_tt_bit(text: str) -> str:
    head, bits = text.split()
    return f"{head}\n{'1' if bits[0] == '0' else '0'}{bits[1:]}\n"


CORRUPTIONS = {
    "table_degree headline": ("table_degree", lambda t: _set_field(t, "headline", "4.5")),
    "table_monotone_degree headline": (
        "table_monotone_degree", lambda t: _set_field(t, "headline", "1326/1000")),
    "table_monotone_dt value": ("table_monotone_dt", lambda t: _set_field(t, "5", "11")),
    "table_monotone_dt closed form": ("table_monotone_dt", lambda t: _set_field(t, "12", "1025")),
    "table_ds headline": ("table_ds", lambda t: _set_field(t, "headline", "8.3")),
    "table_ds k at the edge": ("table_ds", lambda t: _set_field(t, "influence_min_k", "200")),
    "table_ds minimum": ("table_ds", lambda t: _set_field(t, "influence_min_value", "11.7")),
    "table_cs harmonic": ("table_cs", lambda t: _set_field(t, "7", "364/280")),
    "table_cs missing row": ("table_cs", lambda t: t.replace("30\t", "x30\t")),
    "kushilevitz bs": ("analyze_kushilevitz", lambda t: _set_field(t, "bs", "5")),
    "kushilevitz deg": ("analyze_kushilevitz", lambda t: _set_field(t, "deg", "4")),
    "maj3 s": ("analyze_maj_3", lambda t: _set_field(t, "s", "3")),
    "maf3 C": ("analyze_maf_3", lambda t: _set_field(t, "C", "4")),
    "maf3 table bit": ("family_maf_3", _flip_tt_bit),
    "verify failures": ("verify_named", lambda t: _set_field(t, "failures", "1")),
    "verify checked count": ("verify_named", lambda t: _set_field(t, "chain", "2", 2)),
    "verify corpus size": ("verify_named", lambda t: _set_field(t, "corpus", "4", 2)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_cli_checks_catch_corruption(cli_outputs, case):
    name, corrupt = CORRUPTIONS[case]
    bad = dict(cli_outputs, **{name: corrupt(cli_outputs[name])})
    assert bad[name] != cli_outputs[name]
    assert checks.check_cli_outputs(bad)


# ---------------------------------------------------------------------------
# the metric names the runner prints are the ones BENCHMARK.json declares
# ---------------------------------------------------------------------------

class StubRunner:
    workload = "verify-small"
    deadline = float("inf")

    def setup_s(self):
        return 0.1

    def round(self, profile):
        return {"wall": 1.0, "fps": 1.0, "rss": 1.0, "ops": 1, "failed": 0, "problems": []}

    def probe(self, name):
        return 0.1


def declared(kind: str) -> list[str]:
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    return [m["name"] for m in json.loads(path.read_text())[kind]]


def test_end_to_end_names_match_benchmark_json():
    metrics, _ = run.end_to_end(StubRunner(), seconds=0)
    assert list(metrics) == declared("end_to_end")


def test_per_layer_names_match_benchmark_json():
    metrics, _, _ = run.per_layer(StubRunner())
    assert sorted(metrics) == sorted(declared("per_layer"))


# ---------------------------------------------------------------------------
# host-speed scaling
# ---------------------------------------------------------------------------

def test_process_scale_uses_the_median_of_recent_references():
    times = iter([0.2, 0.1, 0.4] + [0.3] * hostclock.WINDOW)
    scale = hostclock.ProcessScale("python3", lambda argv: next(times))
    assert scale.next_factor() == hostclock.REF_PROCESS_S / 0.2
    scale.next_factor()
    assert scale.next_factor() == hostclock.REF_PROCESS_S / 0.2  # median of 0.2, 0.1, 0.4
    for _ in range(hostclock.WINDOW):
        factor = scale.next_factor()
    assert factor == hostclock.REF_PROCESS_S / 0.3  # the old references have left the window


def test_host_clock_scales_each_stretch_by_its_calibrations():
    clock = hostclock.HostClock()
    ref = hostclock.REF_KERNEL_S
    clock._state = (0.0, 10.0, ref)
    clock._close(12.0, ref / 3)  # 2 s of work, kernel at 1x then 3x speed
    assert clock.raw_s == 2.0
    assert clock._state[0] == pytest.approx(2.0 * 2 / (1 + 1 / 3))
    clock._close(13.0, ref / 3)  # 1 s more at 3x speed counts 3 s
    assert clock._state[0] == pytest.approx(3.0 + 3.0)


def test_host_clock_leaves_calibration_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    clock.start()
    end = perf_counter() + 0.35
    while perf_counter() < end:
        pass
    scaled = clock.stop()
    assert clock.calibrations >= 3  # start, at least two ticks, stop
    assert 0.0 < clock.raw_s < 0.35
    assert scaled > 0.0
    assert signal.getsignal(signal.SIGALRM) == before
