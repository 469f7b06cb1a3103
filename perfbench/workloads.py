"""Workload definitions shared by the runner and its worker processes."""

from __future__ import annotations

from checks import DEDEKIND_5

WORKLOADS = ("verify-small", "verify-wide", "lp-caps", "cli-oneshot")

# theorem-suite corpora; verify-wide takes its corpus seed from --seed
VERIFY_SMALL_CORPUS = "monotone:5"
VERIFY_WIDE_ARITY = 8
VERIFY_WIDE_COUNT = 12

# lp_bs_cap is run for every degree in this range, lowest first
LP_DEGREES = tuple(range(1, 12))
LP_WITNESS_DEGREES = 2  # degrees per round whose cap witness is re-checked

# functions per round whose measures are recomputed by the reference code
CHECK_SAMPLE = {"verify-small": 64, "verify-wide": 6}
# functions per probe on verify-small (verify-wide probes its whole corpus)
PROBE_SAMPLE = 256

# the README's one-shot commands, each run as its own `python -m bfc.cli`
CLI_COMMANDS = {
    "table_degree": "table degree --dmax 30 --caps markov",
    "table_monotone_degree": "table monotone-degree --dmax 30",
    "table_monotone_dt": "table monotone-dt --dmax 20",
    "table_ds": "table ds --beta 1/2 --dmax 48 --caps markov",
    "table_cs": "table cs --dmax 30",
    "analyze_kushilevitz": "analyze --family KUSHILEVITZ",
    "analyze_maj_3": "analyze --family MAJ --k 3",
    "analyze_maf_3": "analyze --family MAF --k 3",
    "family_maf_3": "family MAF --k 3",
    "verify_named": "verify --corpus named:KUSHILEVITZ,MAJ:3,MAF:3",
}
CLI_VERIFY_FUNCTIONS = 3
CLI_FAMILIES = (("KUSHILEVITZ", None), ("MAJ", 3), ("MAF", 3))

MEASURE_PROBES = (
    "measures.certificate_complexity",
    "measures.block_sensitivity",
    "measures.dt_depth",
    "measures.sensitivity",
    "measures.degree",
    "measures.influence",
)
COORDINATE_PROBES = (
    "coordinate.deg_i",
    "coordinate.sens_i",
    "coordinate.cert_i",
    "coordinate.check_rrcm",
    "coordinate.potential",
)
BOUNDS_PROBES = (
    "bounds.dp_degree",
    "bounds.dp_mixed_ds",
    "bounds.dp_monotone_degree",
    "bounds.monotone_dt_table",
    "bounds.ds_influence_min",
    "bounds.cs_harmonic_bound",
)


def verify_corpus(workload: str, seed: int) -> str:
    if workload == "verify-small":
        return VERIFY_SMALL_CORPUS
    return f"random:{VERIFY_WIDE_ARITY}:{VERIFY_WIDE_COUNT}:{seed}"


def round_ops(workload: str) -> int:
    """Operations one round attempts: functions, degrees or commands."""
    return {
        "verify-small": DEDEKIND_5,
        "verify-wide": VERIFY_WIDE_COUNT,
        "lp-caps": len(LP_DEGREES),
        "cli-oneshot": len(CLI_COMMANDS),
    }[workload]


def probes_for(workload: str) -> tuple[str, ...]:
    """The cold per-call probes that apply to a workload's inputs."""
    if workload == "lp-caps":
        return ("cli.import",)
    names = MEASURE_PROBES + COORDINATE_PROBES + ("corpus.iterate", "cli.import")
    if workload == "cli-oneshot":
        names += ("measures.approx_degree",) + BOUNDS_PROBES
    return names
