"""Exact complexity analysis and bound certification for Boolean functions.

Names resolve on first use (PEP 562): ``import bfc`` loads no submodule,
and reading a public name, or ``from bfc import`` it, loads the one
submodule that defines it, with whatever that submodule imports.  Every
``bfc`` command is a fresh process, so each pays only for the modules it
runs.
"""

from importlib import import_module as _import_module

# the public names of each submodule, and the submodule of each name
_PUBLIC = {
    "bf": ("ArityError", "BooleanFunction", "PartialAssignment", "family"),
    "bounds": (
        "BoundGrid", "CapProfile", "cap_profile", "cs_harmonic_bound", "cs_sens_bound",
        "dp_degree", "dp_mixed_ds", "dp_monotone_degree", "ds_influence_min", "markov_cap",
        "monotone_dt_table", "power_tail",
    ),
    "coordinate": (
        "CERT_I", "DEG_I", "SENS_I", "CoordinateMeasureKind", "PotentialValue", "cert_i",
        "check_rrcm", "deg_i", "mix_cs", "mix_ds", "potential", "sens_i",
    ),
    "corpus": ("Corpus", "parse_corpus"),
    "lp": (
        "LinearProgram", "SimplexResult", "adeg_lp", "lp_bs_cap", "moment_lp",
        "simplex_feasible",
    ),
    "measures": (
        "MeasureReport", "approx_degree", "block_sensitivity", "certificate_complexity",
        "degree", "dt_depth", "influence", "measure_report", "sensitivity",
    ),
    "verify": (
        "TheoremCheck", "certify_doubling_recurrence", "check_influence_restriction_average",
        "check_standard_form_lemmas", "dt_doubling_family", "run_theorem_suite",
        "standard_form", "suite_failures",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _PUBLIC:
        # importing a submodule binds it on the package as well
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
