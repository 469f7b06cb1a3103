"""Exact complexity analysis and bound certification for Boolean functions."""

from .bf import (
    ArityError,
    BooleanFunction,
    PartialAssignment,
    family,
)
from .bounds import (
    BoundGrid,
    CapProfile,
    cap_profile,
    cs_harmonic_bound,
    cs_sens_bound,
    dp_degree,
    dp_mixed_ds,
    dp_monotone_degree,
    ds_influence_min,
    markov_cap,
    monotone_dt_table,
    power_tail,
)
from .coordinate import (
    CERT_I,
    DEG_I,
    SENS_I,
    CoordinateMeasureKind,
    PotentialValue,
    cert_i,
    check_rrcm,
    deg_i,
    mix_cs,
    mix_ds,
    potential,
    sens_i,
)
from .corpus import Corpus, parse_corpus
from .lp import (
    LinearProgram,
    SimplexResult,
    adeg_lp,
    lp_bs_cap,
    moment_lp,
    simplex_feasible,
)
from .measures import (
    MeasureReport,
    approx_degree,
    block_sensitivity,
    certificate_complexity,
    degree,
    dt_depth,
    influence,
    measure_report,
    sensitivity,
)
from .verify import (
    TheoremCheck,
    certify_doubling_recurrence,
    check_influence_restriction_average,
    check_standard_form_lemmas,
    dt_doubling_family,
    run_theorem_suite,
    standard_form,
    suite_failures,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
