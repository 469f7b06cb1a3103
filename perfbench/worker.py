"""One benchmark task in a fresh interpreter, so every memo table starts empty.

Usage: ``python3 perfbench/worker.py '<task as JSON>'`` with ``src`` on
``PYTHONPATH``.  The worker imports ``bfc`` and builds its inputs, prints
``ready``, runs the task and prints one JSON line with the result.  Times
are scaled seconds from ``hostclock.HostClock``.  Tasks:

* ``round``  - one timed round of a workload, optionally under cProfile,
  followed by the output checks (not timed);
* ``probe``  - cold per-call spans around one public function;
* ``cli``    - one ``bfc`` command through ``bfc.cli.main``, under cProfile.
"""

from __future__ import annotations

import contextlib
import cProfile
import inspect
import io
import json
import pstats
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import workloads as W
from hostclock import HostClock

HALF = Fraction(1, 2)


def ready() -> None:
    print("ready", flush=True)


# ---------------------------------------------------------------------------
# tracing helpers
# ---------------------------------------------------------------------------

class Tracer:
    """Spans recorded by the benchmark around its own calls, plus an
    optional profiler for the work inside them.  Times are read from a
    ``HostClock``, so they are scaled seconds; the profiler is paused while
    the clock calibrates."""

    def __init__(self, profile: bool):
        self.spans: list[dict] = []
        self.profiler = cProfile.Profile(subcalls=False, builtins=False) if profile else None
        if self.profiler:
            self.clock = HostClock(self.profiler.disable, self.profiler.enable)
        else:
            self.clock = HostClock()
        self.wall = self.raw_wall = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        start = self.clock.now()
        try:
            yield
        finally:
            self.spans.append({"name": name, "start": start, "end": self.clock.now()})

    @contextlib.contextmanager
    def timed(self):
        """The timed region; afterwards ``wall`` holds its scaled seconds and
        ``raw_wall`` its wall-clock seconds."""
        self.clock.start()
        if self.profiler:
            self.profiler.enable()
        try:
            yield
        finally:
            if self.profiler:
                self.profiler.disable()
            self.wall = self.clock.stop()
            self.raw_wall = self.clock.raw_s


def _module_of(filename: str) -> str:
    path = Path(filename)
    if filename.startswith("~") or filename.startswith("<"):
        return "builtins"
    if path.parent.name == "bfc":
        return path.stem
    if "mpmath" in path.parts:
        return "mpmath"
    return path.stem


def grouped_profile(profiler: cProfile.Profile | None, scale: float, check_fns=()) -> dict:
    """Self time per module, and calls, self and cumulative time per function;
    the profiler's seconds times ``scale``, to make them scaled seconds."""
    if profiler is None:
        return {}
    stats = pstats.Stats(profiler).stats
    modules: dict[str, float] = {}
    functions: dict[str, list] = {}
    for (filename, line, name), (_, ncalls, tottime, cumtime, _) in stats.items():
        module = _module_of(filename)
        modules[module] = modules.get(module, 0.0) + tottime * scale
        functions[f"{module}:{name}:{line}"] = [ncalls, tottime * scale, cumtime * scale]
    check_s = {}
    for check_id, code in check_fns:
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        check_s[check_id] = entry[3] * scale if entry else 0.0
    return {"modules": modules, "functions": functions, "check_s": check_s}


def _suite_check_codes():
    """(check id, code object) for each suite check, to find it in a profile."""
    from bfc import verify

    return [
        (check_id, fn.__code__)
        for check_id, _, fn in getattr(verify, "_GENERAL_CHECKS", ())
        if hasattr(fn, "__code__")
    ]


def _is_table_kernel(obj, module) -> bool:
    """An lru_cache'd function of this module keyed by ``(n, table)``."""
    if not hasattr(obj, "cache_info") or getattr(obj, "__module__", None) != module.__name__:
        return False
    params = list(inspect.signature(obj.__wrapped__).parameters)
    return params[:2] == ["n", "table"]


def cache_counts() -> dict:
    """Hits and attempts of the memoised per-table kernels, per module.

    Memoised helpers keyed by other arguments (subset masks, kinds) are left
    out: they hit on almost every call whatever the corpus.
    """
    from bfc import coordinate, measures

    out = {}
    for module in (measures, coordinate):
        hits = attempts = 0
        for obj in vars(module).values():
            if _is_table_kernel(obj, module):
                ci = obj.cache_info()
                hits += ci.hits
                attempts += ci.hits + ci.misses
        out[module.__name__.rsplit(".", 1)[-1]] = [hits, attempts]
    return out


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def verify_round(workload: str, seed: int, tracer: Tracer) -> dict:
    from bfc import (
        block_sensitivity,
        certificate_complexity,
        degree,
        dt_depth,
        parse_corpus,
        run_theorem_suite,
        sensitivity,
    )

    corpus = parse_corpus(W.verify_corpus(workload, seed))
    ready()
    size = len(corpus)
    result = {"ops": size, "failed": 0, "problems": []}
    try:
        with tracer.timed(), tracer.span("verify.run_theorem_suite"):
            suite = run_theorem_suite(corpus)
        result["wall"], result["raw_wall"] = tracer.wall, tracer.raw_wall
    except Exception:  # a fault in the program: count the round as failed
        traceback.print_exc()
        result["failed"] = size
        return result
    result["cache"] = cache_counts()

    # output checks, untimed
    problems = result["problems"]
    expected = W.round_ops(workload)
    if size != expected:
        problems.append(f"corpus has {size} functions, want {expected}")
    problems += checks.check_suite_rows(
        [(c.check_id, c.passed, c.checked, c.skipped) for c in suite], expected
    )
    rng = random.Random(seed)
    for _, f in rng.sample(list(corpus), W.CHECK_SAMPLE[workload]):
        api = {
            "s": sensitivity(f).s,
            "bs": block_sensitivity(f).bs,
            "C": certificate_complexity(f).C,
            "DT": dt_depth(f),
            "deg": degree(f),
            "relevant": f.num_relevant(),
        }
        problems += checks.check_measures(f.n, f.table, api)
        if workload == "verify-small" and not checks.ref_monotone(f.n, f.table):
            problems.append(f"corpus function 0x{f.table:x} is not monotone")
    return result


def lp_round(seed: int, tracer: Tracer) -> dict:
    from bfc import lp_bs_cap, moment_lp, simplex_feasible

    ready()
    result = {"ops": len(W.LP_DEGREES), "failed": 0, "problems": [], "lps": 0}
    scans = {}
    with tracer.timed():
        for d in W.LP_DEGREES:
            try:
                with tracer.span(f"lp.lp_bs_cap.d{d}"):
                    scans[d] = lp_bs_cap(d)
            except Exception:  # a fault in the program: count the call as failed
                traceback.print_exc()
                result["failed"] += 1
                continue
            result["lps"] += checks.lps_in_scan(d)
    result["wall"], result["raw_wall"] = tracer.wall, tracer.raw_wall

    problems = result["problems"]
    problems += checks.check_cap_row({d: s.cap for d, s in scans.items()})
    # the scan starts at b = max(2, d), so cap(1) = 1 has no LP to witness it
    witnessed = sorted(d for d, scan in scans.items() if scan.cap >= 2)
    rng = random.Random(seed)
    for d in sorted(rng.sample(witnessed, min(W.LP_WITNESS_DEGREES, len(witnessed)))):
        cap = scans[d].cap
        taus = [t for b, *feas in scans[d].profile if b == cap for t in (0, 1) if feas[t]]
        if not taus:
            problems.append(f"d={d}: no feasible endpoint recorded at the cap {cap}")
            continue
        res = simplex_feasible(moment_lp(d, cap, taus[0]))
        if not res.feasible:
            problems.append(f"d={d}: moment LP at the cap {cap} is infeasible")
        else:
            problems += checks.check_moment_witness(d, cap, taus[0], res.witness)
    return result


def cli_command(argv: list[str], tracer: Tracer) -> dict:
    import bfc.cli

    ready()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), tracer.timed():
        try:
            code = bfc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a fault in the program: report a failed command
            traceback.print_exc()
            code = 1
    return {
        "wall": tracer.wall,
        "raw_wall": tracer.raw_wall,
        "exit": code,
        "output": buf.getvalue(),
        "cache": cache_counts(),
    }


# ---------------------------------------------------------------------------
# probes: cold per-call spans around one public function
# ---------------------------------------------------------------------------

def probe_functions(workload: str, seed: int) -> list:
    from bfc import family, parse_corpus

    if workload == "cli-oneshot":
        return [family(name, k) for name, k in W.CLI_FAMILIES]
    functions = [f for _, f in parse_corpus(W.verify_corpus(workload, seed))]
    if workload == "verify-small":
        functions = random.Random(seed).sample(functions, W.PROBE_SAMPLE)
    return functions


def probe_calls(name: str, functions: list):
    """(callable, args) pairs for one probe, built before any timing."""
    import bfc

    kinds = (bfc.DEG_I, bfc.SENS_I, bfc.CERT_I, bfc.mix_ds(HALF), bfc.mix_cs(HALF))
    module, fn_name = name.split(".", 1)
    if module == "bounds":
        markov = bfc.cap_profile("markov")
        args = {
            "dp_degree": [(30, markov)],
            "dp_mixed_ds": [(HALF, 48, markov)],
            "dp_monotone_degree": [(30,)],
            "monotone_dt_table": [(20,)],
            "ds_influence_min": [(HALF,)],
            "cs_harmonic_bound": [(d,) for d in range(1, 31)],
        }[fn_name]
        return [(getattr(bfc, fn_name), a) for a in args]
    fn = getattr(bfc, fn_name)
    if fn_name in ("deg_i", "sens_i", "cert_i"):
        return [(fn, (f, i)) for f in functions for i in range(1, f.n + 1)]
    if fn_name == "check_rrcm":
        return [(fn, (f, i, k)) for f in functions for k in kinds for i in range(1, f.n + 1)]
    if fn_name == "potential":
        return [(fn, (f, k)) for f in functions for k in kinds]
    if fn_name == "approx_degree":
        return [(fn, (f, Fraction(1, 3))) for f in functions]
    return [(fn, (f,)) for f in functions]


def probe(workload: str, seed: int, name: str) -> dict:
    """Scaled seconds spent in one public function, summed over its calls."""
    from bfc import parse_corpus

    clock = HostClock()
    if name == "corpus.iterate":
        spec = (
            "named:" + ",".join(n if k is None else f"{n}:{k}" for n, k in W.CLI_FAMILIES)
            if workload == "cli-oneshot"
            else W.verify_corpus(workload, seed)
        )
        corpus = parse_corpus(spec)
        ready()
        clock.start()
        count = sum(1 for _ in corpus)
        return {"seconds": clock.stop(), "calls": count}
    calls = probe_calls(name, probe_functions(workload, seed))
    ready()
    total = 0.0
    clock.start()
    for fn, args in calls:
        t0 = clock.now()
        fn(*args)
        total += clock.now() - t0
    clock.stop()
    return {"seconds": total, "calls": len(calls)}


# ---------------------------------------------------------------------------

def main() -> int:
    task = json.loads(sys.argv[1])
    kind, workload, seed = task["task"], task.get("workload"), task.get("seed", 0)
    if kind == "probe":
        result = probe(workload, seed, task["name"])
    else:
        tracer = Tracer(task.get("profile", False))
        if kind == "cli":
            result = cli_command(task["argv"], tracer)
        elif workload == "lp-caps":
            result = lp_round(seed, tracer)
        else:
            result = verify_round(workload, seed, tracer)
        check_codes = _suite_check_codes() if tracer.profiler else ()
        scale = tracer.wall / tracer.raw_wall if tracer.raw_wall else 1.0
        result["profile"] = grouped_profile(tracer.profiler, scale, check_codes)
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
