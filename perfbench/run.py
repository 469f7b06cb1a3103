"""Benchmark for bfc: theorem-suite sweeps, the LP cap scan and the one-shot CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 10 --trace 0

Each timed round runs in a fresh interpreter (``worker.py`` or
``python -m bfc.cli``), so memo tables start empty every time.  Rounds
repeat until ``--seconds`` have passed; a round is never cut, so a run
always holds whole rounds.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` one untraced and one profiled round, cold per-call probes and
the per-layer metrics.  Every time is scaled to a reference host speed
(``hostclock.py``).  The last line of standard output is one JSON object;
raw results and traces go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads as W
from hostclock import ProcessScale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0  # a run must end within 180 s


@dataclass
class Child:
    ready_s: float | None
    wall_s: float
    stdout: str
    exit_code: int
    peak_rss_mb: float

    def result(self) -> dict | None:
        lines = self.stdout.strip().splitlines()
        if self.exit_code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.scale = ProcessScale(sys.executable, self._reference_wall)

    def _reference_wall(self, argv: list[str]) -> float:
        child = self.child(argv, False)
        if child.exit_code != 0:
            raise RuntimeError("the reference process failed")
        return child.wall_s

    def child(self, argv: list[str], want_ready: bool) -> Child:
        """Run one process to its end; its peak RSS comes from wait4."""
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            ready = None
            if want_ready:
                line = proc.stdout.readline()
                ready = perf_counter() - t0 if line.strip() == "ready" else None
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(ready, wall, out, proc.returncode, usage.ru_maxrss / 1024)

    def task(self, **task) -> Child:
        task.setdefault("workload", self.workload)
        task.setdefault("seed", self.seed)
        return self.child([sys.executable, str(WORKER), json.dumps(task)], True)

    def timed_child(self, argv: list[str], want_ready: bool) -> tuple[Child, float]:
        """A child process, and the factor that scales its times
        (``hostclock.ProcessScale``)."""
        factor = self.scale.next_factor()
        return self.child(argv, want_ready), factor

    # -- rounds ---------------------------------------------------------------

    def round(self, profile: bool) -> dict:
        """One round: wall, ops, failed, problems, peak RSS, spans, profile."""
        if self.workload == "cli-oneshot":
            return self.cli_round(profile)
        child = self.task(task="round", profile=profile)
        res = child.result()
        if res is None or "wall" not in res:
            ops = W.round_ops(self.workload)
            return {"ops": ops, "failed": ops, "problems": [], "rss": child.peak_rss_mb}
        res["rss"] = child.peak_rss_mb
        res["span_s"] = span_totals(res.get("spans", []))
        if self.workload == "lp-caps":
            res["fps"] = res["lps"] / res["wall"]
        else:
            res["fps"] = (res["ops"] - res["failed"]) / res["wall"]
        return res

    def cli_round(self, profile: bool) -> dict:
        outputs, span_s, modules, functions, check_s = {}, {}, {}, {}, {}
        res = {"ops": len(W.CLI_COMMANDS), "failed": 0, "problems": [], "rss": 0.0, "raw_wall": 0.0}
        cache = {"measures": [0, 0], "coordinate": [0, 0]}
        for name, command in W.CLI_COMMANDS.items():
            argv = command.split()
            if profile:
                task = {"task": "cli", "argv": argv, "profile": True}
                child, scale = self.timed_child(
                    [sys.executable, str(WORKER), json.dumps(task)], True
                )
                got = child.result()
                code = got["exit"] if got else 1
            else:
                child, scale = self.timed_child([sys.executable, "-m", "bfc.cli", *argv], False)
                got, code = None, child.exit_code
            span_s[f"cli.command.{name}"] = child.wall_s * scale
            res["raw_wall"] += child.wall_s
            res["rss"] = max(res["rss"], child.peak_rss_mb)
            if code != 0:
                res["failed"] += 1
                continue
            outputs[name] = got["output"] if got else child.stdout
            if got:
                for layer, (hits, attempts) in got["cache"].items():
                    cache[layer][0] += hits
                    cache[layer][1] += attempts
                prof = got["profile"]
                for mod, tt in prof["modules"].items():
                    modules[mod] = modules.get(mod, 0.0) + tt
                for key, (nc, tt, ct) in prof["functions"].items():
                    old = functions.get(key, [0, 0.0, 0.0])
                    functions[key] = [old[0] + nc, old[1] + tt, old[2] + ct]
                for check_id, ct in prof["check_s"].items():
                    check_s[check_id] = check_s.get(check_id, 0.0) + ct
        res["problems"] = checks.check_cli_outputs(outputs)
        res["wall"] = sum(span_s.values())
        res["span_s"] = span_s
        # the verify command alone (about 0.2 s, mostly interpreter start) is
        # too short to time steadily, so its functions count per round second
        res["fps"] = W.CLI_VERIFY_FUNCTIONS / res["wall"]
        res["cache"] = cache
        res["profile"] = {"modules": modules, "functions": functions, "check_s": check_s}
        return res

    def setup_s(self) -> float:
        """Median scaled time from starting an interpreter until bfc is imported
        and the inputs are built; the interpreter loads nothing of the benchmark."""
        if self.workload == "cli-oneshot":
            code = "import bfc.cli"
        elif self.workload == "lp-caps":
            code = "import bfc"
        else:
            code = f"import bfc; bfc.parse_corpus({W.verify_corpus(self.workload, self.seed)!r})"
        argv = [sys.executable, "-c", code + "; print('ready', flush=True)"]
        samples = []
        for _ in range(SETUP_SAMPLES):
            child, scale = self.timed_child(argv, True)
            if child.ready_s is None or child.exit_code != 0:
                raise RuntimeError("set-up failed: bfc could not be imported")
            samples.append(child.ready_s * scale)
        return statistics.median(samples)

    def probe(self, name: str) -> float:
        if name == "cli.import":
            code = "import time; t = time.perf_counter(); import bfc.cli; print(time.perf_counter() - t)"
            child, scale = self.timed_child([sys.executable, "-c", code], False)
            if child.exit_code != 0:
                raise RuntimeError("probe cli.import failed")
            return float(child.stdout) * scale
        res = self.task(task="probe", name=name).result()
        if res is None:
            raise RuntimeError(f"probe {name} failed")
        return res["seconds"]


def span_totals(spans: list[dict]) -> dict:
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def fn_stat(profile: dict, module: str, name: str) -> tuple[int, float, float]:
    """Summed (calls, self s, cumulative s) of functions called ``name`` in ``module``."""
    calls, tottime, cumtime = 0, 0.0, 0.0
    for key, (nc, tt, ct) in profile.get("functions", {}).items():
        mod, fn, _ = key.split(":")
        if mod == module and fn == name:
            calls, tottime, cumtime = calls + nc, tottime + tt, cumtime + ct
    return calls, tottime, cumtime


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list[dict]]:
    setup = runner.setup_s()
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(runner.round(profile=False))
        elapsed = perf_counter() - start
        last = rounds[-1].get("raw_wall", 0.0)
        if elapsed >= seconds or time.monotonic() + 1.5 * last > runner.deadline:
            break
    timed = [r for r in rounds if "wall" in r]
    if not timed:
        raise RuntimeError("every round failed")
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(r["wall"] for r in timed), "s"),
        "functions_per_s": (statistics.median(r["fps"] for r in timed), "1/s"),
        "peak_rss_mb": (max(r["rss"] for r in rounds), "MB"),
    }
    return metrics, rounds


def per_layer(runner: Runner) -> tuple[dict, list[dict], dict]:
    plain = runner.round(profile=False)
    traced = runner.round(profile=True)
    probes = {name: runner.probe(name) for name in W.probes_for(runner.workload)}
    prof = traced.get("profile", {})
    modules = prof.get("modules", {})
    spans = plain.get("span_s", {})
    m: dict[str, tuple[float, str]] = {}

    m["trace.untraced_wall_s"] = (plain.get("wall", 0.0), "s")
    m["trace.traced_wall_s"] = (traced.get("wall", 0.0), "s")
    m["trace.overhead_s"] = (traced.get("wall", 0.0) - plain.get("wall", 0.0), "s")

    m["verify.suite_s"] = (spans.get("verify.run_theorem_suite", 0.0), "s")
    for layer in ("verify", "fractions", "mpmath", "measures", "coordinate", "lp", "bounds", "bf"):
        m[f"{layer}.self_s"] = (modules.get(layer, 0.0), "s")
    for check_id in checks.SUITE_CHECK_IDS:
        m[f"verify.check_s.{check_id}"] = (prof.get("check_s", {}).get(check_id, 0.0), "s")

    for name in W.MEASURE_PROBES + ("measures.approx_degree",) + W.COORDINATE_PROBES + W.BOUNDS_PROBES:
        m[f"{name}_s"] = (probes.get(name, 0.0), "s")
    for layer in ("measures", "coordinate"):
        hits, attempts = traced.get("cache", {}).get(layer, [0, 0])
        m[f"{layer}.cache_hits"] = (hits, "count")
        m[f"{layer}.cache_attempts"] = (attempts, "count")
        m[f"{layer}.cache_hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio")

    for d in W.LP_DEGREES:
        m[f"lp.cap_s.d{d}"] = (spans.get(f"lp.lp_bs_cap.d{d}", 0.0), "s")
    m["lp.solves"] = (fn_stat(prof, "lp", "_solve")[0], "count")
    m["lp.phase1_rounds"] = (fn_stat(prof, "lp", "_phase1")[0], "count")
    int_rows = fn_stat(prof, "lp", "_int_rows")
    m["lp.int_rows_calls"] = (int_rows[0], "count")
    m["lp.int_rows_s"] = (int_rows[2], "s")

    m["corpus.iterate_s"] = (probes.get("corpus.iterate", 0.0), "s")
    m["cli.import_s"] = (probes.get("cli.import", 0.0), "s")
    for name in W.CLI_COMMANDS:
        m[f"cli.command_s.{name}"] = (spans.get(f"cli.command.{name}", 0.0), "s")
    return m, [plain, traced], probes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # one CPU for this process and every child, so that the host-speed
    # calibrations run on the CPU that does the work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "bfc" / "__init__.py").is_file():
        print(f"no bfc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the build: byte-compile the package once, outside every timing
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "bfc")],
        stdout=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("byte-compiling src/bfc failed", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, rounds, probes = per_layer(runner)
        else:
            metrics, rounds = end_to_end(runner, args.seconds)
            probes = None
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    if failed == attempted:
        print("every operation failed", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {"args": vars(args), "rounds": rounds, "problems": problems}
    if probes is not None:
        raw["probes"] = probes
    (OUT / f"{tag}.json").write_text(json.dumps(raw, indent=1))

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
