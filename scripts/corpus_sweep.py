#!/usr/bin/env python3
"""Time the theorem suite over a corpus and print per-check rows.

Usage: python scripts/corpus_sweep.py [corpus ...]
  Default corpora: all:3, monotone:4, named:KUSHILEVITZ,MAJ:3,MAF:3.
  The exhaustive four-variable sweep (all:4) takes 1.3-2.0 s of suite time
  (six runs) on a 2-core x86-64 host: the suite runs once per orbit under
  coordinate permutations, 3984 times (see the README).
"""

import os
import sys
import time

from bfc.corpus import parse_corpus
from bfc.verify import run_theorem_suite, suite_failures


def sweep(specs: list[str]) -> int:
    worst = 0
    for spec in specs:
        corpus = parse_corpus(spec)
        t0 = time.perf_counter()
        checks = run_theorem_suite(corpus)
        dt = time.perf_counter() - t0
        bad = suite_failures(checks)
        worst = max(worst, bad)
        print(f"== {corpus.describe()}  ({len(corpus)} functions, {dt:.1f}s, "
              f"{bad} failing checks) ==")
        for c in checks:
            print("  " + c.row())
    return 1 if worst else 0


def main() -> int:
    """A reader that closes stdout early (``| head``) ends the sweep quietly
    with the shell's SIGPIPE status, 141, as the bfc command does."""
    specs = sys.argv[1:] or ["all:3", "monotone:4", "named:KUSHILEVITZ,MAJ:3,MAF:3"]
    try:
        code = sweep(specs)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
