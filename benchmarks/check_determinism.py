"""Verify benchmark outputs are deterministic.

Every file under ``benchmarks/out/`` is a simulated, seeded measurement
and must be byte-identical run to run -- with two exceptions: the
``synth ms/route`` column of ``scaling.txt`` is wall-clock
(``time.perf_counter``) and legitimately varies, and the rows of
``live_chaos.txt`` and ``version_skew.txt`` measured on the live
(asyncio/UDP) substrate ride real scheduling, so every line carrying a
standalone ``live`` token is dropped before comparison (the simulator rows -- availability, outage
tails, digests -- remain byte-checked).  This script compares the
working-tree outputs against a git reference (default ``HEAD``) under
those masks and exits non-zero on any other difference.

Usage (after regenerating the outputs with the table gate)::

    PYTHONPATH=src python -m pytest benchmarks/test_tables.py -q
    python benchmarks/check_determinism.py [--baseline-ref HEAD]

Every table the experiment registry names must be present.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: file name -> header of the wall-clock column to mask.
WALL_CLOCK_COLUMNS = {"scaling.txt": "synth ms/route"}

#: Files mixing deterministic simulator rows with live-substrate rows.
#: Lines carrying a standalone ``live`` token (the substrate column, the
#: sim-vs-live fidelity footer) are wall-clock measurements and are
#: dropped before comparison; everything else stays byte-checked.
LIVE_ROW_FILES = {"live_chaos.txt", "version_skew.txt"}
_LIVE_TOKEN = re.compile(r"\blive\b")


def required_outputs() -> set:
    """One table per registry entry: a missing one means the gate ran
    partially (or an entry silently stopped writing) and the determinism
    verdict would be vacuous for it."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.harness import EXPERIMENTS

    return {exp.table_file for exp in EXPERIMENTS.values()}


def drop_live_rows(name: str, text: str) -> str:
    """Drop live-substrate lines from files that mix both regimes."""
    if name not in LIVE_ROW_FILES:
        return text
    return "\n".join(
        line for line in text.splitlines() if not _LIVE_TOKEN.search(line)
    )


def mask_wall_clock(name: str, text: str) -> str:
    """Truncate lines at the wall-clock column, if the file has one."""
    column = WALL_CLOCK_COLUMNS.get(name)
    if column is None:
        return text
    lines = text.splitlines()
    offset = None
    for line in lines:
        if column in line:
            offset = line.index(column)
            break
    if offset is None:
        return text
    return "\n".join(line[:offset].rstrip() for line in lines)


def baseline_text(ref: str, name: str) -> str | None:
    proc = subprocess.run(
        ["git", "show", f"{ref}:benchmarks/out/{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return proc.stdout if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref holding the reference outputs (default: HEAD)",
    )
    args = parser.parse_args(argv)

    resolves = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{args.baseline_ref}^{{commit}}"],
        cwd=REPO_ROOT,
        capture_output=True,
    )
    if resolves.returncode != 0:
        print(f"baseline ref {args.baseline_ref!r} does not resolve to a commit")
        return 2

    names = sorted(f for f in os.listdir(OUT_DIR) if f.endswith(".txt"))
    if not names:
        print("no benchmark outputs found; run the table gate first")
        return 2
    missing = sorted(required_outputs() - set(names))
    if missing:
        print(f"missing expected benchmark outputs: {', '.join(missing)}")
        print("run the full table gate before checking determinism")
        return 2

    failures = []
    for name in names:
        with open(os.path.join(OUT_DIR, name)) as fh:
            current = fh.read()
        reference = baseline_text(args.baseline_ref, name)
        if reference is None:
            print(f"  NEW  {name} (not in {args.baseline_ref}; skipped)")
            continue
        current = mask_wall_clock(name, drop_live_rows(name, current))
        reference = mask_wall_clock(name, drop_live_rows(name, reference))
        if current == reference:
            print(f"  ok   {name}")
        else:
            print(f"  DIFF {name}")
            failures.append(name)

    if failures:
        print(
            f"\n{len(failures)} file(s) drifted from {args.baseline_ref} "
            f"outside wall-clock columns: {', '.join(failures)}"
        )
        print("Benchmark outputs must be deterministic; investigate before "
              "committing.")
        return 1
    print(f"\nall {len(names)} benchmark outputs deterministic "
          f"(vs {args.baseline_ref})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
