#!/usr/bin/env python3
"""Run every verification sweep at desk scale and write the JSON reports.

The self-duality equivalence runs through S_6 in full mode and through S_7
in constructive-only and in full mode; the top-heaviness sweep (ranks of
every interval, cover degrees of the smooth ones) runs through S_6 and
through S_7; the type-B counterexample gate always runs.  Reports land in
reports/ (or the directory given as the first argument).

With --jobs 2 on a 2-vCPU host (Python 3.11) the whole run took 3.2-3.6 s
(two runs): main_n7_full 1.3 s, main_n7_constructive 1.1-1.4 s, topheavy_n7
0.4 s (5,912 elements), the rest 0.3 s or less each.

Usage:  python3 scripts/run_full_verification.py [outdir] [--jobs N]
"""

import argparse
import json
import pathlib
import sys

from bruhatdual.harness import verify_counterexamples, verify_main, verify_topheavy


def job_count(text: str) -> int:
    """argparse type for --jobs: an integer of at least 1."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="reports")
    ap.add_argument("--jobs", type=job_count, default=1)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    runs = [
        ("main_n6_full", lambda: verify_main(6, sd4_mode="full", jobs=args.jobs)),
        ("main_n7_constructive", lambda: verify_main(7, sd4_mode="constructive-only", jobs=args.jobs)),
        ("main_n7_full", lambda: verify_main(7, sd4_mode="full", jobs=args.jobs)),
        ("topheavy_n6", lambda: verify_topheavy(6, jobs=args.jobs)),
        ("topheavy_n7", lambda: verify_topheavy(7, jobs=args.jobs)),
        ("counterexamples", verify_counterexamples),
    ]
    failures = 0
    for name, run in runs:
        rep = run()
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(rep.to_dict(), indent=2))
        status = "ok" if rep.ok else f"{len(rep.violations)} VIOLATIONS"
        print(f"{name}: checked {rep.checked}, {status}, {rep.wall_time:.1f}s -> {path}")
        if not rep.ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
