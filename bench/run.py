#!/usr/bin/env python3
"""bruhatdual benchmark: one closed-loop caller per workload, every output
checked against independent values, one JSON result line at the end.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-s8 --seed 1 --seconds 10 --trace 0

Workloads:
  sweep-s6-full  verify_main(6, sd4_mode="full", jobs=2, force_full=True)
  analyze-s8     a seeded batch of 210 S_8 elements, one harness.analyze call
                 at a time, in a fresh interpreter per round

Each workload repeats whole units (one sweep, or one round over the batch)
until --seconds have passed, `analyze-s8` at least MIN_ROUNDS times.  The
host's speed drifts by up to half over tens of seconds, so every time is a
mean or median over the whole run, not a single pass.  --trace 0 prints the
end-to-end metrics; --trace 1 adds a serial traced replay of the same
elements and prints the per-layer metrics.  Run records and spans go to .bench_out/.  The exit code
is 0 only when every correctness gate passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

JOBS = 2
PER_STRATUM = 70  # a batch of 210 puts 10 samples beyond its p95
MIN_ROUNDS = 2
SETUP_REPEATS = 11

SWEEPS = {
    "sweep-s6-full": (6, "full"),
}
WORKLOADS = (*SWEEPS, "analyze-s8")

# Fresh-interpreter set-up: import the package, answer one trivial input.
SETUP_CODE = {
    "sweep": (
        "import bruhatdual\n"
        "from bruhatdual.harness import verify_main\n"
        "print(verify_main(1, sd4_mode={mode!r}).checked)\n",
        "1",
    ),
    "analyze": (
        "import bruhatdual\n"
        "from bruhatdual.harness import analyze\n"
        "from bruhatdual.permutations import Permutation\n"
        "print(analyze(Permutation((2, 1)))['self_dual'])\n",
        "True",
    ),
}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the sample's range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest worker."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(code: str, expected: str) -> float:
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.strip() != expected:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


# -- workloads -----------------------------------------------------------------


def run_sweeps(n_max: int, mode: str, seconds: float) -> dict:
    """Sweeps until `seconds` have passed; each checked against the census."""
    from bruhatdual.harness import verify_main

    expected = oracle.expected_tallies(n_max)
    size = sum(math.factorial(n) for n in range(1, n_max + 1))
    walls, reports, problems = [], [], []
    attempted = failed = 0
    cpu0, begin = cpu_seconds(), time.perf_counter()
    while True:
        start = time.perf_counter()
        try:
            rep = verify_main(n_max, sd4_mode=mode, jobs=JOBS, force_full=mode == "full")
        except Exception:  # a sweep that raises counts all its elements as failed
            traceback.print_exc()
            attempted += size
            failed += size
            problems.append("sweep raised")
            break
        wall = time.perf_counter() - start
        walls.append(wall)
        reports.append(rep)
        attempted += size
        wrong = len(rep.violations) + abs(rep.checked - size)
        for n, tally in expected.items():
            got = rep.tallies.get(n, {})
            wrong += max(abs(got.get(k, 0) - v) for k, v in tally.items())
        if wrong:
            problems.append(f"sweep {len(reports)}: checked {rep.checked}, "
                            f"{len(rep.violations)} violations, tallies {rep.tallies}")
        failed += min(wrong, size)
        if time.perf_counter() - begin >= seconds:
            break
    return {
        "walls": walls, "reports": reports, "cpu": cpu_seconds() - cpu0,
        "attempted": attempted, "failed": failed, "problems": problems,
        "inputs": {"kind": "exhaustive", "elements": size, "sweeps": len(reports)},
    }


VERDICTS = ("smooth", "six_avoiding", "polished", "self_dual", "gamma_isomorphic")


def expected_verdicts(stratum: str) -> dict[str, bool]:
    six = stratum == oracle.SIX_AVOIDING
    return {"smooth": stratum != oracle.SINGULAR, "six_avoiding": six,
            "polished": six, "self_dual": six, "gamma_isomorphic": six}


def analyze_round(elements: list[tuple[int, ...]]) -> dict:
    """One pass over the batch in a fresh interpreter, so that no round
    reuses work an earlier round cached."""
    proc = subprocess.run([sys.executable, str(BENCH / "stream_worker.py")],
                          input=json.dumps(elements), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"stream worker failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def run_analyze(seed: int, seconds: float) -> dict:
    """Rounds over one seeded batch of S_8 elements, in the same order each
    time, until `seconds` have passed and MIN_ROUNDS are done.  Each
    element's latency is its mean over the rounds."""
    batch = oracle.StreamSampler(seed, PER_STRATUM).next_batch()
    elements = [w for w, _ in batch]
    expected = [expected_verdicts(stratum) for _, stratum in batch]
    rounds, problems = [], []
    failed = 0
    cpu0, begin = cpu_seconds(), time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - begin < seconds:
        try:
            out = analyze_round(elements)
        except Exception:  # a round that dies counts all its elements as failed
            traceback.print_exc()
            failed += len(elements)
            problems.append("stream worker failed")
            rounds.append(None)
            break
        rounds.append(out)
        for (w, stratum), got, want in zip(batch, out["verdicts"], expected):
            if got != want:
                failed += 1
                problems.append(f"{''.join(map(str, w))} ({stratum}): {got}")
    wall = time.perf_counter() - begin
    done = [r for r in rounds if r is not None]
    latencies = [statistics.fmean(ts) for ts in zip(*(r["latencies"] for r in done))]
    strata = {name: sum(1 for _, s in batch if s == name) for name in oracle.STRATA}
    return {
        "latencies": latencies, "stream": batch,
        "verdicts": done[0]["verdicts"] if done else [],
        "cpu": cpu_seconds() - cpu0, "wall": wall,
        "attempted": len(elements) * len(rounds), "failed": failed,
        "problems": problems,
        "inputs": {"kind": "seeded", "digest": oracle.digest(elements),
                   "strata": strata, "rounds": len(done),
                   "round_s": [round(sum(r["latencies"]), 3) for r in done]},
    }


# -- traced pass -----------------------------------------------------------------


def trace_sweep(run: dict, n_max: int, mode: str):
    import tracing  # imports the package, so only after main() put src/ on the path
    from bruhatdual.harness import verify_main

    # The untraced sweep ran in parallel, so the tracing overhead is measured
    # against a serial sweep, timed right before the replay.
    start = time.perf_counter()
    verify_main(n_max, sd4_mode=mode, force_full=mode == "full")
    serial = time.perf_counter() - start

    tr = tracing.Tracer()
    start = time.perf_counter()
    replay = tracing.replay_sweep(tr, n_max, mode)
    wall = time.perf_counter() - start
    problems = []
    if run["reports"] and replay["tallies"] != run["reports"][0].tallies:
        problems.append(f"traced tallies {replay['tallies']} differ from the untraced "
                        f"{run['reports'][0].tallies}")
    if replay["disagreements"]:
        problems.append(f"traced replay disagreements: {replay['disagreements'][:5]}")
    chunks = replay["chunk_s"]
    metrics = tracing.layer_metrics(tr, wall)
    metrics.update(chunk_metrics(chunks, JOBS))
    untraced_wall = sum(run["walls"])
    metrics["harness.parallel_efficiency"] = (run["cpu"] / (JOBS * untraced_wall), "ratio")
    metrics["trace.overhead_ratio"] = (wall / serial, "ratio")
    return metrics, problems, tr


def trace_stream(run: dict):
    import tracing
    from bruhatdual.permutations import Permutation

    tr = tracing.Tracer()
    problems = []
    start = time.perf_counter()
    for (w, _), untraced in zip(run["stream"], run["verdicts"]):
        perm = Permutation(w)
        tr.element = perm.one_line()
        with tr.span("harness.analyze"):
            try:
                got = tracing.traced_analyze(tr, perm)
            except Exception as exc:
                got = {"error": repr(exc)}
        if got != untraced:
            problems.append(f"{tr.element}: traced {got} vs untraced {untraced}")
    wall = time.perf_counter() - start
    metrics = tracing.layer_metrics(tr, wall)
    metrics.update(chunk_metrics({}, 1))
    metrics["harness.parallel_efficiency"] = (run["cpu"] / run["wall"], "ratio")
    metrics["trace.overhead_ratio"] = (wall / sum(run["latencies"]), "ratio")
    return metrics, problems, tr


def chunk_metrics(chunk_s: dict[int, float], jobs: int) -> dict:
    """Traced seconds per first-value chunk of the largest n (0 where the
    workload has no such chunk), and the largest chunk over the even share."""
    out = {f"harness.chunk_s.{v}": (chunk_s.get(v, 0.0), "s") for v in range(1, 7)}
    imbalance = max(chunk_s.values()) / (sum(chunk_s.values()) / jobs) if chunk_s else 1.0
    out["harness.chunk_imbalance"] = (imbalance, "ratio")
    return out


# -- main --------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "bruhatdual" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'bruhatdual'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bruhatdual
    from bruhatdual.harness import verify_counterexamples

    if Path(bruhatdual.__file__).resolve().parent != SRC / "bruhatdual":
        print(f"bench: imported bruhatdual from {bruhatdual.__file__}", file=sys.stderr)
        return 2

    gates = {"counterexamples": verify_counterexamples().ok}

    if args.workload in SWEEPS:
        n_max, mode = SWEEPS[args.workload]
        run = run_sweeps(n_max, mode, args.seconds)
        gates["census"] = run["failed"] == 0
    else:
        run = run_analyze(args.seed, args.seconds)
        gates["brute_force_verdicts"] = run["failed"] == 0
    problems = list(run["problems"])

    if args.trace:
        if args.workload in SWEEPS:
            metrics, trace_problems, tr = trace_sweep(run, n_max, mode)
        else:
            metrics, trace_problems, tr = trace_stream(run)
        gates["trace_matches_untraced"] = not trace_problems
        problems += trace_problems
    else:
        if args.workload in SWEEPS:
            # A run holds about fifteen sweeps, too few for any percentile above
            # the median to have ten samples beyond it, so p95 repeats p50.
            checked = sum(rep.checked for rep in run["reports"])
            elements_per_s = checked / sum(run["walls"]) if run["walls"] else 0.0
            times_ms = [1000 * statistics.median(run["walls"])] if run["walls"] else [0.0]
            code, expected = SETUP_CODE["sweep"]
            code = code.format(mode=mode)
        else:
            latencies = run["latencies"]
            elements_per_s = len(latencies) / sum(latencies) if latencies else 0.0
            times_ms = [1000 * t for t in latencies] or [0.0]
            code, expected = SETUP_CODE["analyze"]
        # peak_rss_mb is read before measure_setup starts its child interpreters
        metrics = {
            "elements_per_s": (elements_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(times_ms), "ms"),
            "latency_p95_ms": (quantile(times_ms, 95), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (measure_setup(code, expected), "s"),
        }

    correct = all(gates.values()) and not problems
    attempted, failed = run["attempted"], run["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "gates": gates, "problems": problems[:50], "inputs": run["inputs"],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "jobs": JOBS if args.workload in SWEEPS else 1},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tr.write(OUT / f"{stem}-spans.jsonl")

    for line in problems[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(run['inputs'])}")
    print(f"gates {json.dumps(gates)}  failed_ratio {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
