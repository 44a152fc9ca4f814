"""One round of the `analyze-s8` stream, in a fresh interpreter.

Reads a JSON list of one-line tuples on standard input, answers one trivial
input so that lazy set-up is done before timing, then calls
`harness.analyze` on each element in the given order, one call at a time.
Prints one JSON object: the wall time of each call and its verdict fields
(or the error it raised).

`bench/run.py` starts it with `src/` on PYTHONPATH; by hand:

    echo '[[2,1,3]]' | PYTHONPATH=src python3 bench/stream_worker.py
"""

from __future__ import annotations

import json
import sys
import time

from bruhatdual.harness import analyze
from bruhatdual.permutations import Permutation

VERDICTS = ("smooth", "six_avoiding", "polished", "self_dual", "gamma_isomorphic")


def main() -> None:
    elements = [tuple(w) for w in json.load(sys.stdin)]
    analyze(Permutation((2, 1)))
    latencies, verdicts = [], []
    for w in elements:
        perm = Permutation(w)
        start = time.perf_counter()
        try:
            out = analyze(perm)
        except Exception as exc:
            out = {"error": repr(exc)}
        latencies.append(time.perf_counter() - start)
        verdicts.append(out if "error" in out else {k: out.get(k) for k in VERDICTS})
    json.dump({"latencies": latencies, "verdicts": verdicts}, sys.stdout)


if __name__ == "__main__":
    main()
