#!/usr/bin/env python3
"""Write the outputs that must stay byte-identical across a refactor, one
file each, so two checkouts can be compared with `diff -r`.

- analyze/: `bruhatdual analyze` stdout for all of S_5, 34521 and 154973268;
- export/: `bruhatdual export` interval and level-graph JSON/DOT for 34521,
  and the same documents for the B_3 counterexample (the CLI parses only
  permutations, so those come from the serializers it uses);
- reports/: verify_main(6) in full and constructive-only mode,
  verify_topheavy(6) and verify_counterexamples(), without `wall_time`;
- certify/: one file per group, S_1..S_6 and B_3, with the search
  certificate of every element (kind, refinement trace, pairing as sorted
  one-line pairs) and, for the six-pattern avoiders of S_n, the hinted one.

The package is imported from the environment, so point PYTHONPATH at the
checkout to snapshot:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py /tmp/snap-new
    PYTHONPATH=/path/to/other/src python3 scripts/snapshot_outputs.py /tmp/snap-old
    diff -r /tmp/snap-old /tmp/snap-new
"""

import argparse
import itertools
import json
import pathlib
import sys

from click.testing import CliRunner

import bruhatdual
from bruhatdual.cli import main as cli
from bruhatdual.duality import certify_self_dual, gamma_lower, gamma_upper
from bruhatdual.harness import verify_counterexamples, verify_main, verify_topheavy
from bruhatdual.intervals import build_interval
from bruhatdual.permutations import Permutation
from bruhatdual.polished import avoids_selfdual_patterns, polished_decompose
from bruhatdual.serialize import (
    interval_to_dict,
    interval_to_dot,
    level_graph_to_dict,
    level_graph_to_dot,
)
from bruhatdual.signed import CoxeterPresentation, evaluate_word, group_elements

B3_COUNTEREXAMPLE_WORD = (3, 2, 3, 1, 2, 3, 1, 2)
EXTRA_ANALYZED = ("34521", "154973268")


def cli_stdout(args: list[str]) -> str:
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    if result.exit_code != 0:
        raise SystemExit(f"bruhatdual {' '.join(args)} exited {result.exit_code}")
    return result.stdout


def certificate_doc(cert) -> dict:
    pairing = None
    if cert.pairing is not None:
        pairing = sorted(f"{x.one_line()} {y.one_line()}" for x, y in cert.pairing.items())
    return {"kind": cert.kind, "trace": cert.refinement_trace, "pairing": pairing}


def certify_docs(elements) -> list[dict]:
    docs = []
    for w in elements:
        interval = build_interval(w)
        doc = {"w": w.one_line(), "search": certificate_doc(certify_self_dual(interval))}
        if isinstance(w, Permutation) and avoids_selfdual_patterns(w):
            doc["hinted"] = certificate_doc(certify_self_dual(interval, polished_decompose(w)))
        docs.append(doc)
    return docs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    outdir = pathlib.Path(ap.parse_args().outdir)
    for sub in ("analyze", "export", "reports", "certify"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    print(f"snapshotting {pathlib.Path(bruhatdual.__file__).parent}", file=sys.stderr)

    s5 = ["".join(map(str, im)) for im in itertools.permutations(range(1, 6))]
    for text in s5 + list(EXTRA_ANALYZED):
        (outdir / "analyze" / f"{text}.json").write_text(cli_stdout(["analyze", text]))

    for what in ("interval", "gamma-lower", "gamma-upper"):
        for fmt in ("json", "dot"):
            out = cli_stdout(["export", "34521", what, "--format", fmt])
            (outdir / "export" / f"34521-{what}.{fmt}").write_text(out)

    b3, _ = evaluate_word(B3_COUNTEREXAMPLE_WORD, CoxeterPresentation("B", 3))
    interval = build_interval(b3)
    docs = {
        "interval.json": json.dumps(interval_to_dict(interval), indent=2),
        "interval.dot": interval_to_dot(interval),
    }
    for what, graph in (("gamma-lower", gamma_lower(interval)), ("gamma-upper", gamma_upper(interval))):
        docs[f"{what}.json"] = json.dumps(level_graph_to_dict(graph, b3), indent=2)
        docs[f"{what}.dot"] = level_graph_to_dot(graph, b3)
    for name, text in docs.items():
        (outdir / "export" / f"b3-counterexample-{name}").write_text(text)

    groups = {
        f"S{n}": [Permutation(im) for im in itertools.permutations(range(1, n + 1))]
        for n in range(1, 7)
    }
    groups["B3"] = sorted(group_elements(CoxeterPresentation("B", 3)), key=lambda x: x.images)
    for name, elements in groups.items():
        text = json.dumps(certify_docs(elements), indent=1)
        (outdir / "certify" / f"{name}.json").write_text(text + "\n")

    runs = [
        ("main_n6_full", lambda: verify_main(6, sd4_mode="full")),
        ("main_n6_constructive", lambda: verify_main(6, sd4_mode="constructive-only")),
        ("topheavy_n6", lambda: verify_topheavy(6)),
        ("counterexamples", verify_counterexamples),
    ]
    for name, run in runs:
        report = run().to_dict()
        del report["wall_time"]
        (outdir / "reports" / f"{name}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
