"""Command-line front end: per-element analysis, the theorem sweeps, the
type-B counterexample gate, and graph/interval/decomposition export.

Reports go to stdout as JSON; a one-line human summary goes to stderr.  Every
verification command exits 0 exactly when no violations were found.
"""

from __future__ import annotations

import json
import os
import sys

import click

from .duality import gamma_lower, gamma_upper
from .harness import analyze, verify_counterexamples, verify_main, verify_topheavy
from .intervals import build_interval
from .permutations import ParseError, Permutation, parse_permutation
from .polished import PatternWitnessError, polished_decompose
from .serialize import (
    decomposition_to_dict,
    interval_to_dict,
    interval_to_dot,
    level_graph_to_dict,
    level_graph_to_dot,
)


# [e, w0] of S_10 alone has 10! = 3,628,800 elements
MAX_INTERVAL_DEGREE = 9


def _parse(perm_text: str, builds_interval: bool) -> Permutation:
    """The permutation in PERM_TEXT; malformed text is a usage error.  A
    command that builds [e, w] takes degrees up to MAX_INTERVAL_DEGREE; a
    larger one is a usage error too."""
    try:
        w = parse_permutation(perm_text)
    except ParseError as exc:
        raise click.BadParameter(str(exc), param_hint="PERM_TEXT") from exc
    if builds_interval and w.n > MAX_INTERVAL_DEGREE:
        raise click.BadParameter(
            f"degree {w.n} is above {MAX_INTERVAL_DEGREE}, the largest for which [e, w] is built",
            param_hint="PERM_TEXT",
        )
    return w


def _check_output_dir(ctx: click.Context, param: click.Parameter, value: str | None) -> str | None:
    if value is not None:
        parent = os.path.dirname(value) or "."
        if not os.path.isdir(parent):
            raise click.BadParameter(f"directory {parent!r} does not exist.", ctx, param)
    return value


# checked while the arguments are parsed, so a bad path fails before any work
_output_option = click.option(
    "--output",
    type=click.Path(dir_okay=False),
    default=None,
    callback=_check_output_dir,
    help="Write to this file instead of stdout.",
)


def _emit(payload: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(payload)
    else:
        click.echo(payload)


def _finish_report(report, output: str | None) -> None:
    payload = json.dumps(report.to_dict(), indent=2)
    _emit(payload, output)
    click.echo(
        f"{report.theorem}: checked {report.checked}, "
        f"{len(report.violations)} violations, {report.wall_time:.2f}s",
        err=True,
    )
    if report.violations:
        sys.exit(1)


@click.group()
def main() -> None:
    """Bruhat-interval self-duality toolkit."""


@main.command("analyze")
@click.argument("perm_text")
@_output_option
def cmd_analyze(perm_text: str, output: str | None) -> None:
    """Report length, rank profile, pattern predicates, decomposition or
    witness, level-graph isomorphism, and the self-duality certificate."""
    w = _parse(perm_text, builds_interval=True)
    report = analyze(w)
    _emit(json.dumps(report, indent=2), output)
    click.echo(
        f"{report['permutation']}: length {report['length']}, "
        f"smooth={report['smooth']}, polished={report['polished']}, "
        f"self-dual={report['self_dual']}",
        err=True,
    )


@main.command("verify-main")
@click.option("--n-max", type=click.IntRange(1, 8), default=5, show_default=True)
@click.option(
    "--sd4-mode",
    type=click.Choice(["full", "constructive-only"]),
    default="full",
    show_default=True,
    help="How to certify self-duality: independent search, or the explicit "
    "map when the decomposition exists (skipping refutation search).",
)
@click.option("--jobs", type=click.IntRange(min=1), default=1, envvar="BRUHAT_JOBS",
              show_default=True)
@_output_option
def cmd_verify_main(n_max: int, sd4_mode: str, jobs: int, output: str | None):
    """Check the four self-duality criteria agree on every w up to S_{n_max}."""
    report = verify_main(n_max, sd4_mode=sd4_mode, jobs=jobs)
    _finish_report(report, output)


@main.command("verify-topheavy")
@click.option("--n-max", type=click.IntRange(2, 8), default=5, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, envvar="BRUHAT_JOBS",
              show_default=True)
@_output_option
def cmd_verify_topheavy(n_max: int, jobs: int, output: str | None):
    """Check cover-degree top-heaviness (equality iff six-avoiding) on smooth
    elements, and rank top-heaviness on every interval."""
    report = verify_topheavy(n_max, jobs=jobs)
    _finish_report(report, output)


@main.command("counterexamples")
@_output_option
def cmd_counterexamples(output: str | None):
    """Verify the B_3 and B_2 counterexamples to the type-A equivalences."""
    report = verify_counterexamples()
    _finish_report(report, output)


@main.command("export")
@click.argument("perm_text")
@click.argument(
    "what", type=click.Choice(["gamma-lower", "gamma-upper", "interval", "decomposition"])
)
@click.option("--format", "fmt", type=click.Choice(["dot", "json"]), default="json",
              show_default=True)
@_output_option
def cmd_export(perm_text: str, what: str, fmt: str, output: str | None):
    """Emit a level graph, the whole interval, or the polished decomposition."""
    if what == "decomposition" and fmt == "dot":
        raise click.BadParameter("decompositions export as JSON only", param_hint="'--format'")
    w = _parse(perm_text, builds_interval=what != "decomposition")
    if what == "decomposition":
        try:
            decomp = polished_decompose(w)
        except PatternWitnessError as exc:
            raise click.ClickException(str(exc)) from exc
        _emit(json.dumps(decomposition_to_dict(decomp), indent=2), output)
        return

    interval = build_interval(w)
    if what == "interval":
        if fmt == "json":
            _emit(json.dumps(interval_to_dict(interval), indent=2), output)
        else:
            _emit(interval_to_dot(interval), output)
        return

    try:
        graph = gamma_lower(interval) if what == "gamma-lower" else gamma_upper(interval)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if fmt == "json":
        _emit(json.dumps(level_graph_to_dict(graph, w), indent=2), output)
    else:
        _emit(level_graph_to_dot(graph, w), output)


if __name__ == "__main__":
    main()
