import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from bruhatdual import harness
from bruhatdual.cli import main
from bruhatdual.duality import gamma_lower, gamma_upper
from bruhatdual.intervals import build_interval
from bruhatdual.permutations import parse_permutation
from bruhatdual.polished import polished_decompose
from bruhatdual.serialize import decomposition_to_dict, interval_to_dict, level_graph_to_dict
from bruhatdual.signed import CoxeterPresentation, evaluate_word


@pytest.fixture
def runner():
    return CliRunner()


class TestAnalyze:
    def test_34521(self, runner):
        result = runner.invoke(main, ["analyze", "34521"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["length"] == 7
        assert report["smooth"] is True
        assert report["six_avoiding"] is False
        assert report["gamma_isomorphic"] is False
        assert report["self_dual"] is False
        assert report["degree_extremes"] == [5, 6]
        assert report["pattern_witness"]["pattern"] == "34521"

    def test_4321(self, runner):
        result = runner.invoke(main, ["analyze", "4321"])
        report = json.loads(result.stdout)
        assert report["polished"] is True
        assert report["self_dual"] is True
        assert report["self_dual_certificate"] == "constructive-map"
        assert report["decomposition"] == {"blocks": [{"S": [1, 2, 3], "J": [1, 2, 3], "Jp": []}]}

    def test_identity(self, runner):
        result = runner.invoke(main, ["analyze", "12345"])
        report = json.loads(result.stdout)
        assert report["length"] == 0
        assert report["smooth"] and report["six_avoiding"] and report["polished"]
        assert report["self_dual"] is True
        assert report["degree_extremes"] is None

    def test_parse_error_exit_code(self, runner):
        # malformed PERM_TEXT is a usage error, like every other bad argument;
        # a superscript digit passes str.isdigit but int() rejects it
        for text in ("11", "", "1,,2", "12a", "1234567890", "\u00b21", "1,\u00b2"):
            result = runner.invoke(main, ["analyze", text])
            assert result.exit_code == 2, (text, result.output)
            assert "PERM_TEXT" in result.output


class TestVerifyCommands:
    def test_verify_main_small(self, runner):
        result = runner.invoke(main, ["verify-main", "--n-max", "4"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["violations"] == []
        assert report["checked"] == 1 + 2 + 6 + 24
        assert report["tallies"]["4"] == {"smooth": 22, "polished": 22, "self_dual": 22}

    def test_verify_main_constructive(self, runner):
        result = runner.invoke(main, ["verify-main", "--n-max", "4", "--sd4-mode", "constructive-only"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["violations"] == []

    def test_verify_topheavy_small(self, runner):
        result = runner.invoke(main, ["verify-topheavy", "--n-max", "4"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["violations"] == []

    def test_counterexamples(self, runner):
        result = runner.invoke(main, ["counterexamples"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["violations"] == []
        assert report["theorem"] == "counterexamples-B"

    def test_bad_n_max(self, runner):
        for command, n_max in [("verify-main", 0), ("verify-main", 9),
                               ("verify-topheavy", 1), ("verify-topheavy", 9)]:
            result = runner.invoke(main, [command, "--n-max", str(n_max)])
            assert result.exit_code == 2 and "--n-max" in result.output, (command, n_max)

    @pytest.mark.parametrize("command,call", [("verify-main", "verify_main"),
                                              ("verify-topheavy", "verify_topheavy")])
    def test_n_max_bound_is_the_harness_bound(self, runner, monkeypatch, command, call):
        # --n-max is a usage error exactly when the harness rejects n_max;
        # the sweep itself is stubbed out, so only the bound checks run
        stub = harness.VerificationReport(command, [], 0, [], 0.0)
        monkeypatch.setattr(harness, "_sweep", lambda *args: stub)
        for n_max in sorted({harness.MAX_SWEEP_DEGREE, harness.MAX_SWEEP_DEGREE + 1, 9}):
            try:
                getattr(harness, call)(n_max)
                harness_raises = False
            except ValueError:
                harness_raises = True
            result = runner.invoke(main, [command, "--n-max", str(n_max)])
            assert result.exit_code == (2 if harness_raises else 0), (n_max, result.output)

    def test_determinism(self, runner):
        a = runner.invoke(main, ["verify-main", "--n-max", "4"])
        b = runner.invoke(main, ["verify-main", "--n-max", "4"])
        da, db = json.loads(a.stdout), json.loads(b.stdout)
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    def test_jobs_parallel_matches_serial(self, runner):
        a = runner.invoke(main, ["verify-main", "--n-max", "4", "--jobs", "2"])
        b = runner.invoke(main, ["verify-main", "--n-max", "4", "--jobs", "1"])
        assert a.exit_code == 0
        da, db = json.loads(a.stdout), json.loads(b.stdout)
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    def test_jobs_env_var(self, runner):
        result = runner.invoke(main, ["verify-main", "--n-max", "3"], env={"BRUHAT_JOBS": "2"})
        assert result.exit_code == 0

    @pytest.mark.parametrize("command", ["verify-main", "verify-topheavy"])
    def test_jobs_below_one_is_usage_error(self, runner, command):
        result = runner.invoke(main, [command, "--n-max", "3", "--jobs", "0"])
        assert result.exit_code == 2 and "--jobs" in result.output
        result = runner.invoke(main, [command, "--n-max", "3"], env={"BRUHAT_JOBS": "-1"})
        assert result.exit_code == 2

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_full_verification_script_rejects_bad_jobs(self, tmp_path, jobs):
        repo = pathlib.Path(__file__).resolve().parents[1]
        outdir = tmp_path / "reports"
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        result = subprocess.run(
            [sys.executable, str(repo / "scripts" / "run_full_verification.py"),
             str(outdir), "--jobs", jobs],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2
        assert "usage:" in result.stderr and "--jobs" in result.stderr
        assert not outdir.exists()

    def test_violations_force_nonzero_exit(self, runner):
        # the exit-code contract, exercised with a fabricated failing report
        import bruhatdual.cli as cli_mod
        from bruhatdual.harness import VerificationReport

        fake = VerificationReport(
            theorem="thm-main", n_range=[2], checked=1,
            violations=[{"n": 2, "w": "21"}], wall_time=0.0,
        )
        with pytest.raises(SystemExit) as exc:
            cli_mod._finish_report(fake, None)
        assert exc.value.code == 1

    def test_analyze_output_file(self, runner, tmp_path):
        out = tmp_path / "a.json"
        result = runner.invoke(main, ["analyze", "4321", "--output", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["polished"] is True


class TestOutputOption:
    """An --output path that cannot be written is a usage error, raised
    while the arguments are parsed, before any work starts."""

    COMMANDS = [
        ["verify-main", "--n-max", "3"],
        ["verify-topheavy", "--n-max", "3"],
        ["counterexamples"],
        ["analyze", "21"],
        ["export", "21", "interval"],
    ]

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Make every command's work fail loudly, so an exit 2 shows that
        the path was rejected before the work began."""
        import bruhatdual.cli as cli_mod

        def boom(*args, **kwargs):
            raise AssertionError("work started before --output was checked")

        for name in ("analyze", "verify_main", "verify_topheavy",
                     "verify_counterexamples", "build_interval"):
            monkeypatch.setattr(cli_mod, name, boom)

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_missing_parent_directory(self, runner, tmp_path, no_work, args):
        out = tmp_path / "missing" / "r.json"
        result = runner.invoke(main, [*args, "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert "--output" in result.output and "does not exist" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.parent.exists()

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_directory(self, runner, tmp_path, no_work, args):
        result = runner.invoke(main, [*args, "--output", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "--output" in result.output and "is a directory" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_empty_file_name(self, runner, no_work, args):
        result = runner.invoke(main, [*args, "--output", ""])
        assert result.exit_code == 2, result.output
        assert "--output" in result.output and "empty" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_bare_file_name_is_written(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["verify-main", "--n-max", "3", "--output", "r.json"])
        assert result.exit_code == 0
        assert json.loads((tmp_path / "r.json").read_text())["violations"] == []


class TestExport:
    def test_gamma_lower_34521_json(self, runner):
        result = runner.invoke(main, ["export", "34521", "gamma-lower", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["small_count"] == 4
        assert len(doc["vertices"]) == 4 + 9
        assert len(doc["edges"]) == 18

    def test_gamma_upper_34521_json(self, runner):
        doc = json.loads(runner.invoke(main, ["export", "34521", "gamma-upper"]).stdout)
        assert doc["small_count"] == 4 and len(doc["vertices"]) == 13 and len(doc["edges"]) == 18

    def test_interval_dot(self, runner):
        result = runner.invoke(main, ["export", "21", "interval", "--format", "dot"])
        assert result.exit_code == 0
        assert result.stdout.count('"21" -> "12"') == 1
        assert result.stdout.startswith("digraph")

    def test_gamma_dot(self, runner):
        result = runner.invoke(main, ["export", "231", "gamma-lower", "--format", "dot"])
        assert result.exit_code == 0
        assert result.stdout.startswith("graph")
        assert "--" in result.stdout

    def test_decomposition_4321(self, runner):
        result = runner.invoke(main, ["export", "4321", "decomposition"])
        assert json.loads(result.stdout) == {"blocks": [{"S": [1, 2, 3], "J": [1, 2, 3], "Jp": []}]}

    def test_decomposition_rejects_pattern(self, runner):
        result = runner.invoke(main, ["export", "34521", "decomposition"])
        assert result.exit_code == 1
        assert "34521" in result.stderr

    @pytest.mark.parametrize("perm", ["4321", "34521"])
    def test_decomposition_dot_is_usage_error(self, runner, monkeypatch, perm):
        import bruhatdual.cli as cli_mod

        def boom(w):
            raise AssertionError("decomposition ran before --format was checked")

        monkeypatch.setattr(cli_mod, "polished_decompose", boom)
        result = runner.invoke(main, ["export", perm, "decomposition", "--format", "dot"])
        assert result.exit_code == 2, result.output
        assert "--format" in result.output and "JSON only" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_gamma_rejects_short(self, runner):
        result = runner.invoke(main, ["export", "21", "gamma-lower"])
        assert result.exit_code == 1

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["export", "4321", "interval", "--output", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["kind"] == "interval"

    def test_export_determinism(self, runner):
        a = runner.invoke(main, ["export", "34521", "gamma-upper"]).stdout
        b = runner.invoke(main, ["export", "34521", "gamma-upper"]).stdout
        assert a == b


class TestDegreeBound:
    """Commands that build [e, w] take degrees up to 9: [e, w0] of S_10 has
    10! elements.  A larger degree is a usage error before anything is built."""

    W0_10 = "10,9,8,7,6,5,4,3,2,1"

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", W0_10],
            ["export", W0_10, "interval"],
            ["export", W0_10, "gamma-lower"],
            ["export", W0_10, "gamma-upper", "--format", "dot"],
        ],
        ids=["analyze", "interval", "gamma-lower", "gamma-upper"],
    )
    def test_degree_ten_is_usage_error(self, runner, args):
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "degree 10 is above 9" in result.output

    def test_degree_nine_is_built(self, runner):
        result = runner.invoke(main, ["analyze", "213456789"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["rank_profile"] == [1, 1]

    def test_decomposition_takes_any_degree(self, runner):
        result = runner.invoke(main, ["export", "2,1,3,4,5,6,7,8,9,10", "decomposition"])
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {"blocks": [{"S": [1], "J": [1], "Jp": []}]}


def through_json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


class TestRoundTrips:
    """The export documents, taken through JSON text and pinned literally.
    Nothing in the package parses them back."""

    INTERVAL_231 = {
        "kind": "interval",
        "element_kind": "permutation",
        "top": "231",
        "vertices": ["231", "132", "213", "123"],
        "ranks": [2, 1, 1, 0],
        "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
    }

    def test_level_graph(self):
        w = parse_permutation("2413")
        interval = build_interval(w)
        edges = [[0, 3], [0, 4], [1, 3], [1, 5], [2, 4], [2, 5]]
        assert through_json(level_graph_to_dict(gamma_lower(interval), w)) == {
            "kind": "level-graph",
            "element_kind": "permutation",
            "side": "lower",
            "top": "2413",
            "small_count": 3,
            "vertices": ["1243", "1324", "2134", "1423", "2143", "2314"],
            "edges": edges,
        }
        assert through_json(level_graph_to_dict(gamma_upper(interval), w)) == {
            "kind": "level-graph",
            "element_kind": "permutation",
            "side": "upper",
            "top": "2413",
            "small_count": 3,
            "vertices": ["1423", "2143", "2314", "1243", "1324", "2134"],
            "edges": edges,
        }

    def test_interval(self):
        doc = interval_to_dict(build_interval(parse_permutation("231")))
        assert through_json(doc) == self.INTERVAL_231

    def test_interval_signed(self):
        el = evaluate_word([1, 2, 1], CoxeterPresentation("B", 2)).element
        assert through_json(interval_to_dict(build_interval(el))) == {
            "kind": "interval",
            "element_kind": "signed",
            "top": "-1,2",
            "vertices": ["-1,2", "2,-1", "-2,1", "1,-2", "2,1", "1,2"],
            "ranks": [3, 2, 2, 1, 1, 0],
            "edges": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 5], [4, 5]],
        }

    def test_decomposition(self):
        d = polished_decompose(parse_permutation("154973268"))
        assert through_json(decomposition_to_dict(d)) == {
            "blocks": [
                {"S": [8], "J": [8], "Jp": []},
                {"S": [2, 3, 4, 5, 6, 7], "J": [2, 3, 4, 6, 7], "Jp": [4, 5, 6]},
            ]
        }

    def test_json_is_valid_through_files(self, runner, tmp_path):
        path = tmp_path / "i.json"
        result = runner.invoke(main, ["export", "231", "interval", "--output", str(path)])
        assert result.exit_code == 0
        assert json.loads(path.read_text()) == self.INTERVAL_231
