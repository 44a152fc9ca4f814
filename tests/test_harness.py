import itertools
from collections import Counter

import pytest

from oracle_utils import brute_leq

from bruhatdual import duality, harness
from bruhatdual.intervals import subword_downset
from bruhatdual.permutations import Permutation, tableau_leq
from bruhatdual.polished import NotPolishedError


def failing_on(real, is_target, exc):
    """`real`, except that it raises `exc` when its first argument is the target."""

    def stage(first, *rest):
        if is_target(first):
            raise exc
        return real(first, *rest)

    return stage


def is_2143(w):
    return w.one_line() == "2143"


class TestElementFailures:
    @pytest.mark.parametrize(
        "sd4_mode,stage,is_target",
        [
            ("full", "assemble_decomposition", is_2143),
            ("full", "build_interval", is_2143),
            ("constructive-only", "certify_self_dual", lambda interval: is_2143(interval.top)),
        ],
    )
    def test_main_sweep_records_failure(self, monkeypatch, sd4_mode, stage, is_target):
        real = getattr(harness, stage)
        monkeypatch.setattr(harness, stage, failing_on(real, is_target, AssertionError("boom")))
        report = harness.verify_main(4, sd4_mode=sd4_mode, jobs=1)
        assert report.checked == 1 + 2 + 6 + 24
        assert report.violations == [
            {"n": 4, "w": "2143", "stage": stage, "error": "AssertionError: boom"}
        ]

    def test_topheavy_sweep_records_failure(self, monkeypatch):
        clean = harness.verify_topheavy(4)
        real = harness.build_interval
        monkeypatch.setattr(
            harness, "build_interval", failing_on(real, is_2143, RuntimeError("boom"))
        )
        report = harness.verify_topheavy(4, jobs=1)
        assert report.checked == clean.checked
        assert report.violations == [
            {"n": 4, "w": "2143", "stage": "build_interval", "error": "RuntimeError: boom"}
        ]


class TestAnalyze:
    def test_failed_assembly_is_reported(self, monkeypatch):
        # analyze computes SD3 on every w: a six-avoider whose assembly fails
        # is reported unpolished, without a hint, and the search certifies it
        real = harness.assemble_decomposition
        monkeypatch.setattr(
            harness, "assemble_decomposition", failing_on(real, is_2143, NotPolishedError("boom"))
        )
        report = harness.analyze(Permutation((2, 1, 4, 3)))
        assert report["six_avoiding"] is True
        assert (report["polished"], report["decomposition"]) == (False, None)
        assert report["self_dual_certificate"] == "explicit-bijection"


class TestJobs:
    def test_worker_count_clamped_to_chunks(self):
        assert harness._worker_count(10**6, 7) == 7
        assert harness._worker_count(2, 7) == 2
        assert harness._worker_count(1, 1) == 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            harness._worker_count(jobs, 4)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            harness.verify_main(3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            harness.verify_topheavy(3, jobs=jobs)


class TestSd4Mode:
    @pytest.mark.parametrize("force_full", [False, True])
    def test_full_mode_stays_full_at_seven(self, monkeypatch, force_full):
        calls = []

        def record(worker, chunk_args, jobs):
            calls.append(chunk_args)
            return [(0, Counter(), []) for _ in chunk_args]

        monkeypatch.setattr(harness, "_run_chunks", record)
        harness.verify_main(7, "full", jobs=2, force_full=force_full)
        assert len(calls) == 1  # one pool for the whole sweep
        seen = calls[0]
        at_seven = [args for args in seen if args[0] == 7]
        assert [first for _, first, _ in at_seven] == list(range(1, 8))
        assert {mode for *_, mode in seen} == {"full"}


class TestTopheavy:
    def test_sweeps_eight(self, monkeypatch):
        calls = []

        def record(worker, chunk_args, jobs):
            calls.append(chunk_args)
            return [(0, Counter(), []) for _ in chunk_args]

        monkeypatch.setattr(harness, "_run_chunks", record)
        harness.verify_topheavy(8, jobs=2)
        assert len(calls) == 1
        at_eight = [args for args in calls[0] if args[0] == 8]
        assert [first for _, first in at_eight] == list(range(1, 9))
        with pytest.raises(ValueError, match="between 2 and 8"):
            harness.verify_topheavy(9)

    def test_ranks_checked_at_seven(self):
        # w(1) = 1 gives [e, w] = [e, v] for the v in S_6 that w shifts, so
        # smooth is S_6's census count 366; the degree tallies split S_6's
        # 366 smooth and 322 six-avoiding elements less the six of length < 2.
        checked, tally, violations = harness._chunk(harness._topheavy_checks, (7, 1))
        assert checked == 720
        assert violations == []
        assert tally == {"smooth": 366, "degree_equal": 316, "degree_strict": 44}


class TestGammaGraphsDirect:
    def test_harness_name_is_the_duality_function(self):
        # the sweeps call it, and tests and benchmarks patch it, through harness
        assert harness.gamma_graphs_direct is duality.gamma_graphs_direct

    def test_length_two_side_matches_brute_scan_s6(self):
        length_two = [
            Permutation(im)
            for im in itertools.permutations(range(1, 7))
            if sum(a > b for a, b in itertools.combinations(im, 2)) == 2
        ]
        for im in itertools.permutations(range(1, 7)):
            w = Permutation(im)
            if w.length() < 2:
                continue
            below = subword_downset(w)
            expected = sorted(u.images for u in length_two if u in below)
            lower, _ = harness.gamma_graphs_direct(w)
            assert list(lower.big) == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_two_prefix_check_matches_brute_leq(self, n):
        # the direct route's restriction of the tableau criterion to the
        # prefixes of lengths i and i + 1, against the package-free closure
        e = tuple(range(1, n + 1))
        for im in itertools.permutations(e):
            for i in range(1, n - 1):
                for window in ((i + 1, i + 2, i), (i + 2, i, i + 1)):  # s_i s_i+1, s_i+1 s_i
                    x = e[: i - 1] + window + e[i + 2 :]
                    assert tableau_leq(x, im, (i, i + 1)) == brute_leq(x, im)

    def test_sd1_builds_no_permutation(self, monkeypatch):
        # from the direct level graphs to the isomorphism verdict, SD1 holds
        # one-line tuples and constructs no Permutation
        built = []
        post_init = Permutation.__post_init__

        def counting(self):
            built.append(self.images)
            post_init(self)

        monkeypatch.setattr(Permutation, "__post_init__", counting)
        real_direct, real_iso = harness.gamma_graphs_direct, harness.bipartite_isomorphic
        marks = []

        def direct(w):
            marks.append(len(built))
            return real_direct(w)

        def iso(g, h):
            assert all(type(x) is tuple for lg in (g, h) for x in lg.small + lg.big)
            found = real_iso(g, h)
            assert len(built) == marks[-1]
            return found

        monkeypatch.setattr(harness, "gamma_graphs_direct", direct)
        monkeypatch.setattr(harness, "bipartite_isomorphic", iso)
        ws = [Permutation(im) for im in itertools.permutations(range(1, 6))]
        for w in ws:
            harness._sd_predicates(w, "constructive-only")
        assert len(marks) == len(ws) - 1 - 4  # all but e and the four s_i
        assert built  # the counter sees the other stages build elements


class TestChunkOrder:
    def test_largest_n_first_merged_in_chunk_order(self, monkeypatch):
        submitted = []

        def record(worker, chunk_args, jobs):
            submitted.extend(args[:2] for args in chunk_args)
            return [(1, Counter(), [{"chunk": args[:2]}]) for args in chunk_args]

        monkeypatch.setattr(harness, "_run_chunks", record)
        report = harness.verify_main(4, "full", jobs=2)
        chunks = [(n, first) for n in range(1, 5) for first in range(1, n + 1)]
        assert submitted == sorted(chunks, key=lambda c: -c[0])
        assert [v["chunk"] for v in report.violations] == chunks
        assert report.checked == len(chunks)
