import dataclasses
import importlib
import inspect
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from oracle_utils import (
    SIX_AVOIDING_COUNTS,
    SMOOTH_COUNTS,
    SMOOTH_PATTERNS,
    all_one_lines,
    brute_avoids_all,
    brute_interval,
    brute_length,
    brute_leq,
    brute_rank_profile,
)

from bruhatdual import duality, harness, intervals
from bruhatdual.intervals import (
    BruhatInterval,
    build_interval,
    degree_extremes,
    rank_profile,
    subword_downset,
)
from bruhatdual.permutations import (
    Permutation,
    inverse_images,
    inverse_w0_conjugate_images,
    tableau_leq,
    w0_conjugate_images,
)
from bruhatdual.polished import NotPolishedError


def failing_on(real, is_target, exc):
    """`real`, except that it raises `exc` when its first argument is the target."""

    def stage(first, *rest):
        if is_target(first):
            raise exc
        return real(first, *rest)

    return stage


def small_side_sizes(im):
    """The sizes of the level graphs' small sides of [e, w], from w's one-line
    tuple: |supp(w)|, the i < n with some value above i among w(1..i); and the
    number of elements w covers, the inversions (i, j) with no value of
    w(i+1..j-1) between w(j) and w(i)."""
    n = len(im)
    support = sum(max(im[:i]) > i for i in range(1, n))
    covers = sum(
        im[i] > im[j] and not any(im[j] < im[k] < im[i] for k in range(i + 1, j))
        for i, j in itertools.combinations(range(n), 2)
    )
    return support, covers


def brute_covered(u):
    """The one-line tuples u covers: one transposition that drops the length by one."""
    lu = brute_length(u)
    swapped = []
    for i, j in itertools.combinations(range(len(u)), 2):
        if u[i] > u[j]:
            v = list(u)
            v[i], v[j] = v[j], v[i]
            swapped.append(tuple(v))
    return [v for v in swapped if brute_length(v) == lu - 1]


def brute_cover_degrees(top):
    """The atoms' up-degrees and the coatoms' down-degrees of [e, top], each
    sorted decreasingly, from the brute closure."""
    lw = brute_length(top)
    interval = brute_interval(top)
    up = Counter(a for u in interval if brute_length(u) == 2 for a in brute_covered(u))
    atom_up = sorted((up[a] for a in interval if brute_length(a) == 1), reverse=True)
    coatom_down = sorted(
        (len(brute_covered(c)) for c in interval if brute_length(c) == lw - 1), reverse=True
    )
    return atom_up, coatom_down


def is_2143(w):
    return w.one_line() == "2143"


def with_degrees(real, one_line, atom_up, coatom_down):
    """`real` (gamma_graphs_direct), except that at w = one_line it gives
    stand-ins for the two level graphs whose small sides have these degrees."""

    def graphs(w):
        if w.one_line() != one_line:
            return real(w)
        return tuple(
            SimpleNamespace(small_degrees=lambda d=d: tuple(d)) for d in (atom_up, coatom_down)
        )

    return graphs


def klein_orbit(im):
    """{w, w^-1, w0 w w0, w0 w^-1 w0} on one-line tuples, from the definitions."""
    n = len(im)
    inverse = tuple(sorted(range(1, n + 1), key=lambda i: im[i - 1]))
    flip = lambda x: tuple(n + 1 - v for v in reversed(x))  # noqa: E731
    return {im, inverse, flip(im), flip(inverse)}


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
        real = harness.lower_rank_profile
        monkeypatch.setattr(
            harness,
            "lower_rank_profile",
            failing_on(real, lambda im: im == (2, 1, 4, 3), RuntimeError("boom")),
        )
        report = harness.verify_topheavy(4, jobs=1)
        assert report.checked == clean.checked
        assert report.violations == [
            {"n": 4, "w": "2143", "stage": "lower_rank_profile", "error": "RuntimeError: boom"}
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

    @pytest.mark.parametrize("im, first_asymmetric", [((4, 5, 3, 1, 2, 6), 2), ((5, 6, 4, 3, 1, 2), 3)])
    def test_singular_refuted_without_interval(self, monkeypatch, im, first_asymmetric):
        # w's rank-1 counts agree, so only the rank sizes from w refute it
        profile = brute_rank_profile(im)
        lw = len(profile) - 1
        asymmetric = [k for k in range(lw + 1) if profile[k] != profile[lw - k]]
        assert asymmetric[0] == first_asymmetric
        monkeypatch.setattr(
            harness, "build_interval", failing_on(build_interval, lambda w: True, RuntimeError("built"))
        )
        report = harness.analyze(Permutation(im))
        assert report["smooth"] is False
        assert report["rank_profile"] == list(profile)
        assert (report["self_dual"], report["self_dual_certificate"]) == (False, "refuted")

    @pytest.mark.parametrize(
        "im, kind",
        [((3, 4, 5, 2, 1), "refuted"), ((2, 1, 4, 3), "constructive-map"), ((2, 1), "constructive-map")],
    )
    def test_smooth_builds_interval(self, monkeypatch, im, kind):
        # a symmetric profile refutes nothing: 34521 is refuted on [e, w] itself
        built = []
        monkeypatch.setattr(harness, "build_interval", lambda w: built.append(w) or build_interval(w))
        assert harness.analyze(Permutation(im))["self_dual_certificate"] == kind
        assert built == [Permutation(im)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_interval_route(self, n):
        # the fields analyze now reads off w, recomputed on [e, w] as built
        for im in all_one_lines(n):
            w = Permutation(im)
            report = harness.analyze(w)
            interval = build_interval(w)
            expected = dict(report, rank_profile=list(rank_profile(interval)))
            if w.length() >= 2:
                lower, upper = duality.gamma_lower(interval), duality.gamma_upper(interval)
                expected["gamma_isomorphic"] = duality.bipartite_isomorphic(lower, upper) is not None
                expected["degree_extremes"] = list(degree_extremes(interval))
            try:
                hint = harness.assemble_decomposition(w)
            except NotPolishedError:
                hint = None
            cert = duality.certify_self_dual(interval, hint)
            expected["self_dual"] = cert.is_self_dual
            expected["self_dual_certificate"] = cert.kind
            assert json.dumps(report) == json.dumps(expected)


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


class TestPoolImport:
    def test_pool_loaded_only_for_parallel_runs(self):
        # a fresh interpreter that imports the harness and analyzes one
        # element loads no process pool; a two-worker sweep still gives the
        # serial report
        code = (
            "import sys\n"
            "from bruhatdual.harness import analyze, verify_main\n"
            "from bruhatdual.permutations import Permutation\n"
            "assert analyze(Permutation((2, 1)))['self_dual']\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "serial, pooled = verify_main(3).to_dict(), verify_main(3, jobs=2).to_dict()\n"
            "assert 'concurrent.futures.process' in sys.modules\n"
            "serial.pop('wall_time'), pooled.pop('wall_time')\n"
            "assert serial == pooled and serial['checked'] == 9, (serial, pooled)\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr


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
        # the chunks of S_7 together check every element once; the degree
        # tallies split the census's smooth and six-avoiding counts, less the
        # seven elements of length < 2 (e and the six s_i)
        checked, tally = 0, Counter()
        for first in range(1, 8):
            count, found, violations = harness._chunk(harness._topheavy_checks, (7, first))
            assert violations == []
            checked += count
            tally.update(found)
        smooth, six = SMOOTH_COUNTS[7], SIX_AVOIDING_COUNTS[7]
        assert checked == 5040
        assert tally == {"smooth": smooth, "degree_equal": six - 7, "degree_strict": smooth - six}
        assert (smooth, six - 7, smooth - six) == (1552, 1227, 318)

    def test_census_gate_s8(self):
        # every n's tallies split the census's smooth and six-avoiding counts,
        # less the n elements of length < 2 (e and the n - 1 simple s_i)
        report = harness.verify_topheavy(8, jobs=2)
        assert report.checked == sum(math.factorial(n) for n in range(2, 9)) == 46232
        assert report.violations == []
        assert report.tallies == {
            str(n): {
                "smooth": SMOOTH_COUNTS[n],
                "degree_equal": SIX_AVOIDING_COUNTS[n] - n,
                "degree_strict": SMOOTH_COUNTS[n] - SIX_AVOIDING_COUNTS[n],
            }
            for n in range(2, 9)
        }
        assert report.tallies["8"] == {"smooth": 6652, "degree_equal": 4720, "degree_strict": 1924}

    def test_degree_majorization_brute_s6(self):
        # package-free: on every smooth w of length >= 2 in S_2..S_6 the
        # coatoms' down-degrees majorize the atoms' up-degrees, with equal
        # sequences exactly on the six-avoiders
        equal = strict = 0
        for n in range(2, 7):
            for im in all_one_lines(n):
                if brute_length(im) < 2 or not brute_avoids_all(im, SMOOTH_PATTERNS):
                    continue
                atom_up, coatom_down = brute_cover_degrees(im)
                assert sum(atom_up) == sum(coatom_down)
                assert all(
                    a <= c
                    for a, c in zip(itertools.accumulate(atom_up), itertools.accumulate(coatom_down))
                )
                assert (atom_up == coatom_down) == brute_avoids_all(im)
                equal += atom_up == coatom_down
                strict += atom_up != coatom_down
        assert (equal, strict) == (416, 48)

    @pytest.mark.parametrize(
        "atom_up,coatom_down",
        [
            ([5, 5, 5, 3], [6, 4, 4, 4]),  # third prefix sum above; maxima in order
            ([4, 4, 5, 5], [6, 4, 4, 5]),  # every prefix in order; totals differ
        ],
    )
    def test_forced_majorization_failure(self, monkeypatch, atom_up, coatom_down):
        # 34521 is smooth, not six-avoiding, with degrees [5, 5, 4, 4] and
        # [6, 4, 4, 4]; degrees that break majorization but keep the maxima
        # strict give exactly one violation, with both sequences sorted
        clean = harness.verify_topheavy(5)
        real = harness.gamma_graphs_direct
        monkeypatch.setattr(
            harness, "gamma_graphs_direct", with_degrees(real, "34521", atom_up, coatom_down)
        )
        report = harness.verify_topheavy(5)
        assert report.violations == [
            {"n": 5, "w": "34521", "check": "degree-majorization",
             "atom_up": sorted(atom_up, reverse=True), "coatom_down": sorted(coatom_down, reverse=True)}
        ]
        assert report.tallies == clean.tallies  # the maxima stay strict

    def test_degree_failure_names_its_call(self, monkeypatch):
        real = harness.gamma_graphs_direct
        monkeypatch.setattr(
            harness, "gamma_graphs_direct", failing_on(real, is_2143, KeyError("boom"))
        )
        assert harness.verify_topheavy(4).violations == [
            {"n": 4, "w": "2143", "stage": "gamma_graphs_direct", "error": "KeyError: 'boom'"}
        ]

    def test_forced_equal_maxima_failure(self, monkeypatch):
        # equal sequences still majorize, but equal maxima on 34521, which is
        # not six-avoiding, break the equality case: exactly one violation,
        # and one n = 5 element moves from degree_strict to degree_equal
        clean = harness.verify_topheavy(5)
        real = harness.gamma_graphs_direct
        monkeypatch.setattr(
            harness, "gamma_graphs_direct", with_degrees(real, "34521", [5, 5, 4, 4], [5, 5, 4, 4])
        )
        report = harness.verify_topheavy(5)
        assert report.violations == [
            {"n": 5, "w": "34521", "check": "degree-equality-vs-patterns",
             "extremes": [5, 5], "six_avoiding": False}
        ]
        tallies = clean.tallies
        five = tallies["5"]
        tallies["5"] = dict(five, degree_equal=five["degree_equal"] + 1,
                            degree_strict=five["degree_strict"] - 1)
        assert report.tallies == tallies

    def test_forced_rank_failure(self, monkeypatch):
        # a bottom-heavy profile for 3412 (its own is (1, 3, 5, 4, 1)) gives
        # exactly one violation, with that profile, and moves no tally
        clean = harness.verify_topheavy(4)
        real = harness.lower_rank_profile

        def profile(im):
            return (1, 4, 5, 3, 1) if im == (3, 4, 1, 2) else real(im)

        monkeypatch.setattr(harness, "lower_rank_profile", profile)
        report = harness.verify_topheavy(4)
        assert report.violations == [
            {"n": 4, "w": "3412", "check": "rank-top-heavy", "profile": (1, 4, 5, 3, 1)}
        ]
        assert report.tallies == clean.tallies

    def test_builds_no_interval(self, monkeypatch):
        # the checks read [e, w] off w: with every interval-route call made to
        # raise, the sweep still gives the clean report
        clean = harness.verify_topheavy(6).to_dict()

        def forbidden(*args):
            raise AssertionError("interval route called")

        monkeypatch.setattr(harness, "build_interval", forbidden)
        monkeypatch.setattr(intervals, "build_interval", forbidden)
        monkeypatch.setattr(intervals, "rank_profile", forbidden)
        monkeypatch.setattr(BruhatInterval, "atom_coatom_degrees", forbidden)
        assert not hasattr(harness, "rank_profile")
        report = harness.verify_topheavy(6).to_dict()
        clean.pop("wall_time"), report.pop("wall_time")
        assert report == clean
        assert report["checked"] == 872 and report["violations"] == []


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
        # the big sides are built for the w of length >= 2 whose small sides match
        matched = [
            w for w in ws if w.length() >= 2 and len(set(small_side_sizes(w.images))) == 1
        ]
        assert len(marks) == len(matched) == 84
        assert built  # the counter sees the other stages build elements

    @pytest.mark.parametrize("n", range(2, 8))
    def test_small_side_exit(self, monkeypatch, n):
        # SD1 is the direct graphs' isomorphism verdict, and it skips the
        # graphs exactly when |supp(w)| and the number of elements w covers
        # differ; on S_4 those are 3412 and 4231
        real_direct = harness.gamma_graphs_direct
        direct = []

        def record(w):
            direct.append(w.images)
            return real_direct(w)

        monkeypatch.setattr(harness, "gamma_graphs_direct", record)
        exits = 0
        for im in itertools.permutations(range(1, n + 1)):
            w = Permutation(im)
            if w.length() < 2:
                continue
            del direct[:]
            row, _ = harness._sd_predicates(w, "constructive-only")
            expected = duality.bipartite_isomorphic(*real_direct(w)) is not None
            assert row["sd1_gamma_iso"] == expected
            atoms, coatoms = small_side_sizes(im)
            assert (direct == []) == (atoms != coatoms)
            exits += atoms != coatoms
        assert exits == {2: 0, 3: 0, 4: 2, 5: 31, 6: 341, 7: 3379}[n]


class TestChunkOrder:
    def test_largest_n_first_merged_in_chunk_order(self, monkeypatch):
        # chunk (n, first) reports two violations naming an element that
        # starts with n + 1 - first, so one-line order reverses chunk order
        # within each n; the two of one element keep the order found
        submitted = []

        def fake(n, first):
            w = "".join(map(str, [n + 1 - first] + [v for v in range(1, n + 1) if v != n + 1 - first]))
            return [{"n": n, "w": w, "chunk": (n, first), "k": k} for k in (0, 1)]

        def record(worker, chunk_args, jobs):
            submitted.extend(args[:2] for args in chunk_args)
            return [(1, Counter(), fake(*args[:2])) for args in chunk_args]

        monkeypatch.setattr(harness, "_run_chunks", record)
        report = harness.verify_main(4, "full", jobs=2)
        chunks = [(n, first) for n in range(1, 5) for first in range(1, n + 1)]
        assert submitted == sorted(chunks, key=lambda c: -c[0])
        merged = [(n, first) for n in range(1, 5) for first in range(n, 0, -1)]
        assert [(v["chunk"], v["k"]) for v in report.violations] == [
            (c, k) for c in merged for k in (0, 1)
        ]
        assert report.checked == len(chunks)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forced_violations_in_one_line_order(self, monkeypatch, jobs):
        # failures forced on the length-4 elements of S_4 and S_5, which
        # spread over several chunks and sit both as owners and as other
        # members of their orbits
        targets = {
            im for n in (4, 5) for im in itertools.permutations(range(1, n + 1))
            if sum(a > b for a, b in itertools.combinations(im, 2)) == 4
        }
        real = harness.assemble_decomposition
        monkeypatch.setattr(
            harness, "assemble_decomposition",
            failing_on(real, lambda w: w.images in targets, RuntimeError("boom")),
        )
        report = harness.verify_main(5, "full", jobs=jobs)
        expected = [
            {"n": len(im), "w": "".join(map(str, im)), "stage": "assemble_decomposition",
             "error": "RuntimeError: boom"}
            for im in sorted(targets, key=lambda im: (len(im), im))
        ]
        owners = {min(klein_orbit(im)) for im in targets}
        assert len({owner[0] for owner in owners}) > 2 and not targets <= owners
        assert report.violations == expected


class TestChunkContract:
    # one chunk of S_5, (5, 2), driven with fake checks of the sweep contract
    # check(w, *rest) -> (keys, violations, certificate)
    CHUNK = (5, 2, "tag")

    def orbits(self):
        return {
            min(klein_orbit(im)): klein_orbit(im)
            for im in all_one_lines(5) if min(klein_orbit(im))[0] == 2
        }

    def test_owner_certificate_goes_to_its_other_members(self):
        # owners with an even last value return a certificate naming
        # themselves; exactly the other members of those orbits receive it,
        # with a map taking the owner to the member
        calls = {}

        def check(w, tag, transport=None):
            assert tag == "tag"
            calls[w.images] = transport
            return ["seen"], [], ("cert", w.images) if w.images[-1] % 2 == 0 else None

        checked, tally, violations = harness._chunk(check, self.CHUNK)
        orbits = self.orbits()
        members = set().union(*orbits.values())
        assert sorted(calls) == sorted(members) and checked == len(members) == sum(tally.values())
        assert violations == []
        carried = 0
        for owner, orbit in orbits.items():
            assert calls[owner] is None
            for x in orbit - {owner}:
                if owner[-1] % 2:
                    assert calls[x] is None
                else:
                    g, cert = calls[x]
                    assert cert == ("cert", owner) and g(owner) == x
                    carried += 1
        assert 0 < carried < len(members) - len(orbits)

    def test_check_without_certificates_gets_no_transport(self):
        # a check with no transport parameter, like _topheavy_checks: any
        # transport passed would raise TypeError
        seen = []

        def check(w, tag):
            seen.append(w.images)
            return [], [{"n": w.n, "w": w.one_line()}], None

        checked, _, violations = harness._chunk(check, self.CHUNK)
        assert sorted(seen) == sorted(set().union(*self.orbits().values())) and checked == len(seen)
        assert [v["w"] for v in violations] == ["".join(map(str, im)) for im in seen]

    def test_failed_owner_carries_nothing(self):
        # owners with an even last value fail; their other members are
        # checked without transport, the other orbits still carry
        calls = {}

        def check(w, tag, transport=None):
            calls[w.images] = transport
            if transport is None and w.images[-1] % 2 == 0 and w.images == min(klein_orbit(w.images)):
                raise harness._ElementFailure("certify_self_dual", RuntimeError("boom"))
            return [], [], ("cert", w.images)

        checked, _, violations = harness._chunk(check, self.CHUNK)
        orbits = self.orbits()
        failed = sorted(owner for owner in orbits if owner[-1] % 2 == 0)
        assert 0 < len(failed) < len(orbits)
        assert violations == [
            {"n": 5, "w": "".join(map(str, owner)), "stage": "certify_self_dual",
             "error": "RuntimeError: boom"}
            for owner in failed
        ]
        assert checked == len(calls)
        for owner, orbit in orbits.items():
            assert calls[owner] is None
            for x in orbit - {owner}:
                assert (calls[x] is None) == (owner in failed)


class TestStageList:
    def test_bench_hinted_stages_are_the_ones_called(self, monkeypatch):
        # every function harness imports from another bruhatdual module is
        # wrapped; constructive-only _sd_predicates over S_1..S_5 calls
        # exactly the stages scripts/bench_hinted.py times
        scripts = pathlib.Path(__file__).resolve().parents[1] / "scripts"
        monkeypatch.syspath_prepend(str(scripts))
        bench_hinted = importlib.import_module("bench_hinted")
        called = set()

        def wrap(name, fn):
            def run(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)

            return run

        imported = [
            name for name, fn in vars(harness).items()
            if inspect.isfunction(fn) and fn.__module__.startswith("bruhatdual.")
            and fn.__module__ != harness.__name__
        ]
        assert "rank_one_counts" in imported and "parse_permutation" in imported
        for name in imported:
            monkeypatch.setattr(harness, name, wrap(name, getattr(harness, name)))
        for n in range(1, 6):
            for im in all_one_lines(n):
                harness._sd_predicates(Permutation(im), "constructive-only")
        assert sorted(called) == sorted(bench_hinted.SD_STAGES)


class TestOrbits:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_chunks_partition_sn_into_orbits(self, n):
        # every orbit comes once, from the chunk of its least member's first
        # value, as that owner then its other members; over all chunks of n
        # the members are S_n, each once
        seen = []
        for first in range(1, n + 1):
            owners = []
            for owner, members in harness._orbits(n, first):
                orbit = klein_orbit(owner)
                assert owner[0] == first and owner == min(orbit)
                assert [x for x, _ in members] == sorted(orbit - {owner})
                assert all(g(owner) == x for x, g in members)
                owners.append(owner)
                seen += [owner, *(x for x, _ in members)]
            assert owners == sorted(owners)
        assert sorted(seen) == sorted(itertools.permutations(range(1, n + 1)))

    def test_klein_maps_are_inverse_and_w0_conjugation(self):
        w0 = Permutation((4, 3, 2, 1))
        for im in itertools.permutations(range(1, 5)):
            w = Permutation(im)
            assert inverse_images(im) == w.inverse().images
            assert w0_conjugate_images(im) == (w0 * w * w0).images
            assert inverse_w0_conjugate_images(im) == (w0 * w.inverse() * w0).images


class TestFullModeSd4:
    def test_rank_one_refutation_builds_no_interval(self, monkeypatch):
        # full mode builds [e, w] exactly for the w whose rank-1 counts agree,
        # each once, on its own; the others are refuted from w alone
        built = []
        real = harness.build_interval

        def record(w):
            built.append(w.images)
            return real(w)

        monkeypatch.setattr(harness, "build_interval", record)
        report = harness.verify_main(5, "full", jobs=1)
        assert report.ok
        expected = [
            w.images for n in range(1, 6) for w in map(Permutation, itertools.permutations(range(1, n + 1)))
            if len(w.support()) == len(Permutation.down_cover_images(w.images))
        ]
        assert sorted(built) == sorted(expected) and len(set(built)) == len(built)

    def test_each_self_dual_orbit_is_searched_once(self, monkeypatch):
        # the owner of a self-dual orbit searches, and its bijection is
        # carried to the other members; every other element that builds its
        # interval searches on its own
        searched, carried = [], []
        real_search, real_carry = harness.certify_self_dual, harness.transport_certificate

        def search(interval, *hint):
            searched.append(interval.top.images)
            return real_search(interval, *hint)

        def carry(cert, interval, g):
            carried.append((cert.interval.top.images, interval.top.images))
            return real_carry(cert, interval, g)

        monkeypatch.setattr(harness, "certify_self_dual", search)
        monkeypatch.setattr(harness, "transport_certificate", carry)
        report = harness.verify_main(6, "full", jobs=1)
        assert report.ok
        targets = [x for _, x in carried]
        assert len(set(searched + targets)) == len(searched) + len(targets)
        assert all(owner == min(klein_orbit(x)) and owner in searched for owner, x in carried)
        self_dual = [im for n in range(1, 7) for im in all_one_lines(n) if brute_avoids_all(im)]
        assert sorted(targets + [im for im in searched if brute_avoids_all(im)]) == sorted(self_dual)
        owners = {min(klein_orbit(im)) for im in self_dual}
        assert sorted(im for im in searched if brute_avoids_all(im)) == sorted(owners)
        assert (len(self_dual), len(owners)) == (437, 149)

    def test_corrupted_transport_is_a_violation(self, monkeypatch):
        # the owner 1342's bijection with two images swapped is carried to
        # 1423, 2314 and 3124; each fails verification on its own interval
        # and is reported, none falls back to a search
        real = harness.certify_self_dual

        def corrupt(interval, *hint):
            cert = real(interval, *hint)
            if interval.top.images == (1, 3, 4, 2):
                image = list(cert.image)
                image[0], image[-1] = image[-1], image[0]
                cert = dataclasses.replace(cert, image=image)
            return cert

        monkeypatch.setattr(harness, "certify_self_dual", corrupt)
        report = harness.verify_main(4, "full", jobs=1)
        assert report.checked == 33
        assert [(v["n"], v["w"], v["stage"]) for v in report.violations] == [
            (4, w, "transport_certificate") for w in ("1423", "2314", "3124")
        ]
        assert all(v["error"].startswith("ValueError: transported bijection") for v in report.violations)
        assert report.tallies["4"]["self_dual"] == 22 - 3
