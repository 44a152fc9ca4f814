import dataclasses
import itertools
from collections import Counter

import pytest

from oracle_utils import (
    SIX_AVOIDING_COUNTS,
    SMOOTH_COUNTS,
    all_one_lines,
    brute_avoids_all,
    brute_leq,
)

from bruhatdual import duality, harness
from bruhatdual.intervals import subword_downset
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


def is_2143(w):
    return w.one_line() == "2143"


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
