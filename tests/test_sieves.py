import hashlib

import pytest

from primegaps import sieves
from primegaps.admissible import _window_admissible, covers_all_classes, h_exact_small, is_admissible
from primegaps.sieves import (
    SieveConfig,
    apply_residue_sieve,
    find_tuple,
    shifted_greedy_run,
    shifted_schinzel_run,
    sieve_eratosthenes,
    sieve_hensley_richards,
    sieve_k_primes_past_k,
    sieve_shifted_greedy,
    sieve_shifted_schinzel,
    write_residue_sieve,
)
from primegaps.sieves import _primes_with_index, _push_down, _schinzel_run, _window

from .reference import (
    KPPK_DIAMETERS,
    plain_schinzel_run,
    plain_shifted_schinzel_run,
    schinzel_inputs,
)


class TestConfig:
    def test_defaults(self):
        cfg = SieveConfig()
        assert cfg.shift == "search" and cfg.batch_size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SieveConfig(method="bogus")
        with pytest.raises(ValueError):
            SieveConfig(shift="sometimes")


class TestSmallCases:
    def test_kppk_k2(self):
        assert sieve_k_primes_past_k(2).offsets == (3, 5)

    def test_eratosthenes_k3(self):
        t = sieve_eratosthenes(3)
        assert t.k == 3 and t.diameter <= 8 and is_admissible(t)

    def test_hensley_richards_k2(self):
        assert sieve_hensley_richards(2).offsets == (-1, 1)

    def test_hensley_richards_k5(self):
        t = sieve_hensley_richards(5)
        assert t.k == 5 and is_admissible(t)
        assert -1 in t.offsets and 1 in t.offsets

    def test_schinzel_k2(self):
        t = sieve_shifted_schinzel(2, SieveConfig(method="shifted-schinzel", shift=0))
        assert t.k == 2 and t.diameter == 2

    def test_greedy_k2(self):
        t = sieve_shifted_greedy(2, SieveConfig(method="shifted-greedy", shift=0))
        assert t.k == 2 and t.diameter == 2

    def test_rejects_k1(self):
        for fn in (sieve_k_primes_past_k, sieve_eratosthenes, sieve_hensley_richards):
            with pytest.raises(ValueError):
                fn(1)


@pytest.mark.parametrize("k", [2, 3, 7, 20, 101, 311])
class TestInvariants:
    def test_all_methods_admissible_with_k_elements(self, k):
        cfgs = {
            "k-primes-past-k": None,
            "eratosthenes": None,
            "hensley-richards": None,
            "shifted-schinzel": SieveConfig(method="shifted-schinzel", shift=k),
            "shifted-greedy": SieveConfig(method="shifted-greedy", shift=0),
        }
        for method, cfg in cfgs.items():
            t = find_tuple(k, cfg or SieveConfig(method=method))
            assert t.k == k, method
            assert is_admissible(t), method

    def test_decremental_start_never_hurts(self, k):
        # the symmetric construction only wins for larger k, so the full
        # ladder is asserted at the reference scale (see TestReferenceRows)
        assert sieve_k_primes_past_k(k).diameter >= sieve_eratosthenes(k).diameter


def test_exact_minimum_never_beaten():
    for k in (3, 4, 5):
        floor = h_exact_small(k, 40)
        assert sieve_k_primes_past_k(k).diameter >= floor
        assert sieve_eratosthenes(k).diameter >= floor
        assert sieve_hensley_richards(k).diameter >= floor
        assert sieve_shifted_schinzel(k, SieveConfig(method="shifted-schinzel", shift=0)).diameter >= floor


class TestDecrementalStart:
    """The bitmap push-down loop stops where a loop that enumerates every
    window's residues anew stops."""

    @staticmethod
    def reference_start(k, ps, pi_k, window):
        m = pi_k
        while m >= 1 and not covers_all_classes(window(m - 1), int(ps[m - 1])):
            m -= 1
        return m

    @staticmethod
    def check(k, sides, units=()):
        ps, pi_k = _primes_with_index(k)
        ref = TestDecrementalStart.reference_start(k, ps, pi_k, lambda m: _window(ps, m, sides, units))
        assert _push_down(ps, pi_k, sides, units) == ref, k

    @pytest.mark.parametrize("ks", [range(2, 401), [5511]], ids=["2-400", "5511"])
    def test_eratosthenes(self, ks):
        for k in ks:
            self.check(k, [(1, k)])

    @pytest.mark.parametrize("ks", [range(2, 401), [5511]], ids=["2-400", "5511"])
    def test_hensley_richards(self, ks):
        for k in ks:
            self.check(k, [(-1, k // 2 - 1), (1, (k + 1) // 2 - 1)], units=(-1, 1))


#: SHA-256 over repr(offsets) of sieve_eratosthenes(k) and of
#: sieve_hensley_richards(k), k in DECREMENTAL_KS, as the constructions
#: wrote them when each kept its own push-down and push-up loops
DECREMENTAL_KS = [*range(2, 401), 1000, 5511, 35410]
DECREMENTAL_DIGESTS = {
    "eratosthenes": "7a48ffdd69a937a4d856b19e4da81da91ba56d49f943570021f11344cac42670",
    "hensley-richards": "81647806c532dd45a09e99c4b2b7bd5a786cd9a12ac390ac49a8e8e1ab0e8e18",
}


@pytest.mark.parametrize("method", sorted(DECREMENTAL_DIGESTS))
def test_decremental_tuples_digest(method):
    digest = hashlib.sha256()
    for k in DECREMENTAL_KS:
        digest.update(repr(find_tuple(k, SieveConfig(method=method)).offsets).encode())
    assert digest.hexdigest() == DECREMENTAL_DIGESTS[method]


class TestReferenceRows:
    def test_kppk_exact_5511(self):
        assert sieve_k_primes_past_k(5511).diameter == KPPK_DIAMETERS[5511]

    def test_construction_ladder_5511(self):
        d_kppk = sieve_k_primes_past_k(5511).diameter
        d_erat = sieve_eratosthenes(5511).diameter
        d_hr = sieve_hensley_richards(5511).diameter
        assert d_kppk >= d_erat >= d_hr

    def test_schinzel_fixed_shift_beats_symmetric_row(self):
        # a single run anchored at s = k should already match or beat the
        # symmetric-interval construction
        t = sieve_shifted_schinzel(5511, SieveConfig(method="shifted-schinzel", shift=5511))
        assert t.diameter <= 54480

    def test_no_method_beats_exact_optimum_at_50(self):
        # the minimal diameter at k = 50 is exactly 246
        t = sieve_shifted_greedy(50, SieveConfig(method="shifted-greedy", shift=0))
        assert t.diameter >= 246
        assert sieve_eratosthenes(50).diameter >= 246

    @pytest.mark.slow
    def test_kppk_exact_large(self):
        for k in (35410, 41588):
            assert sieve_k_primes_past_k(k).diameter == KPPK_DIAMETERS[k]

    @pytest.mark.slow
    def test_eratosthenes_41588(self):
        t = sieve_eratosthenes(41588)
        assert is_admissible(t)
        assert t.diameter <= int(505734 * 1.005)

    @pytest.mark.slow
    def test_hensley_richards_309661(self):
        t = sieve_hensley_richards(309661)
        assert t.k == 309661 and is_admissible(t)
        assert t.diameter <= int(4312612 * 1.005)

    @pytest.mark.slow
    def test_greedy_35410_within_slack(self):
        # the published search-row value is 399936; single-shift greedy
        # lands within one percent
        t = sieve_shifted_greedy(
            35410, SieveConfig(method="shifted-greedy", shift=0, batch_size=16)
        )
        assert is_admissible(t)
        assert t.diameter <= int(399936 * 1.01)


class TestDeterminism:
    def test_search_is_reproducible(self):
        a = sieve_shifted_greedy(311, SieveConfig(method="shifted-greedy"))
        b = sieve_shifted_greedy(311, SieveConfig(method="shifted-greedy"))
        assert a.offsets == b.offsets

    def test_batch_size_changes_are_deterministic(self):
        # different batch sizes may give different (still admissible) tuples
        a = sieve_shifted_greedy(311, SieveConfig(method="shifted-greedy", shift=0, batch_size=1))
        b = sieve_shifted_greedy(311, SieveConfig(method="shifted-greedy", shift=0, batch_size=16))
        assert is_admissible(a) and is_admissible(b)


class TestResidueSieveFiles:
    def test_greedy_roundtrip(self, tmp_path):
        run = shifted_greedy_run(311, SieveConfig(method="shifted-greedy", shift=0))
        path = tmp_path / "greedy.txt"
        write_residue_sieve(path, run)
        assert apply_residue_sieve(path).offsets == run.tuple.offsets

    def test_schinzel_roundtrip(self, tmp_path):
        run = shifted_schinzel_run(101, SieveConfig(method="shifted-schinzel", shift=101))
        path = tmp_path / "schinzel.txt"
        write_residue_sieve(path, run)
        assert apply_residue_sieve(path).offsets == run.tuple.offsets

    def test_header_and_zero_residue_form(self, tmp_path):
        run = shifted_greedy_run(101, SieveConfig(method="shifted-greedy", shift=0))
        path = tmp_path / "s.txt"
        write_residue_sieve(path, run)
        first = path.read_text().splitlines()[0].split()
        assert [int(first[0]), int(first[1])] == [101, run.tuple.offsets[0]]
        assert int(first[2]) == run.tuple.diameter

    def test_survivor_count_mismatch_rejected(self, tmp_path):
        run = shifted_greedy_run(101, SieveConfig(method="shifted-greedy", shift=0))
        path = tmp_path / "bad.txt"
        write_residue_sieve(path, run)
        lines = path.read_text().splitlines()
        head = lines[0].split()
        head[0] = "100"  # wrong k
        path.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="survivors"):
            apply_residue_sieve(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# only a comment\n\n", "empty"),
            ("101 0 600\n3 1\n", "header must be 'k s d m', got 3 fields"),
            ("3 0 6 1\n0 1\n", "prime index n_i must be >= 1, got 0"),
            ("3 0 six 1\n", "non-integer field"),
            ("3 0 -6 1\n", "needs k >= 1, d >= 0, m >= 0"),
            ("3 0 6 1\n2 1 5\n", "line must be 'n_i r_i' or 'n_i', got 3 fields"),
            ("3 0 10000000000000 1\n", "diameter 10000000000000 exceeds 64 \\* k = 192"),
            ("3 0 6 1\n10000000000000 1\n", "prime index n_i must be <= k = 3, got 10000000000000"),
            ("3 0 6 10000000000000\n", "needs m <= k = 3, got 10000000000000"),
        ],
        ids=[
            "empty",
            "three-field-header",
            "prime-index-zero",
            "non-integer",
            "negative-diameter",
            "three-field-line",
            "huge-diameter",
            "huge-prime-index",
            "huge-structural-count",
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            apply_residue_sieve(path)

    @pytest.mark.parametrize("header", ["10000000000000 0 10000000000000 1", "3 0 2 1", "4 1 5 1"])
    def test_more_survivors_than_even_values_refused_before_allocation(
            self, tmp_path, monkeypatch, header):
        # [s, s+d] holds at most d/2 + 1 even values, so k beyond that is
        # refused before the window is built
        def no_window(*args):
            raise AssertionError("_structural_mask called")

        monkeypatch.setattr(sieves, "_structural_mask", no_window)
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=r"at most d/2 \+ 1") as info:
            apply_residue_sieve(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("header, offsets", [("2 0 2 1", (0, 2)), ("2 1 3 1", (2, 4))])
    def test_k_of_d_over_2_plus_1_accepted(self, tmp_path, header, offsets):
        path = tmp_path / "edge.txt"
        path.write_text(header + "\n")
        assert apply_residue_sieve(path).offsets == offsets


SHIFTED_RUNS = {"shifted-schinzel": shifted_schinzel_run, "shifted-greedy": shifted_greedy_run}


class TestInLoopAdmissibility:
    """The shifted loops test each window against the primes they have not
    sieved yet; that answer must be is_admissible's on every window."""

    @pytest.mark.parametrize("method", sorted(SHIFTED_RUNS))
    def test_matches_full_test_on_every_window(self, monkeypatch, method):
        seen = {}
        inner = sieves._window_admissible

        def recording(offs, primes):
            answer = inner(offs, primes)
            seen.setdefault(offs.tobytes(), (offs.copy(), answer))
            return answer

        monkeypatch.setattr(sieves, "_window_admissible", recording)
        for k in range(2, 201):
            SHIFTED_RUNS[method](k, SieveConfig(method=method))
        assert sum(answer for _, answer in seen.values()) > 0
        assert sum(not answer for _, answer in seen.values()) > 0
        for offs, answer in seen.values():
            assert answer == is_admissible(offs), offs.tolist()


#: SHA-256 of repr((offsets, s, m, classes)) of each SieveRun, as the
#: constructions wrote them before the in-loop test skipped sieved primes
GOLDEN_RUNS = {
    ("shifted-greedy", 101, "search"): "df757c1560504df0c5e74ed805c45ad3cdf46bc6343e28a4f7bff43bb226c056",
    ("shifted-greedy", 101, 0): "4fcf7043d077e8ddebfac671eed875f13295183cf566ff469b5f476d21f0e4f3",
    ("shifted-greedy", 311, "search"): "010ae1eada904b89f424c3d960904e189e9331232d2c97e51766bec88afc0824",
    ("shifted-greedy", 311, 0): "67a1886d2846bd8c94810fc6bdfd88c6d20e7e73335d6360df07803388994b5e",
    ("shifted-greedy", 1000, "search"): "73034d0711da11c0931e02c1b5e73453d174556633fba129db715006b0b7edac",
    ("shifted-greedy", 1000, 0): "c2cd503cbafaee92adc0209b38c73e86817e2f00aa8e699df49d78f3d9ab48ce",
    ("shifted-schinzel", 101, "search"): "aa98375d89603e089ca73d2def59a94d5c4890de70df0f5ed0a5833a76141125",
    ("shifted-schinzel", 101, 0): "4b880d9038ed11d6b989a93316f422d4f56ab42285f9da85a681f21fe3bf02c5",
    ("shifted-schinzel", 311, "search"): "5a608622d15e4cee6e20278e5ca556ced829cc3568347251169f4ad1c1fb873d",
    ("shifted-schinzel", 311, 0): "02dff673f3386e57e254fd99c665bee9b5a12db8a8d17a72a32e55ef7e2320b2",
    ("shifted-schinzel", 1000, "search"): "e3c4670c0f1c3793a4bdb992f69cd759f8d289dacc12c432479d9d8d7633ad97",
    ("shifted-schinzel", 1000, 0): "e83bbd7e6baebfa1253506e76122b1de1b48ecdcbe06aae280c9bd90f68105db",
}


@pytest.mark.parametrize("method, k, shift", sorted(GOLDEN_RUNS, key=str))
def test_golden_sieve_run_digest(method, k, shift):
    run = SHIFTED_RUNS[method](k, SieveConfig(method=method, shift=shift))
    record = repr((run.tuple.offsets, run.s, run.m, run.classes))
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_RUNS[(method, k, shift)]


def record(run):
    return run.tuple.offsets, run.s, run.m, run.classes


def counting(monkeypatch, refuse=frozenset()):
    """Replace sieves._window_admissible by a wrapper that refuses the
    windows whose offsets (as bytes) are in refuse, and lists every call as
    (window bytes, diameter, answer)."""
    calls = []

    def wrapper(offs, primes):
        answer = offs.tobytes() not in refuse and _window_admissible(offs, primes)
        calls.append((offs.tobytes(), int(offs[-1] - offs[0]), answer))
        return answer

    monkeypatch.setattr(sieves, "_window_admissible", wrapper)
    return calls


class TestShiftSearchPruning:
    """A run of the shift search skips the admissibility tests that cannot
    make it beat the best diameter so far; the search must still give the
    run that testing every visited level gives (the reference oracle)."""

    @pytest.mark.parametrize("ks", [range(2, 201), [1000], [5511]], ids=["2-200", "1000", "5511"])
    def test_matches_plain_search(self, ks):
        for k in ks:
            assert record(shifted_schinzel_run(k)) == record(plain_shifted_schinzel_run(k)), k

    @pytest.mark.parametrize("k", [101, 1000])
    def test_beat_bound(self, k):
        # None when beat <= the plain run's diameter, the plain run otherwise
        ps, pi_k, x_hint = schinzel_inputs(k)
        for s in (0, k, -k // 2, 3 * k):
            plain = plain_schinzel_run(k, s, ps, pi_k, x_hint)
            d = plain.diameter
            assert record(_schinzel_run(k, s, ps, pi_k, x_hint)) == record(plain)
            for beat in (1, d - 1, d):
                assert _schinzel_run(k, s, ps, pi_k, x_hint, beat=beat) is None, (s, beat)
            for beat in (d + 1, 2 * d):
                assert record(_schinzel_run(k, s, ps, pi_k, x_hint, beat=beat)) == record(plain)

    def test_refused_untested_level(self, monkeypatch):
        # force the branch that no real input has reached: a level that the
        # pruned bisection took as passing untested fails its later test
        k = 1000
        ps, pi_k, x_hint = schinzel_inputs(k)
        s = shifted_schinzel_run(k).s
        plain = plain_schinzel_run(k, s, ps, pi_k, x_hint)
        beat = plain.diameter + 1
        calls = counting(monkeypatch)
        assert record(_schinzel_run(k, s, ps, pi_k, x_hint, beat=beat)) == record(plain)
        # the pruned run tests a window as wide as beat only at an untested level
        untested = [w for w, diameter, _ in calls if diameter >= beat]
        assert untested

        calls = counting(monkeypatch, refuse={untested[0]})
        assert _schinzel_run(k, s, ps, pi_k, x_hint, beat=beat) is None
        assert any(w == untested[0] for w, _, _ in calls)
        assert plain_schinzel_run(k, s, ps, pi_k, x_hint).diameter >= beat

        calls = counting(monkeypatch, refuse={untested[0]})
        pruned = shifted_schinzel_run(k)
        assert any(w == untested[0] for w, _, _ in calls)
        assert record(pruned) == record(plain_shifted_schinzel_run(k))

    def test_fewer_window_tests(self, monkeypatch):
        calls = counting(monkeypatch)
        shifted_schinzel_run(1000)
        pruned = len(calls), sum(answer for _, _, answer in calls)
        calls.clear()
        plain_shifted_schinzel_run(1000)
        plain = len(calls), sum(answer for _, _, answer in calls)
        assert pruned[0] < plain[0] and pruned[1] < plain[1], (pruned, plain)

    def test_window_tests_at_5511(self, monkeypatch):
        calls = counting(monkeypatch)
        shifted_schinzel_run(5511)
        assert len(calls) <= 100 and sum(answer for _, _, answer in calls) <= 25
