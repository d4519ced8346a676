import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.admissible import (
    BITMAP_MAX_SPREAD,
    GapEncoding,
    Tuple,
    decode_gaps,
    encode_gaps,
    h_exact_small,
    is_admissible,
    read_tuple_file,
    write_tuple_file,
)

from primegaps.primes import primes_upto

from .reference import is_admissible_naive, tuple_50, tuple_51, tuple_54


class TestTupleType:
    def test_basic(self):
        t = Tuple((0, 2, 6))
        assert t.k == 3 and t.diameter == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Tuple(())

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Tuple((0, 2, 2))

    def test_negative_offsets_ok(self):
        assert Tuple((-5, -1, 1)).diameter == 6


class TestAdmissibility:
    def test_known_triples(self):
        assert is_admissible(Tuple((0, 2, 6)))
        assert not is_admissible(Tuple((0, 2, 4)))
        assert is_admissible_naive(Tuple((0, 2, 6)))
        assert not is_admissible_naive(Tuple((0, 2, 4)))

    def test_singleton(self):
        assert is_admissible(Tuple((0,)))
        assert is_admissible(Tuple((17,)))

    def test_covers_mod_two(self):
        assert not is_admissible_naive(Tuple((0, 1, 2)))
        assert not is_admissible(Tuple((0, 1, 2)))

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            is_admissible([])
        with pytest.raises(ValueError):
            is_admissible_naive([])

    def test_reference_tuples(self):
        for t, diam in ((tuple_50(), 246), (tuple_51(), 252), (tuple_54(), 270)):
            assert is_admissible(t) and t.diameter == diam

    def test_oracle_equivalence_mass(self):
        # randomized equivalence of the fast tester against full enumeration
        rng = np.random.default_rng(20240811)
        cases = 0
        while cases < 10_000:
            k = int(rng.integers(1, 201))
            width = int(rng.integers(k, 6 * k + 8))
            offs = np.sort(rng.choice(width + k, size=k, replace=False))
            t = tuple(int(v) for v in offs)
            assert is_admissible(t) == is_admissible_naive(t)
            cases += 1

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 40))
            offs = np.sort(rng.choice(8 * k, size=k, replace=False))
            t = Tuple(tuple(int(v) for v in offs))
            c = int(rng.integers(-1000, 1000))
            assert is_admissible(t) == is_admissible(t.shifted(c))


class TestBitmapPaths:
    """The bitmap test against full enumeration, path by path."""

    @staticmethod
    def agree(cases):
        answers = set()
        for offs in cases:
            ok = is_admissible(offs)
            assert ok == is_admissible_naive(offs), offs
            answers.add(ok)
        return answers

    def test_negative_offsets(self):
        # Hensley-Richards shape: values on both sides of (-1, 1), drawn from
        # the primes (admissible) or from all integers (mostly not)
        rng = np.random.default_rng(11)
        cases = []
        for i in range(400):
            k = int(rng.integers(3, 80))
            pool = primes_upto(20 * k)[k // 4 :] if i % 2 else np.arange(2, 8 * k)
            side = rng.choice(pool, size=k - 2, replace=False)
            offs = np.unique(np.concatenate([-side[: k // 2], [-1, 1], side[k // 2 :]]))
            cases.append(offs)
            cases.append(offs - int(rng.integers(0, 10**6)))
        assert self.agree(cases) == {True, False}

    def test_class_zero_occupied(self):
        # 0 is a multiple of every prime, so the probe finds class 0 taken
        # and the column test decides every prime
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(2000):
            k = int(rng.integers(2, 150))
            rest = rng.choice(np.arange(1, 10 * k), size=k - 1, replace=False)
            cases.append(np.sort(np.append(rest, 0)))
        assert self.agree(cases) == {True, False}

    def test_class_zero_free(self):
        # survivors of class 0 mod every p <= k: the probe settles each prime
        rng = np.random.default_rng(13)
        cases = []
        for _ in range(300):
            k = int(rng.integers(2, 150))
            span = np.arange(-30 * k, 30 * k)
            keep = np.ones(len(span), dtype=bool)
            for p in primes_upto(k):
                keep &= span % p != 0
            cases.append(np.sort(rng.choice(span[keep], size=k, replace=False)))
        assert self.agree(cases) == {True}

    def test_sparse_past_bitmap_limit(self):
        rng = np.random.default_rng(14)
        cases = [(0, 2, 6 + 3 * 10**13), (0, 2, 10**13), (-(10**15), 0, 2, 6, 10**15)]
        for _ in range(300):
            k = int(rng.integers(2, 60))
            width = BITMAP_MAX_SPREAD * k * int(rng.integers(2, 50))
            cases.append(np.sort(rng.choice(width, size=k, replace=False)) - width // 2)
        # smallest and largest of each case lie further apart than the limit
        cases = [c for c in cases if max(c) - min(c) > BITMAP_MAX_SPREAD * len(c)]
        assert len(cases) > 250
        assert self.agree(cases) == {True, False}
        assert is_admissible((0, 2, 6 + 3 * 10**13)) and not is_admissible((0, 2, 10**13))


class TestHExactSmall:
    def test_known_minimum_k3(self):
        assert h_exact_small(3, 10) == 6

    def test_k2(self):
        assert h_exact_small(2, 4) == 2

    def test_k4_against_bruteforce_oracle(self):
        # independent oracle: enumerate all 4-subsets of [0, 10] directly
        import itertools

        best = None
        for combo in itertools.combinations(range(11), 4):
            if combo[0] != 0:
                continue
            if is_admissible_naive(combo):
                best = combo[-1] if best is None else min(best, combo[-1])
        assert best == 8
        assert h_exact_small(4, 10) == best
        assert is_admissible_naive((0, 2, 6, 8))

    def test_no_tuple_in_range(self):
        with pytest.raises(ValueError, match="no admissible"):
            h_exact_small(4, 7)

    def test_guards(self):
        with pytest.raises(ValueError):
            h_exact_small(7, 10)
        with pytest.raises(ValueError):
            h_exact_small(3, 100)


class TestGapEncoding:
    def test_example(self):
        g = encode_gaps(Tuple((0, 2, 6)))
        assert g.first == 0 and g.gaps == (2, 4)

    def test_singleton(self):
        g = encode_gaps(Tuple((5,)))
        assert g.first == 5 and g.gaps == ()
        assert decode_gaps(g).offsets == (5,)

    def test_reference_roundtrip(self):
        t = tuple_50()
        assert decode_gaps(encode_gaps(t)).offsets == t.offsets

    @given(
        st.integers(-10**9, 10**9),
        st.lists(st.integers(1, 10**6), max_size=40),
    )
    @settings(max_examples=200)
    def test_roundtrip_property(self, first, gaps):
        t = decode_gaps(GapEncoding(first, tuple(gaps)))
        assert encode_gaps(t) == GapEncoding(first, tuple(gaps))

    @given(
        st.integers(-10**6, 10**6),
        st.lists(st.integers(1, 500), max_size=30),
    )
    @settings(max_examples=200)
    def test_bytes_roundtrip(self, first, gaps):
        g = GapEncoding(first, tuple(gaps))
        assert GapEncoding.from_bytes(g.to_bytes()) == g

    def test_byte_escape(self):
        # every gap below 256 costs one byte; bigger gaps use the escape form
        g = GapEncoding(0, (254, 255, 70000))
        data = g.to_bytes()
        assert len(data) == 8 + 1 + 1 + 9
        assert GapEncoding.from_bytes(data) == g

    def test_malformed_stream(self):
        with pytest.raises(ValueError):
            GapEncoding.from_bytes(b"\x00\x01")  # truncated header
        good = GapEncoding(0, (300,)).to_bytes()
        with pytest.raises(ValueError):
            GapEncoding.from_bytes(good[:-2])  # truncated escape payload
        with pytest.raises(ValueError):
            # escape form hiding a small gap is rejected as non-canonical
            GapEncoding.from_bytes(b"\x00" * 8 + b"\x00" + (5).to_bytes(8, "big"))


class TestTupleFiles:
    def test_roundtrip(self, tmp_path):
        t = tuple_54()
        path = tmp_path / "t.txt"
        write_tuple_file(path, t, header="reference")
        assert read_tuple_file(path).offsets == t.offsets

    def test_comments_and_k(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# hi\nk=2\n0 # inline\n4\n")
        assert read_tuple_file(path).offsets == (0, 4)

    def test_k_mismatch(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("k=3\n0\n4\n")
        with pytest.raises(ValueError, match="declared k"):
            read_tuple_file(path)

    @pytest.mark.parametrize("text, number", [
        ("k=2\n0\nabc\n", 3),
        ("# a comment\n0\n" + "1" * 5001 + "\n", 3),
        ("k=abc\n0\n", 1),
        ("k=" + "1" * 5001 + "\n0\n", 1),
        ("0\n1_000\n", 2),
        ("0\n+-4\n", 2),
        ("0\n4.0\n", 2),
        ("0\n\u0664\n", 2),  # ARABIC-INDIC DIGIT FOUR
    ], ids=["word", "5001-digits", "k-word", "k-5001-digits", "underscore", "two-signs",
            "decimal-point", "non-ascii-digit"])
    def test_malformed_line_named(self, tmp_path, text, number):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^line {number}: '") as info:
            read_tuple_file(path)
        # one short message: no long echo of the line, no Python setting
        assert len(str(info.value)) < 100 and "\n" not in str(info.value)
        assert "int_max_str_digits" not in str(info.value)

    def test_widest_offsets_read(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(f"k=2\n-{'9' * 4300}\n+{'9' * 4300}\n")
        assert read_tuple_file(path).offsets == (-(10**4300 - 1), 10**4300 - 1)
