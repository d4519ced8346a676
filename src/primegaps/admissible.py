"""Admissible k-tuples: representation, testing, small exact diameters.

A k-tuple of increasing integers is admissible when, for every prime p,
its elements avoid at least one residue class mod p.  Only primes p <= k
matter: k residues can never cover all p > k classes.

``_window_admissible`` marks sorted offsets in a boolean bitmap over their
diameter and asks, per given prime p, first whether the absolute class 0
mod p is empty (a strided slice of the bitmap), and only if it is not,
whether the columns of the bitmap folded into rows of p are all occupied.
``is_admissible`` runs it over every prime p <= k.  The shifted sieves run
it inside their loops over the primes they have not sieved yet (a sieved
prime leaves a class empty by construction) and gate each emitted tuple
with the full ``is_admissible``.  The decremental sieves keep such a
bitmap of their moving window and ask the same column test.
``covers_all_classes`` enumerates residues directly, for tuples too sparse
for a bitmap.  ``read_int`` is the one integer grammar of every file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .primes import primes_upto

__all__ = [
    "Tuple",
    "covers_all_classes",
    "GapEncoding",
    "is_admissible",
    "h_exact_small",
    "encode_gaps",
    "decode_gaps",
    "read_int",
    "read_tuple_file",
    "write_tuple_file",
]


@dataclass(frozen=True)
class Tuple:
    """Strictly increasing integer offsets (h_1, ..., h_k)."""

    offsets: tuple

    def __post_init__(self):
        offs = tuple(int(h) for h in self.offsets)
        if len(offs) < 1:
            raise ValueError("tuple must have k >= 1 elements")
        for a, b in zip(offs, offs[1:]):
            if a >= b:
                raise ValueError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets", offs)

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def diameter(self) -> int:
        return self.offsets[-1] - self.offsets[0]

    def shifted(self, c: int) -> "Tuple":
        return Tuple(tuple(h + c for h in self.offsets))

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self):
        return iter(self.offsets)


@dataclass(frozen=True)
class GapEncoding:
    """Tuple stored as its first element plus k-1 positive gaps."""

    first: int
    gaps: tuple

    def __post_init__(self):
        gaps = tuple(int(g) for g in self.gaps)
        if any(g <= 0 for g in gaps):
            raise ValueError("gaps must be positive")
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "first", int(self.first))

    def to_bytes(self) -> bytes:
        """One byte per gap < 256; 0x00 escape + 8 bytes otherwise (gaps are
        positive, so the zero byte is free to mark the escape form)."""
        out = bytearray(self.first.to_bytes(8, "big", signed=True))
        for g in self.gaps:
            if g < 256:
                out.append(g)
            else:
                out.append(0x00)
                out += g.to_bytes(8, "big")
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "GapEncoding":
        if len(data) < 8:
            raise ValueError("malformed gap stream: missing header")
        first = int.from_bytes(data[:8], "big", signed=True)
        gaps = []
        i = 8
        n = len(data)
        while i < n:
            b = data[i]
            i += 1
            if b == 0x00:
                if i + 8 > n:
                    raise ValueError("malformed gap stream: truncated escape")
                g = int.from_bytes(data[i : i + 8], "big")
                if g < 256:
                    raise ValueError("malformed gap stream: non-canonical escape")
                gaps.append(g)
                i += 8
            else:
                gaps.append(b)
        return cls(first, tuple(gaps))


def encode_gaps(t: Tuple) -> GapEncoding:
    offs = t.offsets
    return GapEncoding(offs[0], tuple(b - a for a, b in zip(offs, offs[1:])))


def decode_gaps(g: GapEncoding) -> Tuple:
    offs = [g.first]
    for gap in g.gaps:
        offs.append(offs[-1] + gap)
    return Tuple(tuple(offs))


def _as_array(t) -> np.ndarray:
    if isinstance(t, np.ndarray):
        offs = t.astype(np.int64, copy=False)
    else:
        offs = np.asarray(t.offsets if isinstance(t, Tuple) else tuple(t), dtype=np.int64)
    if len(offs) == 0:
        raise ValueError("k = 0 is not allowed")
    return offs


def covers_all_classes(offs: np.ndarray, p: int) -> bool:
    """Do the offsets meet every residue class mod p?  Enumerates them, in
    O(k) memory: is_admissible's path for tuples too sparse for a bitmap."""
    return bool((np.bincount(offs % p, minlength=p) > 0).all())


# Tuples with diameter above BITMAP_MAX_SPREAD * k are enumerated prime by
# prime in O(k) memory.  Measured on random admissible tuples (2-vCPU Xeon):
# when class 0 is occupied for every prime, so each prime needs the column
# test, the bitmap and the enumeration break even at a diameter of about
# 100k at k = 1000 (both ~2 ms), 200k at k = 5511 and 300k at k = 35410;
# at 64k the bitmap is 1.3x, 2.5x and 6x faster, and more when the class-0
# probe settles the primes.  64 keeps the bitmap on every construction in
# ``sieves`` (diameter about k log k: 14k at k = 309661), caps it at 64
# bytes per element, and sends sparse tuples such as (0, 2, 10**13) to the
# enumeration.
BITMAP_MAX_SPREAD = 64

# numpy ORs the columns of a (rows, p) array one row at a time, which for
# small p costs ~20 ns per row; folding rows of at least _FOLD entries first
# makes the column test ~20-40 us at diameter 4e5 for every p.
_FOLD = 1024

# For p >= _FOLD the column test first reads only the first _PROBE_COLUMNS
# classes of each row; with about k/p occupants per class one of them is
# usually free.  Measured against the full read (three runs each): shifted
# Schinzel at k = 5511 takes 1.1-1.4 s instead of 1.4-1.9 s (measured
# before its shift search skipped the tests of runs that cannot beat the
# best diameter), shifted greedy 1.75-1.84 s instead of 2.0-2.2 s, and the
# test of the Hensley-Richards tuple at k = 309661 1.4 s instead of 6.6 s
# (2.5 s with 16 columns; 256 columns are no faster on the first two).
_PROBE_COLUMNS = 64


def _tuple_bitmap(offs: np.ndarray, lo: int, length: int) -> np.ndarray:
    """Boolean array marking offs - lo, of the given length (zero padded)."""
    bits = np.zeros(length, dtype=bool)
    bits[offs - lo] = True
    return bits


def _bitmap_length(n: int, pmax: int) -> int:
    """Bitmap length that lets _classes_covered test a span of n entries
    for every prime p <= pmax."""
    return n + pmax + _FOLD


def _classes_covered(bits: np.ndarray, start: int, n: int, p: int) -> bool:
    """Column test: do the marks in bits[start : start+n] meet every class
    mod p?  Folds the span into rows of width p * ceil(_FOLD / p), ORs the
    columns, then folds those into rows of p and ORs again; no integer
    division touches the data.  bits must be zero for _bitmap_length's
    padding past start + n."""
    width = p * -(-_FOLD // p)
    rows = -(-n // width)
    table = bits[start : start + rows * width].reshape(rows, width)
    if width == p and not table[:, :_PROBE_COLUMNS].any(axis=0).all():
        return False
    return bool(table.any(axis=0).reshape(-1, p).any(axis=0).all())


def _window_admissible(offs: np.ndarray, primes) -> bool:
    """Bitmap test of the sorted int64 offsets against the given primes only.

    For each prime p the absolute class 0 mod p is probed first: the slice
    bitmap[(-h_1) % p :: p], O(diameter / p).  When class 0 is occupied,
    the column test ``_classes_covered`` ORs the columns of the bitmap
    folded into rows of p; the offsets fail at the first prime whose
    classes are all covered.  The caller bounds the diameter.
    """
    if len(primes) == 0:
        return True
    lo = int(offs[0])
    n = int(offs[-1]) - lo + 1
    bits = _tuple_bitmap(offs, lo, _bitmap_length(n, int(primes[-1])))
    for p in primes:
        p = int(p)
        if bits[(-lo) % p : n : p].any() and _classes_covered(bits, 0, n, p):
            return False
    return True


def is_admissible(t) -> bool:
    """Exact admissibility test: ``_window_admissible`` over every prime
    p <= k.

    Every construction in ``sieves`` empties class 0 for the primes it
    sieves, so the class-0 probe settles most primes.  A tuple whose
    diameter exceeds BITMAP_MAX_SPREAD * k is enumerated residue by residue
    instead (``covers_all_classes``), in O(k) memory.
    """
    offs = np.sort(_as_array(t))
    k = len(offs)
    ps = primes_upto(k)
    if int(offs[-1]) - int(offs[0]) > BITMAP_MAX_SPREAD * k:
        return not any(covers_all_classes(offs, int(p)) for p in ps)
    return _window_admissible(offs, ps)


def h_exact_small(k: int, dmax: int) -> int:
    """Minimal diameter of an admissible k-tuple, by exhaustive search.

    Guards: k <= 6 and dmax <= 64 keep the subset enumeration tractable.
    Raises ValueError when no admissible tuple of diameter <= dmax exists.
    """
    if not 1 <= k <= 6:
        raise ValueError("exhaustive search supports 1 <= k <= 6 only")
    if dmax > 64:
        raise ValueError("exhaustive search supports dmax <= 64 only")
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    if k == 1:
        return 0
    small_primes = [int(p) for p in primes_upto(k)]
    for d in range(k - 1, dmax + 1):
        for mid in itertools.combinations(range(1, d), k - 2):
            offs = (0,) + mid + (d,)
            ok = True
            for p in small_primes:
                if len({h % p for h in offs}) == p:
                    ok = False
                    break
            if ok:
                return d
    raise ValueError(f"no admissible {k}-tuple within diameter {dmax}")


#: the most digits an integer, or a decimal exponent, may have in a file or an
#: option: the digit count Python's int() converts by default
MAX_DIGITS = 4300


def read_int(text: str) -> int:
    """int(text) for ASCII digits after at most one sign, with no underscores,
    spaces or other characters and at most MAX_DIGITS digits: the one integer
    grammar of tuple, certificate, residue-sieve and report files.  Any other
    text raises ValueError."""
    if not (text.isascii() and (text.isdigit() or text[:1] in "+-" and text[1:].isdigit())
            and (len(text) <= MAX_DIGITS or len(text.lstrip("+-")) <= MAX_DIGITS)):
        raise ValueError("not a decimal integer")
    return int(text)


def read_tuple_file(path) -> Tuple:
    """ASCII tuple file: one offset per line, '#' comments, optional k=<int>.

    Each offset and the k value is read by read_int.  Any other line is
    refused with one ValueError that names its line number and shows at
    most its first few characters."""
    offsets = []
    declared_k = None
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                offsets.append(read_int(line))
                continue
            except ValueError:
                if not line.startswith("k="):
                    raise _not_an_integer(number, line) from None
            if declared_k is not None or offsets:
                raise ValueError(f"line {number}: k=<int> must be the first non-comment line")
            try:
                declared_k = read_int(line[2:])
            except ValueError:
                raise _not_an_integer(number, line) from None
    t = Tuple(tuple(offsets))
    if declared_k is not None and declared_k != t.k:
        raise ValueError(f"declared k={declared_k} but file has {t.k} offsets")
    return t


def _not_an_integer(number: int, line: str) -> ValueError:
    shown = line if len(line) <= 12 else line[:12] + "..."
    return ValueError(f"line {number}: {shown!r} is not a decimal integer of at most {MAX_DIGITS} digits")


def write_tuple_file(path, t: Tuple, header: str | None = None) -> None:
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"k={t.k}\n")
        for h in t.offsets:
            fh.write(f"{h}\n")
