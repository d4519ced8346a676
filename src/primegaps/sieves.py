"""Constructions of narrow admissible k-tuples.

Five constructions, ordered by typical output quality:

  * k primes past k (fully sieved, no search),
  * sieve of Eratosthenes with decremental start index,
  * symmetric interval around the origin (the classical improvement),
  * shifted interval keeping even survivors, with shift search,
  * shifted greedy: minimally occupied residue classes for large primes.

All sieving uses numpy arrays over the interval.  Inside the Schinzel and
greedy loops a candidate window is tested only against the primes p <= k
not sieved yet: 2 and every sieved prime leave a class empty by
construction, so the test (``admissible._window_admissible``) gives the
same answer as ``is_admissible``.  Each emitted tuple then passes the full
``is_admissible`` once.  Eratosthenes and Hensley-Richards are one
push-down loop (``_push_down``) over a window given as data: signed runs
of consecutive primes, plus the units -1 and 1 for Hensley-Richards.

The Schinzel shift search keeps a run only if it ends strictly narrower
than the best so far, so each run after the seed is bounded by that
diameter.  The best window's diameter at start-prime level m never falls
as m rises (a higher level's survivors are a subset of a lower one's), so
the levels whose best window is already too wide form a tail that the
run's bisection crosses without testing.  Skipping those tests is exact:
a run that would cross the tail for real, or whose skipped levels fail
when tested, ends too wide to be kept (``_schinzel_run``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import (
    BITMAP_MAX_SPREAD,
    Tuple,
    _bitmap_length,
    _classes_covered,
    _tuple_bitmap,
    _window_admissible,
    is_admissible,
    read_int,
)
from .primes import nth_prime_bound, primes_upto

__all__ = [
    "SieveConfig",
    "SieveRun",
    "sieve_k_primes_past_k",
    "sieve_eratosthenes",
    "sieve_hensley_richards",
    "sieve_shifted_schinzel",
    "sieve_shifted_greedy",
    "shifted_schinzel_run",
    "shifted_greedy_run",
    "write_residue_sieve",
    "apply_residue_sieve",
]

METHODS = (
    "eratosthenes",
    "k-primes-past-k",
    "hensley-richards",
    "shifted-schinzel",
    "shifted-greedy",
)

#: factor by which a too-short interval grows (plus 64) until k survive
GROWTH = 1.05
#: the greedy sieve removes 0 mod each prime up to this multiple of
#: sqrt(k log k), then one least-occupied class for each larger prime up to k
GREEDY_MULTIPLIER = 2.0
#: how many spread-out anchor shifts the shift search refines
REFINE_TOP = 6


@dataclass(frozen=True)
class SieveConfig:
    """Settings of the shifted sieves.

    shift: integer start of the interval, or "search" for a coarse scan of
    [-x/2, x/2] (stride max(1, x//1000)) refined locally around the best
    REFINE_TOP hits.  batch_size controls greedy class selection: classes
    within a batch are chosen against the survivor set frozen at batch
    start, so results are deterministic for a given batch size.
    """

    method: str = "shifted-schinzel"
    shift: object = "search"
    batch_size: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sieve method {self.method!r}")
        if self.shift != "search" and not isinstance(self.shift, int):
            raise ValueError("shift must be an integer or 'search'")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class SieveRun:
    """A constructed tuple plus the sieve data that produced it."""

    tuple: Tuple
    k: int
    s: int = 0
    m: int = 0
    classes: tuple = ()  # (prime index (1-based), residue) pairs past index m

    @property
    def diameter(self) -> int:
        return self.tuple.diameter


def _primes_with_index(k: int):
    """All primes up to p_{pi(k)+k}; returns (primes, pi(k))."""
    approx = int(k / max(math.log(max(k, 3)), 1.0)) + k + 10
    ps = primes_upto(nth_prime_bound(approx))
    pi_k = int(np.searchsorted(ps, k, side="right"))
    while len(ps) < pi_k + k:
        ps = primes_upto(int(ps[-1] * 1.3) + 100)
    return ps, pi_k


def sieve_k_primes_past_k(k: int) -> Tuple:
    """The k consecutive primes following k; admissible without search."""
    if k < 2:
        raise ValueError("k must be >= 2")
    ps, pi_k = _primes_with_index(k)
    return Tuple(tuple(int(p) for p in ps[pi_k : pi_k + k]))


def _window(ps, m: int, sides, units=()) -> np.ndarray:
    """The sorted union of units with sign * (p_{m+1}, ..., p_{m+count})
    for each (sign, count) in sides."""
    parts = [sign * ps[m : m + count] for sign, count in sides]
    return np.sort(np.concatenate(parts + [np.array(units, dtype=np.int64)]))


def _push_down(ps, pi_k: int, sides, units=()) -> int:
    """Decrement the start index m from pi(k) while the window at m - 1
    leaves a class free modulo the newly exposed prime p_m.

    One bitmap follows the window: each step sets sign * p_m and clears
    sign * p_{m-1+count} on each side, then asks the column test on the
    span of the units and of each side's new ends.  Sides with count 0 are
    dropped.  The bitmap spans every window from m = 0 to m = pi(k).
    """
    sides = [(sign, count) for sign, count in sides if count]
    extremes = list(units) + [sign * int(ps[i]) for sign, count in sides for i in (0, pi_k - 1 + count)]
    base = min(extremes)
    length = _bitmap_length(max(extremes) - base + 1, int(ps[pi_k - 1]))
    bits = _tuple_bitmap(_window(ps, pi_k, sides, units), base, length)
    m = pi_k
    while m >= 1:
        p = int(ps[m - 1])
        ends = list(units)
        for sign, count in sides:
            bits[sign * p - base] = True
            bits[sign * int(ps[m - 1 + count]) - base] = False
            ends += [sign * p, sign * int(ps[m - 2 + count])]
        lo, hi = min(ends), max(ends)
        if _classes_covered(bits, lo - base, hi - lo + 1, p):
            break
        m -= 1
    return m


def _decremental_tuple(k: int, sides, units=()) -> Tuple:
    """The ``_window`` at the start index that ``_push_down`` reaches,
    pushed back up until the window is admissible."""
    if k < 2:
        raise ValueError("k must be >= 2")
    ps, pi_k = _primes_with_index(k)
    m = _push_down(ps, pi_k, sides, units)
    while not is_admissible(offs := _window(ps, m, sides, units)):
        m += 1
    return Tuple(tuple(int(v) for v in offs))


def sieve_eratosthenes(k: int) -> Tuple:
    """k consecutive primes (p_{m+1}, ..., p_{m+k}), m pushed down greedily."""
    return _decremental_tuple(k, [(1, k)])


def sieve_hensley_richards(k: int) -> Tuple:
    """Symmetric tuple (-p_{m+k/2-1}, ..., -1, 1, ..., p_{m+(k+1)/2-1}),
    with the start index pushed down as in ``sieve_eratosthenes``."""
    return _decremental_tuple(k, [(-1, k // 2 - 1), (1, (k + 1) // 2 - 1)], units=(-1, 1))


# ---------------------------------------------------------------------------
# shifted interval sieves
# ---------------------------------------------------------------------------


def _structural_mask(s: int, length: int, odd_primes) -> np.ndarray:
    """Keep even values in [s, s+length); kill 0 mod each listed odd prime."""
    mask = np.ones(length, dtype=bool)
    mask[(1 - s) % 2 :: 2] = False  # remove odd values
    for p in odd_primes:
        p = int(p)
        mask[(-s) % p :: p] = False
    return mask


def _least_sieving_index(s: int, length: int, ps, pi_k: int) -> np.ndarray:
    """Per value v of [s, s+length): 0 for odd v, else the least i in
    1..pi_k-1 with ps[i] | v, or pi_k if there is none.  The survivors of
    sieving 2 and ps[1:m] are the entries >= m, for every m in 1..pi_k."""
    lsi = np.full(length, pi_k, dtype=np.int32)
    for i in range(pi_k - 1, 0, -1):  # descending, so the least index lands last
        p = int(ps[i])
        r = (-s) % p
        if (s + r) % 2:
            r += p
        lsi[r :: 2 * p] = i  # the even multiples of p
    lsi[(1 - s) % 2 :: 2] = 0
    return lsi


def _best_window(surv: np.ndarray, k: int):
    """k consecutive survivors minimizing the diameter; None if too few."""
    if len(surv) < k:
        return None
    diffs = surv[k - 1 :] - surv[: len(surv) - k + 1]
    i = int(np.argmin(diffs))
    return surv[i : i + k], int(diffs[i])


def _schinzel_run(
    k: int, s: int, ps, pi_k: int, x_hint: int, beat: int | None = None
) -> SieveRun | None:
    """Best admissible window of [s, s+x] at the minimal start-prime index.

    x is grown geometrically from the hint until the fully sieved interval
    holds at least k survivors (so every sieve level does); the start-prime
    index is then minimized by bisection on window admissibility.  One
    ``_least_sieving_index`` array gives the survivors of every level m,
    and the window at level m is tested against ps[m:pi_k] only, since 2
    and ps[1:m] are sieved.  The top level pi_k leaves no prime to test.

    With ``beat``, the run returns None unless it ends with a diameter
    below beat, and skips the tests that cannot change that.  The best
    diameter D(m) at level m never falls as m rises, since the survivors
    of a higher level are a subset of a lower one's.  So a bisection on D
    finds cut, the least level with D(cut) >= beat, and the admissibility
    bisection takes every level >= cut as passing untested, recording it.
    This is exact.  Up to the first recorded level that would fail, the
    pruned path is the real one.  At that level the real path moves past
    cut, and it ends at a level >= cut.  So a run that ends at or above
    cut, or whose recorded levels do not all pass when tested, would end
    with a diameter >= beat, and gives None.
    """
    x = max(x_hint, 64)
    span = -1
    while True:
        if x > span:  # an entry depends on its value only, so prefixes serve every x
            span = 2 * x
            lsi = _least_sieving_index(s, span + 1, ps, pi_k)
        if int(np.count_nonzero(lsi[: x + 1] >= pi_k)) >= k:
            break
        x = int(x * GROWTH) + 64
    lsi = lsi[: x + 1]

    def window(m):
        """(offsets, diameter) of the best window when sieving the primes
        below p_m."""
        return _best_window(np.flatnonzero(lsi >= m).astype(np.int64) + s, k)

    def admissible(m):
        return _window_admissible(window(m)[0], ps[m:pi_k])

    cut = pi_k + 1  # no level reaches beat
    if beat is not None:
        lo = 1
        while lo < cut:
            mid = (lo + cut) // 2
            if window(mid)[1] >= beat:
                cut = mid
            else:
                lo = mid + 1
    lo, hi = 1, pi_k
    untested = []
    while lo < hi:
        mid = (lo + hi) // 2
        if mid >= cut:
            untested.append(mid)
            hi = mid
        elif admissible(mid):
            hi = mid
        else:
            lo = mid + 1
    if hi >= cut or not all(admissible(m) for m in untested):
        return None
    return SieveRun(Tuple(tuple(int(v) for v in window(hi)[0])), k=k, s=s, m=hi)


def _shift_candidates(k: int, ps, m_ref: int, x_hint: int):
    """Rank anchor shifts by the anchored-window diameter at a reference
    sieve level (every anchor in the range is scored via one global sieve)."""
    lo, hi = -(x_hint // 2), x_hint // 2
    pad = x_hint + 64
    mask = _structural_mask(lo, hi - lo + pad, ps[1:m_ref])
    surv = np.flatnonzero(mask).astype(np.int64) + lo
    if len(surv) < k:
        return [], max(1, x_hint // 1000)
    diams = surv[k - 1 :] - surv[: len(surv) - k + 1]
    anchors = surv[: len(surv) - k + 1]
    keep = anchors <= hi
    order = np.argsort(diams[keep], kind="stable")
    scored = [(int(diams[keep][i]), int(anchors[keep][i])) for i in order[: 4 * REFINE_TOP]]
    # spread the candidates: drop anchors within half a window of a better one
    chosen = []
    for d, s in scored:
        if all(abs(s - c) > x_hint // 8 for _, c in chosen):
            chosen.append((d, s))
        if len(chosen) >= REFINE_TOP:
            break
    return chosen, max(1, x_hint // 1000)


def _gate(run: SieveRun) -> SieveRun:
    """The one full admissibility test of an emitted tuple."""
    if not is_admissible(run.tuple):  # pragma: no cover - the loops test every kept window
        raise ArithmeticError(f"constructed {run.k}-tuple failed admissibility")
    return run


def sieve_shifted_schinzel(k: int, cfg: SieveConfig | None = None) -> Tuple:
    """Shifted even-survivor sieve; see SieveConfig for the search policy."""
    return shifted_schinzel_run(k, cfg).tuple


def shifted_schinzel_run(k: int, cfg: SieveConfig | None = None) -> SieveRun:
    """The shifted Schinzel tuple with its shift s and start-prime index m,
    ready for ``write_residue_sieve``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cfg = cfg or SieveConfig(method="shifted-schinzel")
    ps, pi_k = _primes_with_index(k)
    x_hint = int(k * (math.log(max(k, 3)) + 1.0)) + 64
    if cfg.shift != "search":
        return _gate(_schinzel_run(k, int(cfg.shift), ps, pi_k, x_hint))
    seed = _schinzel_run(k, k, ps, pi_k, x_hint)
    scored, stride = _shift_candidates(k, ps, seed.m, x_hint)
    best = seed
    for _, s in scored:
        best = _schinzel_run(k, s, ps, pi_k, x_hint, beat=best.diameter) or best
    fine = max(1, stride // 10)
    for s in range(best.s - stride, best.s + stride + 1, fine):
        best = _schinzel_run(k, s, ps, pi_k, x_hint, beat=best.diameter) or best
    return _gate(best)


def _greedy_sieve(k: int, surv: np.ndarray, primes, batch_size: int):
    """Greedy sieve of the survivors by one class per prime, batch by batch.

    Each prime's class is its least occupied residue (ties to the smallest
    value), chosen against the survivors at batch start; a batch's classes
    are removed at once, so the result is deterministic for a given batch
    size.  Sieving stops after the first batch whose best window is
    admissible.  That window is tested against the primes not sieved yet
    only, since each sieved prime leaves its picked class empty.  Returns
    the window (None if fewer than k survive) and the (prime, class) picks.
    """
    primes = [int(p) for p in primes]
    picks = []
    for i in range(0, len(primes), batch_size):
        keep = np.ones(len(surv), dtype=bool)
        for p in primes[i : i + batch_size]:
            residues = surv % p
            cls = int(np.argmin(np.bincount(residues, minlength=p)))
            keep &= residues != cls
            picks.append((p, cls))
        surv = surv[keep]
        win = _best_window(surv, k)
        if win is None or _window_admissible(win[0], primes[i + batch_size :]):
            return win, picks
    return _best_window(surv, k), picks


def _greedy_pass(k: int, s: int, x: int, batch_size: int, ps, pi_k):
    threshold = GREEDY_MULTIPLIER * math.sqrt(k * math.log(max(k, 3)))
    n_struct = int(np.searchsorted(ps, threshold, side="right"))
    mask = _structural_mask(s, x + 1, ps[1:n_struct])
    surv = np.flatnonzero(mask).astype(np.int64) + s
    win, picks = _greedy_sieve(k, surv, ps[max(n_struct, 1) : pi_k], batch_size)
    return win, picks, n_struct


def _greedy_run(k: int, s: int, batch_size: int, ps, pi_k, x_start: int) -> SieveRun:
    """Greedy sieve at a fixed shift, tightening the interval toward the
    achieved diameter (smaller intervals focus the class choices on the
    window that matters, which measurably narrows the result)."""
    x = x_start
    best = None
    for _ in range(4):
        win, picks, n_struct = _greedy_pass(k, s, x, batch_size, ps, pi_k)
        while win is None:  # interval too tight for k survivors
            x = int(x * GROWTH) + 64
            win, picks, n_struct = _greedy_pass(k, s, x, batch_size, ps, pi_k)
        t = Tuple(tuple(int(v) for v in win[0]))
        entries = tuple((int(np.searchsorted(ps, p)) + 1, cls) for p, cls in picks)
        run = SieveRun(t, k=k, s=s, m=n_struct, classes=entries)
        if best is not None and run.diameter >= best.diameter:
            break
        best = run
        tight = best.diameter + max(64, best.diameter // 256)
        if tight >= x:
            break
        x = tight
    return best


def sieve_shifted_greedy(k: int, cfg: SieveConfig | None = None) -> Tuple:
    """Greedy minimally-occupied-class sieve; see SieveConfig."""
    return shifted_greedy_run(k, cfg).tuple


def shifted_greedy_run(k: int, cfg: SieveConfig | None = None) -> SieveRun:
    """The shifted greedy tuple with its shift s, structural index m and
    picked classes, ready for ``write_residue_sieve``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cfg = cfg or SieveConfig(method="shifted-greedy")
    ps, pi_k = _primes_with_index(k)
    logk = math.log(max(k, 3))
    x_hint = int(k * (logk + 1.0)) + 64
    if cfg.shift != "search":
        return _gate(_greedy_run(k, int(cfg.shift), cfg.batch_size, ps, pi_k, x_hint))
    seed = _schinzel_run(k, k, ps, pi_k, x_hint)
    scored, stride = _shift_candidates(k, ps, seed.m, x_hint)
    seeds = [s for _, s in scored] + [0, k, int((k - k / logk) / 2)]
    best = None
    for s in dict.fromkeys(seeds):
        run = _greedy_run(k, s, cfg.batch_size, ps, pi_k, x_hint)
        if best is None or run.diameter < best.diameter:
            best = run
    fine = max(1, stride // 4)
    for s in (best.s - fine, best.s + fine):
        run = _greedy_run(k, s, cfg.batch_size, ps, pi_k, x_hint)
        if run.diameter < best.diameter:
            best = run
    return _gate(best)


# ---------------------------------------------------------------------------
# residue-class sieve files
# ---------------------------------------------------------------------------


def write_residue_sieve(path, run: SieveRun) -> None:
    """Header 'k s d m', then 'n_i r_i' lines (or 'n_i' for residue 0).

    Applying the file reproduces the tuple: sieving [s, s+d] of odd values,
    multiples of p_n for 1 < n <= m, and class r_i mod p_{n_i}.
    """
    t = run.tuple
    with open(path, "w") as fh:
        fh.write(f"{run.k} {t.offsets[0]} {t.diameter} {run.m}\n")
        for n_i, r_i in run.classes:
            if r_i == 0:
                fh.write(f"{n_i}\n")
            else:
                fh.write(f"{n_i} {r_i}\n")


def apply_residue_sieve(path) -> Tuple:
    """Reconstruct and verify the tuple described by a residue sieve file.

    Raises ValueError with a one-line message on any malformed file.
    """
    with open(path) as fh:
        lines = [fields for ln in fh if (fields := ln.split("#", 1)[0].split())]
    if not lines:
        raise ValueError("residue sieve file is empty")
    try:
        rows = [[read_int(v) for v in fields] for fields in lines]
    except ValueError:
        raise ValueError("residue sieve file holds a non-integer field") from None
    if len(rows[0]) != 4:
        raise ValueError(f"residue sieve header must be 'k s d m', got {len(rows[0])} fields")
    k, s, d, m = rows[0]
    if k < 1 or d < 0 or m < 0:
        raise ValueError(f"residue sieve header needs k >= 1, d >= 0, m >= 0, got {k} {s} {d} {m}")
    # The survivors are even values of [s, s+d], of which there are at most
    # d/2 + 1, so a larger k cannot be met whatever the entries say.
    if k > d // 2 + 1:
        raise ValueError(f"residue sieve header asks for k = {k} even survivors, "
                         f"but [s, s+d] holds at most d/2 + 1 = {d // 2 + 1}")
    # The window is a bitmap of d + 1 entries and the primes are listed up
    # to p_max(m, n_i), so both are bounded before anything is allocated.
    # The constructions sieve by primes p_n <= k only, and n < p_n, so every
    # file they write has m <= k and n_i <= k.
    if d > BITMAP_MAX_SPREAD * k:
        limit = BITMAP_MAX_SPREAD * k
        raise ValueError(f"residue sieve diameter {d} exceeds {BITMAP_MAX_SPREAD} * k = {limit}")
    if m > k:
        raise ValueError(f"residue sieve header needs m <= k = {k}, got {m}")
    entries = []
    for row in rows[1:]:
        if len(row) not in (1, 2):
            raise ValueError(f"residue sieve line must be 'n_i r_i' or 'n_i', got {len(row)} fields")
        if row[0] < 1:
            raise ValueError(f"prime index n_i must be >= 1, got {row[0]}")
        if row[0] > k:
            raise ValueError(f"prime index n_i must be <= k = {k}, got {row[0]}")
        entries.append((row[0], row[1] if len(row) == 2 else 0))
    ps = primes_upto(nth_prime_bound(max([m] + [n for n, _ in entries] + [2]) + 10))
    mask = _structural_mask(s, d + 1, ps[1:m])
    for n_i, r_i in entries:
        p = int(ps[n_i - 1])
        start = (r_i - s) % p
        mask[start::p] = False
    surv = np.flatnonzero(mask).astype(np.int64) + s
    if len(surv) != k:
        raise ValueError(f"sieve file yields {len(surv)} survivors, expected {k}")
    t = Tuple(tuple(int(v) for v in surv))
    if not is_admissible(t):
        raise ValueError("sieve file survivors are not admissible")
    return t


def find_tuple(k: int, cfg: SieveConfig) -> Tuple:
    """Dispatch on cfg.method."""
    if cfg.method == "k-primes-past-k":
        return sieve_k_primes_past_k(k)
    if cfg.method == "eratosthenes":
        return sieve_eratosthenes(k)
    if cfg.method == "hensley-richards":
        return sieve_hensley_richards(k)
    if cfg.method == "shifted-schinzel":
        return sieve_shifted_schinzel(k, cfg)
    return sieve_shifted_greedy(k, cfg)
