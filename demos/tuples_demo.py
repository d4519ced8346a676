"""Constructing narrow admissible tuples.

Walks the five constructions at a moderate size, compares their diameters,
and shows the round-trip encodings (gap form and residue sieve files).
"""

import tempfile
from pathlib import Path

from primegaps.admissible import decode_gaps, encode_gaps, is_admissible
from primegaps.sieves import (
    SieveConfig,
    apply_residue_sieve,
    shifted_greedy_run,
    sieve_eratosthenes,
    sieve_hensley_richards,
    sieve_k_primes_past_k,
    sieve_shifted_greedy,
    sieve_shifted_schinzel,
    write_residue_sieve,
)

K = 311

print(f"constructions at k = {K} (smaller diameter is better)\n")
rows = [
    ("k primes past k", sieve_k_primes_past_k(K)),
    ("eratosthenes", sieve_eratosthenes(K)),
    ("hensley-richards", sieve_hensley_richards(K)),
    ("shifted schinzel", sieve_shifted_schinzel(K, SieveConfig(method="shifted-schinzel"))),
    ("shifted greedy", sieve_shifted_greedy(K, SieveConfig(method="shifted-greedy"))),
]
for name, t in rows:
    assert is_admissible(t) and t.k == K
    print(f"  {name:18s} diameter {t.diameter}")

best = min(rows, key=lambda r: r[1].diameter)[1]
print(f"\nbest tuple starts {best.offsets[:8]}...")

gaps = encode_gaps(best)
assert decode_gaps(gaps).offsets == best.offsets
blob = gaps.to_bytes()
print(f"gap encoding: {len(blob)} bytes for {best.k} offsets "
      f"(first gap values {gaps.gaps[:10]})")

run = shifted_greedy_run(K, SieveConfig(method="shifted-greedy", shift=0))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sieve.txt"
    write_residue_sieve(path, run)
    again = apply_residue_sieve(path)
    print(f"residue sieve file reproduces the greedy tuple: {again.offsets == run.tuple.offsets}")
    print("file header:", path.read_text().splitlines()[0])
