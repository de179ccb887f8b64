"""Write braid_pool.json, the word pool braid-sweep-z samples from.

    python3 bench/make_pool.py        # from the root of a khcube checkout

For each (strands, letters) class of braid-sweep-z the pool holds
``POOL_SIZE`` distinct random words in which every generator occurs,
drawn from a fixed seed, each with the number of generators of its
closure's Khovanov complex (the sum of 2^circles over the cube's states,
a property of the diagram), sorted by that number.  braid-sweep-z draws
one word from each of equal slices of this order, so every seed gets
words of the same spread of sizes; see ``BraidSweepZ``.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from khcube import braids, khovanov  # noqa: E402

POOL_SIZE = 240
STRANDS = (3, 4)
LETTERS = (6, 7, 8)
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "braid_pool.json")


def random_words(rng: random.Random, strands: int, letters: int):
    seen = set()
    while len(seen) < POOL_SIZE:
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(letters))
        if {abs(x) for x in word} == set(range(1, strands)):
            seen.add(word)
    return sorted(seen)


def main() -> int:
    pool = {}
    for k in STRANDS:
        for n in LETTERS:
            rng = random.Random(f"braid-pool-{k}-{n}")
            sized = [(khovanov.assemble(braids.braid_closure(
                list(w), strands=k)).total_generators, list(w))
                for w in random_words(rng, k, n)]
            pool[f"{k}-{n}"] = sorted(sized)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
