"""The benchmark's inputs, frozen in this file.

Every fixed ideal is written out literally, one generator per string,
so no change elsewhere in the repository can alter what is measured.
The random ideals of the ``many_small`` workload come from a copy of
the generator in ``tests/conftest.py`` that works on plain index sets,
so drawing them needs nothing from the package.
"""

from __future__ import annotations

import hashlib
import json
import random

STAR_CLUSTER = (
    "a b c", "b c d", "c d f", "d e f", "e g", "f g",
    "g h", "h i", "g i", "f i", "g x", "g y",
)

# edge ideals of the 12-cycle and the 10-cycle
CYCLE12 = (
    "x0 x1", "x1 x2", "x2 x3", "x3 x4", "x4 x5", "x5 x6",
    "x6 x7", "x7 x8", "x8 x9", "x9 x10", "x10 x11", "x11 x0",
)
CYCLE10 = (
    "x0 x1", "x1 x2", "x2 x3", "x3 x4", "x4 x5",
    "x5 x6", "x6 x7", "x7 x8", "x8 x9", "x9 x0",
)

# edge ideal of a random graph on 10 vertices with 12 edges
GRAPH10 = (
    "v0 v1", "v0 v2", "v0 v7", "v1 v7", "v2 v3", "v2 v6",
    "v3 v4", "v3 v7", "v3 v8", "v4 v9", "v5 v9", "v8 v9",
)

THREE_BROOMS = ("a x", "a y", "b z", "b v", "b w", "c u", "c g", "y z", "a z")
TRIANGLE_TAIL = ("x y", "y z", "x z", "z a", "a b", "b c")
FOUR_TRIANGLES = ("a b z", "b c z", "x y z", "a x z")
PATH3 = ("x y", "y z", "z u")

# Stanley-Reisner ideal of the 6-vertex real projective plane: the ten
# triples of {1..6} that are not triangles of the triangulation.  Its
# Betti table depends on the characteristic: (1,10,15,6) in
# characteristic 0 or 3, (1,10,15,7,1) over GF(2).
RP2_6 = (
    "x1 x2 x3", "x1 x2 x5", "x1 x3 x4", "x1 x4 x6", "x1 x5 x6",
    "x2 x3 x6", "x2 x4 x5", "x2 x4 x6", "x3 x4 x5", "x3 x5 x6",
)

# sixteen edges: four 3-leaf stars joined by four bridges; searched
# exhaustively (the exhaustive threshold is 16 facets)
STARS16 = (
    "a a1", "a a2", "a a3", "b b1", "b b2", "b b3", "c c1", "c c2",
    "c c3", "d d1", "d d2", "d d3", "a1 b1", "b2 c1", "c2 d1", "d3 a3",
)

FIXED = {
    "star_cluster": STAR_CLUSTER,
    "cycle12": CYCLE12,
    "cycle10": CYCLE10,
    "graph10": GRAPH10,
    "three_brooms": THREE_BROOMS,
    "triangle_tail": TRIANGLE_TAIL,
    "four_triangles": FOUR_TRIANGLES,
    "path3": PATH3,
    "rp2_6": RP2_6,
    "stars16": STARS16,
}

SMALL_MAX_VARS = 9
SMALL_MAX_GENS = 9
DEFAULT_SEED = 1

# How many ideals of each generator count one seed contributes: the
# generator's own frequencies per thousand (estimated from 10^5 draws),
# fixed so that every seed has the same mix of sizes.  The generator
# count explains about 80% of the variance in the time one ideal takes.
QUOTA = {2: 280, 3: 194, 4: 158, 5: 135, 6: 101, 7: 70, 8: 41, 9: 21}
SMALL_COUNT = sum(QUOTA.values())


def random_ideal(rng: random.Random) -> tuple[str, ...]:
    """A random square-free ideal whose minimal basis has the drawn size.

    Draws exactly as ``random_sqf_ideal`` in ``tests/conftest.py`` does:
    a draw is rejected whole when a generator repeats, divides another,
    or some variable stays uncovered.
    """
    while True:
        n = rng.randint(3, SMALL_MAX_VARS)
        q = rng.randint(2, min(SMALL_MAX_GENS, n * (n - 1) // 2))
        gens = []
        for _ in range(q):
            degree = rng.choice((2, 2, 3, 3, min(4, n)))
            gens.append(frozenset(rng.sample(range(n), degree)))
        if len(set(gens)) != q:
            continue
        if any(a < b for a in gens for b in gens):
            continue
        if set().union(*gens) != set(range(n)):
            continue
        return tuple(" ".join(f"x{v}" for v in sorted(g)) for g in gens)


def random_ideals(seed: int) -> list[tuple[str, ...]]:
    """The seed's stream of random ideals, thinned to the quota per size."""
    rng = random.Random(seed)
    room = dict(QUOTA)
    out = []
    while len(out) < SMALL_COUNT:
        gens = random_ideal(rng)
        if room[len(gens)]:
            room[len(gens)] -= 1
            out.append(gens)
    return out


def digest(ideals) -> str:
    """sha256 of the generator lists, to catch drift in the generator."""
    blob = json.dumps([list(g) for g in ideals], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
