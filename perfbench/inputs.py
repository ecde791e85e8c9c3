"""Seeded input batches for the ``analyze`` workload, made without bechex.

A batch mixes three kinds of code, each written at a random rotation
and, half the time, reversed, so the program's canonicalisation has work
to do:

* random benzenoids, 2 to 16 hexagons, grown one random neighbour cell
  at a time, a cell being refused when it would close a hole;
* long family members, 9 to 64 hexagons: linear chains (L),
  parallelograms, hexagonal blocks and random unbranched chains;
* unbranched fusenes of 6 to 14 hexagons, 5 s 5 s', where the side s is
  random over {1, 2, 3} and s' is 4 - s reversed.  Their walks all
  close, and the ones that coil back on themselves, helicene-like,
  revisit a vertex and are not embeddable.

Every benzenoid's code is read off its cell set by
``geometry.boundary_code`` and checked to enclose the hexagons it was
built from.
"""

from __future__ import annotations

import random

import geometry

#: Share of each kind in a batch; the rest are fusenes.
RANDOM_SHARE = 0.55
FAMILY_SHARE = 0.15


def _present(rng: random.Random, code: str) -> str:
    if code == "6":
        return code
    if rng.random() < 0.5:
        code = code[::-1]
    i = rng.randrange(len(code))
    return code[i:] + code[:i]


def _checked_code(cells) -> str:
    code = geometry.boundary_code(cells)
    if code is None or geometry.shoelace_hexagons(code) != len(set(cells)):
        raise AssertionError(f"generator built a bad shape: {sorted(cells)}")
    return code


def random_benzenoid(rng: random.Random, h: int) -> str:
    cells = [(0, 0)]
    occupied = {(0, 0)}
    while len(cells) < h:
        q, r = rng.choice(cells)
        dq, dr = rng.choice(geometry.NEIGHBOURS)
        cell = (q + dq, r + dr)
        if cell in occupied or geometry.boundary_code(occupied | {cell}) is None:
            continue
        cells.append(cell)
        occupied.add(cell)
    return _checked_code(cells)


def random_chain(rng: random.Random, h: int) -> str:
    """Unbranched chain: each new cell touches only the one before it."""
    while True:
        cells = [(0, 0)]
        occupied = {(0, 0)}
        while len(cells) < h:
            q, r = cells[-1]
            options = []
            for dq, dr in geometry.NEIGHBOURS:
                cell = (q + dq, r + dr)
                touching = sum((cell[0] + a, cell[1] + b) in occupied for a, b in geometry.NEIGHBOURS)
                if cell not in occupied and touching == 1:
                    options.append(cell)
            if not options:
                break
            cell = rng.choice(options)
            cells.append(cell)
            occupied.add(cell)
        if len(cells) == h:
            return _checked_code(cells)


def family_member(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        cells = [(i, 0) for i in range(rng.randint(12, 60))]
    elif kind == 1:
        m, n = rng.randint(3, 8), rng.randint(3, 8)
        cells = [(i, j) for i in range(m) for j in range(n)]
    elif kind == 2:
        k = rng.randint(2, 4)
        cells = [
            (q, r)
            for q in range(-k, k + 1)
            for r in range(-k, k + 1)
            if abs(q + r) <= k
        ]
    else:
        return random_chain(rng, rng.randint(12, 40))
    return _checked_code(cells)


def random_fusene(rng: random.Random) -> str:
    h = rng.randint(6, 14)
    side = [rng.choice((1, 1, 2, 3)) for _ in range(h - 2)]
    back = [4 - s for s in reversed(side)]
    return "".join(map(str, [5, *side, 5, *back]))


def analyze_batch(seed: int, size: int) -> list[str]:
    """``size`` codes for ``bechex analyze --stdin``, the same for a seed."""
    rng = random.Random(seed)
    batch = []
    for _ in range(size):
        pick = rng.random()
        if pick < RANDOM_SHARE:
            code = random_benzenoid(rng, rng.randint(2, 16))
        elif pick < RANDOM_SHARE + FAMILY_SHARE:
            code = family_member(rng)
        else:
            code = random_fusene(rng)
        batch.append(_present(rng, code))
    return batch
