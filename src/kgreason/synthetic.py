"""Seeded synthetic knowledge graphs.

Two generators are provided.  ``planted_triples`` builds a graph with known
compositional structure: chains x -> v -> u -> z -> y whose shortcut
relations close with high probability, so mining recovers a family of
two-hop rules that compose into three- and four-hop rules, plus a second
body pair per head relation so exploration has genuinely competing
candidates.  ``random_triples`` is a plain uniform generator for fuzzing.

Both are pure functions of their arguments, so a triples file produced
from a given seed is byte-for-byte reproducible.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable

from .artifacts import write_lines

# Relations of the planted world.  Per head relation h<i> there are two
# alternative body pairs (a/b and g/k); the a-side decomposes further via
# c = e.f and a = c.d, which is what makes composed rules minable.
_COMPONENTS = ("h1", "h2")

# How often a main thread closes its head fact, how often each of its
# decomposed shortcuts (c, a) is present, how often an alternative thread
# closes, and the share of uniform n_misc noise facts.
_CLOSE_PROBABILITY = 0.8
_DECOMPOSE_PROBABILITY = 0.9
_ALT_CLOSE_PROBABILITY = 0.85
_NOISE_FRACTION = 0.04


def _pool(prefix: str, size: int) -> list[str]:
    return [f"{prefix}{i:04d}" for i in range(size)]


def planted_triples(seed: int, target_triples: int) -> list[tuple[str, str, str]]:
    """Generate roughly ``target_triples`` facts with planted rule structure.

    For each head relation h: chains support ``h(X,Y) <- a(X,Z1) & b(Z1,Y)``
    with confidence near ``_CLOSE_PROBABILITY``, ``a`` decomposes via
    ``c`` and ``d``, ``c`` via ``e`` and ``f``, and a disjoint population
    supports the alternative ``h(X,Y) <- g(X,Z1) & k(Z1,Y)``.
    """
    rng = random.Random(seed)
    triples: list[tuple[str, str, str]] = []
    # Budget: a main-component thread emits about 4 facts, an alt-component
    # thread about 2, pools add 4 facts per entry.
    per_component = max(1, target_triples // len(_COMPONENTS))
    main_threads = max(4, int(per_component * 0.62 / 4))
    alt_threads = max(4, int(per_component * 0.30 / 2))

    for comp in _COMPONENTS:
        rel_a, rel_b = f"a_{comp}", f"b_{comp}"
        rel_c, rel_d = f"c_{comp}", f"d_{comp}"
        rel_e, rel_f = f"e_{comp}", f"f_{comp}"
        rel_g, rel_k = f"g_{comp}", f"k_{comp}"

        # Fixed chain tails: each pool entry is a path v -> u -> z -> y.
        # Keeping the tail functional (one y per z and so on) keeps rule
        # confidence near the closing probability instead of collapsing
        # under cross-thread pairings.
        pool_size = max(2, main_threads // 5)
        vs = _pool(f"v_{comp}_", pool_size)
        us = _pool(f"u_{comp}_", pool_size)
        zs = _pool(f"z_{comp}_", pool_size)
        ys = _pool(f"y_{comp}_", pool_size)
        for i in range(pool_size):
            triples.append((vs[i], rel_f, us[i]))
            triples.append((us[i], rel_d, zs[i]))
            triples.append((zs[i], rel_b, ys[i]))
        for t in range(main_threads):
            x = f"x_{comp}_{t:05d}"
            i = rng.randrange(pool_size)
            triples.append((x, rel_e, vs[i]))
            if rng.random() < _DECOMPOSE_PROBABILITY:
                triples.append((x, rel_c, us[i]))
            if rng.random() < _DECOMPOSE_PROBABILITY:
                triples.append((x, rel_a, zs[i]))
            if rng.random() < _CLOSE_PROBABILITY:
                triples.append((x, comp, ys[i]))

        alt_pool = max(2, alt_threads // 5)
        ws = _pool(f"w_{comp}_", alt_pool)
        qs = _pool(f"q_{comp}_", alt_pool)
        for i in range(alt_pool):
            triples.append((ws[i], rel_k, qs[i]))
        for t in range(alt_threads):
            p = f"p_{comp}_{t:05d}"
            i = rng.randrange(alt_pool)
            triples.append((p, rel_g, ws[i]))
            if rng.random() < _ALT_CLOSE_PROBABILITY:
                triples.append((p, comp, qs[i]))

    noise = int(target_triples * _NOISE_FRACTION)
    entities = sorted({e for h, _, t in triples for e in (h, t)})
    for _ in range(noise):
        triples.append(
            (rng.choice(entities), "n_misc", rng.choice(entities))
        )
    return triples


def random_triples(
    seed: int, n_entities: int, n_relations: int, n_triples: int
) -> list[tuple[str, str, str]]:
    """Uniform random facts (duplicates possible, deduped at ingest)."""
    rng = random.Random(seed)
    return [
        (
            f"e{rng.randrange(n_entities)}",
            f"r{rng.randrange(n_relations)}",
            f"e{rng.randrange(n_entities)}",
        )
        for _ in range(n_triples)
    ]


def write_triples(path: str | Path, triples: Iterable[tuple[str, str, str]]) -> int:
    return write_lines(path, (f"{h}\t{r}\t{t}" for h, r, t in triples))
