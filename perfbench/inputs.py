"""Structure files written by the benchmark itself, in the canonical text format.

The benchmark never asks the program under test to generate its inputs or its
expected answers. Every structure here is a well-founded extensional graph,
hence rigid, so a scrambled copy has exactly one isomorphism: the scrambling
permutation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def permutation(seed: int, stream: int, n: int) -> np.ndarray:
    """A seeded permutation of 0..n-1; distinct streams give independent draws."""
    return np.random.default_rng([seed, stream]).permutation(n)


def level_size(k: int) -> int:
    """|V_k|: 0, 1, 2, 4, 16, 65536 for k = 0..5."""
    size = 0
    for _ in range(k):
        size = 2 ** size
    return size


def level_edges(k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """V_k (k >= 2) under binary-sum coding: a is a member of b iff bit a of b is set."""
    n = level_size(k)
    ids = np.arange(n, dtype=np.int64)
    child, parent = [], []
    for a in range((n - 1).bit_length()):
        holders = ids[(ids >> a) & 1 == 1]
        child.append(np.full(holders.size, a, dtype=np.int64))
        parent.append(holders)
    return n, np.concatenate(child), np.concatenate(parent)


def chain_edges(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Zermelo numerals 0..n-1: i is the only member of i + 1."""
    ids = np.arange(n - 1, dtype=np.int64)
    return n, ids, ids + 1


def ordinal_edges(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Von Neumann ordinals 0..n-1: i is a member of j iff i < j."""
    child, parent = np.triu_indices(n, k=1)
    return n, child.astype(np.int64), parent.astype(np.int64)


def _block(tag: int, child: np.ndarray, parent: np.ndarray) -> str:
    order = np.lexsort((child, parent))  # canonical: by (parent, child)
    return "".join(
        f"e{tag} {a} {b}\n" for a, b in zip(child[order].tolist(), parent[order].tolist())
    )


def write_structure(path: Path, n: int, e1: tuple[np.ndarray, np.ndarray],
                    e2: tuple[np.ndarray, np.ndarray]) -> None:
    path.write_text(f"n {n}\n" + _block(1, *e1) + _block(2, *e2), encoding="utf-8")


def write_scrambled(path: Path, edges: tuple[int, np.ndarray, np.ndarray], perm: np.ndarray) -> None:
    """e1 is the given relation, e2 its image under perm; perm is then the iso e1 -> e2."""
    n, child, parent = edges
    write_structure(path, n, (child, parent), (perm[child], perm[parent]))
