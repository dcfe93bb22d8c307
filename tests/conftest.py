import itertools

import numpy as np
import pytest

from mwgraph.graphs import (
    BaseGraph,
    MatrixWeightedGraph,
    ScalarWeightedGraph,
    lift_identity,
)

S3 = np.sqrt(3.0)

# the three rank-1 projections onto lines at 0, 60, 120 degrees, written out
# so tests do not depend on the generator they are used to check
FRAME_A = np.array([[1.0, 0.0], [0.0, 0.0]])
FRAME_B = np.array([[0.25, S3 / 4], [S3 / 4, 0.75]])
FRAME_C = np.array([[0.25, -S3 / 4], [-S3 / 4, 0.75]])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_psd(rng, k, rank=None):
    if rank is None:
        rank = k
    B = rng.normal(size=(rank, k))
    return B.T @ B


def random_mwg(rng, n_max=8, k_max=3):
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    items = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                rank = int(rng.integers(1, k + 1))
                items.append((u, v, random_psd(rng, k, rank)))
    if not items:
        items.append((0, 1, random_psd(rng, k)))
    return MatrixWeightedGraph.from_weights(n, k, items)


def unit_graph(n, edges):
    return ScalarWeightedGraph.from_weights(n, [(u, v, 1.0) for u, v in edges])


def complete_graph(n):
    return unit_graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n):
    return unit_graph(n, [(i, (i + 1) % n) for i in range(n)])


def identity_lift(scalar, k):
    return lift_identity(scalar, k)


def k33_latin_mwg():
    """K_{3,3} with the cyclic Latin-square assignment of {a, b, c}."""
    mats = [FRAME_A, FRAME_B, FRAME_C]
    items = [(i, 3 + j, mats[(i + j) % 3]) for i in range(3) for j in range(3)]
    return MatrixWeightedGraph.from_weights(6, 2, items)


def k4_abc_mwg():
    """K4 with {a, b, c} on its three perfect matchings."""
    items = [
        (0, 1, FRAME_A), (2, 3, FRAME_A),
        (0, 2, FRAME_B), (1, 3, FRAME_B),
        (0, 3, FRAME_C), (1, 2, FRAME_C),
    ]
    return MatrixWeightedGraph.from_weights(4, 2, items)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return BaseGraph.from_edges(10, outer + spokes + inner)


def count_calls(monkeypatch, name, *modules):
    """Wrap the function bound to ``name`` in each module; returns the shared
    list that gets one entry per call, whichever binding was called."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls
