import itertools
import math

import numpy as np
import pytest

from mwgraph.errors import NonFiniteError, NotPsdError, NotSymmetricError
from mwgraph.graphs import BaseGraph, MatrixWeightedGraph
from mwgraph.linalg import DEFAULT_TOL, zero_cutoff

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
    """The k = 1 graph with weight 1 on each edge."""
    return MatrixWeightedGraph.from_weights(n, 1, [(u, v, np.ones((1, 1))) for u, v in edges])


def complete_graph(n):
    return unit_graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n):
    return unit_graph(n, [(i, (i + 1) % n) for i in range(n)])


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


# --- per-matrix references ---------------------------------------------------
#
# The package solves a graph's k x k blocks as one stack.  These are the
# per-matrix loops it replaced, kept so tests can compare results byte for
# byte and errors message for message.


def reference_as_symmetric(m, tol):
    arr = np.asarray(m, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if arr.size:
        gap = float(np.max(np.abs(arr - arr.T)))
        if gap > tol.sym_tol:
            raise NotSymmetricError(
                f"asymmetry {gap:.3e} exceeds sym_tol {tol.sym_tol:.3e}")
    sym = (arr + arr.T) / 2.0
    if sym.size and not np.all(np.isfinite(sym)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return sym


def reference_is_psd(sym, psd_tol):
    if sym.size == 0:
        return True
    values = np.linalg.eigvalsh(sym)
    norm = max(abs(float(values[0])), abs(float(values[-1])))
    return float(values[0]) >= -psd_tol * max(1.0, norm)


def reference_weights(k, items, tol):
    """The stored weights of from_weights, validated one edge at a time."""
    merged = {}
    for u, v, w in items:
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, np.zeros((k, k))) + np.asarray(w, dtype=float)
    weights = {}
    for key in sorted(merged):
        sym = reference_as_symmetric(merged[key], tol)
        if not reference_is_psd(sym, tol.psd_tol):
            raise NotPsdError(f"weight on edge {key} is not PSD")
        weights[key] = sym
    return weights


def reference_pseudo_sqrt_inv(m, tol):
    sym = reference_as_symmetric(m, tol)
    if not reference_is_psd(sym, tol.psd_tol):
        raise NotPsdError("pseudo_sqrt_inv requires a PSD matrix")
    if sym.size == 0:
        return sym
    values, vectors = np.linalg.eigh(sym)
    cutoff = tol.rank_rel_tol * max(float(values[-1]), 0.0)
    inv_sqrt = np.where(values > cutoff, 1.0 / np.sqrt(np.maximum(values, 1e-300)), 0.0)
    result = (vectors * inv_sqrt) @ vectors.T
    return (result + result.T) / 2.0


def reference_normalized(ops):
    """(lap_normalized, adj_normalized) with one D_v^(+/2) solve per vertex."""
    k = ops.k
    half = np.zeros((k * ops.n, k * ops.n))
    for v in range(ops.n):
        block = slice(v * k, (v + 1) * k)
        half[block, block] = reference_pseudo_sqrt_inv(ops.degree_blocks[v], ops.tol)
    out = []
    for op in (ops.laplacian, ops.adjacency):
        norm = half @ op @ half
        out.append((norm + norm.T) / 2.0)
    return tuple(out)


def reference_trace_adjacency(G):
    """The n x n trace weighting, one np.trace per edge weight."""
    A = np.zeros((G.base.n, G.base.n))
    for (u, v), w in zip(G.base.edges, G.weight_stack):
        A[u, v] = np.trace(w)
        A[v, u] = np.trace(w)
    return A


def reference_eta(G, tol=DEFAULT_TOL):
    """The per-graph expander report: the bundle's regularity, then one
    projection check and one np.trace per weight, then one eigvalsh of the
    kn x kn adjacency placed block by block."""
    from mwgraph.errors import NotProjectionWeightsError
    from mwgraph.expansion import require_scalar_regular
    from mwgraph.frames import ExpanderReport
    from mwgraph.linalg import is_projection, keep_cutoff
    from mwgraph.operators import assemble
    k = G.k
    reg = assemble(G, tol).regularity
    d = require_scalar_regular(reg, positive=True)
    ranks = set()
    A = np.zeros((G.base.n * k, G.base.n * k))
    for (u, v), w in zip(G.base.edges, G.weight_stack):
        if not is_projection(w, tol):
            raise NotProjectionWeightsError(f"weight on edge {(u, v)} is not a projection")
        ranks.add(round(float(np.trace(w))))
        A[u * k:(u + 1) * k, v * k:(v + 1) * k] = w
        A[v * k:(v + 1) * k, u * k:(u + 1) * k] = w
    mu = np.linalg.eigvalsh(A)[::-1]
    cluster = int(np.sum(np.abs(mu - d) <= keep_cutoff(d, tol)))
    hi, lo = float(mu[k]), float(mu[-1])
    geo = set(reg.geometric_degrees)
    ab_matrix = ab_classical = None
    if len(ranks) == 1 and len(geo) == 1:
        l, r = next(iter(ranks)), next(iter(geo))
        if r >= 2:
            ab_matrix = 2.0 * (l / k) * math.sqrt(r - 1)
        if d > 1:
            ab_classical = 2.0 * math.sqrt(d - 1)
    return ExpanderReport(d, float(d - max(abs(hi), abs(lo))), hi, lo, ab_matrix,
                          ab_classical, cluster != k)


def same_bits(a, b):
    """Two dataclasses of floats, bools and Nones agree field by field, each
    float in its 64 bits."""
    import dataclasses
    import struct

    def bits(x):
        return x if x is None or isinstance(x, bool) else struct.pack("<d", x)

    return [bits(x) for x in dataclasses.astuple(a)] == [bits(x) for x in dataclasses.astuple(b)]


def reference_sqrt_factor(sym, tol):
    values, vectors = np.linalg.eigh(sym)
    cutoff = tol.rank_rel_tol * max(float(values[-1]), 0.0) if values.size else 0.0
    keep = [i for i in range(values.size) if values[i] > cutoff]
    if not keep:
        return np.zeros((0, sym.shape[0]))
    return np.sqrt(values[keep])[:, None] * vectors[:, keep].T


def reference_coboundary(G, orientation=None, tol=DEFAULT_TOL):
    """The dense sheaf coboundary delta, whose Gram matrix is L: rank(W_e)
    rows per edge, B_e = reference_sqrt_factor(W_e) at the head block and
    -B_e at the tail.  ``orientation`` maps an edge to its (tail, head);
    by default the tail is the smaller end."""
    k, n = G.k, G.base.n
    rows = [np.zeros((0, k * n))]
    for e, w in zip(G.base.edges, G.weight_stack):
        B = reference_sqrt_factor(w, tol)
        tail, head = (orientation or {}).get(e, e)
        block = np.zeros((B.shape[0], k * n))
        block[:, head * k:(head + 1) * k] = B
        block[:, tail * k:(tail + 1) * k] = -B
        rows.append(block)
    return np.concatenate(rows)


def reference_h0_dim(delta, tol=DEFAULT_TOL):
    """dim ker delta: nk minus the number of singular values of delta whose
    square is above the zero cutoff at sigma_max^2."""
    sigma = np.linalg.svd(delta, compute_uv=False)
    top = float(sigma[0]) ** 2 if sigma.size else 0.0
    return delta.shape[1] - int(np.sum(sigma ** 2 > zero_cutoff(top, tol)))


def block_corpus_items(rng):
    """(n, k, items) inputs for comparing stacked and per-block solves:
    random graphs with k = 1..4 whose weights are full-rank, rank-deficient
    or zero, carry asymmetry within sym_tol and repeat pairs, with isolated
    vertices; plus n = 1 and edgeless graphs."""
    yield 1, 2, []
    yield 4, 3, []
    yield 0, 1, []
    for _ in range(60):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, 5))
        live = [v for v in range(n) if rng.random() < 0.8]
        items = []
        for u, v in itertools.combinations(live, 2):
            if rng.random() < 0.5:
                continue
            rank = int(rng.integers(0, k + 1))
            w = random_psd(rng, k, rank) if rank else np.zeros((k, k))
            w = w * 10.0 ** float(rng.integers(-6, 7))
            w = w + rng.normal(size=(k, k)) * 1e-11
            items.append((v, u, w) if rng.random() < 0.5 else (u, v, w))
            if rng.random() < 0.1:
                items.append((u, v, random_psd(rng, k)))
        yield n, k, items
