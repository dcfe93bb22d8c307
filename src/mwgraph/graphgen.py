"""Small-graph enumeration: canonical adjacency codes, connected regular
graphs up to isomorphism, and proper edge colorings.

Canonical form is the lexicographically largest upper-triangle bit string
over all vertex orderings (graph6 column bit order), found by level-wise
branch and bound: at each position only vertices achieving the maximal next
column can extend an optimal ordering, because every completion of a prefix
is feasible.  Intended for the small graphs (n <= 12) the search uses.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .graphs import BaseGraph, is_connected_edges


def canonical_code(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Complete isomorphism invariant: max adjacency bit string as an integer.

    Bits are ordered column-wise, (0,1), (0,2), (1,2), (0,3), ...; two graphs
    on n vertices are isomorphic iff their codes are equal.

    Branch and bound over vertex orderings: at each position only vertices
    achieving the maximal next column can extend a lexicographically maximal
    ordering (every completion of a prefix is feasible), and subtrees whose
    prefix falls strictly below the best full code are cut.
    """
    adj = [0] * n
    edge_list = list(edges)
    for u, v in edge_list:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if not edge_list:
        return 0
    total_bits = n * (n - 1) // 2
    best = -1

    def extend(rest: list[int], cols: list[int], depth: int, code: int, bits: int) -> None:
        nonlocal best
        if not rest:
            if code > best:
                best = code
            return
        top = -1
        top_idx: list[int] = []
        for i, c in enumerate(cols):
            if c > top:
                top = c
                top_idx = [i]
            elif c == top:
                top_idx.append(i)
        code = (code << depth) | top
        bits += depth
        if best >= 0 and code < (best >> (total_bits - bits)):
            return
        for i in top_idx:
            row = adj[rest[i]]
            next_rest = []
            next_cols = []
            for j, w in enumerate(rest):
                if j != i:
                    next_rest.append(w)
                    next_cols.append((cols[j] << 1) | ((row >> w) & 1))
            extend(next_rest, next_cols, depth + 1, code, bits)

    extend(list(range(n)), [0] * n, 0, 0, 0)
    return best


def edges_code(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Adjacency bit string of a labeled graph (no canonicalization)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    code = 0
    for j in range(1, n):
        for i in range(j):
            code = (code << 1) | ((adj[i] >> j) & 1)
    return code


def code_to_edges(n: int, code: int) -> tuple[tuple[int, int], ...]:
    """Invert canonical_code's bit layout into an edge list."""
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append((i, j))
    total = len(bits)
    edges = []
    for idx, (i, j) in enumerate(bits):
        if (code >> (total - 1 - idx)) & 1:
            edges.append((i, j))
    return tuple(edges)


def graph6_like(n: int, code: int) -> str:
    """graph6-style string for a canonical code (n <= 62)."""
    if not (0 <= n <= 62):
        raise ValueError(f"graph6 size byte requires 0 <= n <= 62, got {n}")
    total = n * (n - 1) // 2
    bits = [(code >> (total - 1 - i)) & 1 for i in range(total)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i:i + 6]:
            value = (value << 1) | bit
        chars.append(chr(63 + value))
    return "".join(chars)


def enumerate_regular_graphs(n: int, r: int, connected: bool = True) -> list[BaseGraph]:
    """Connected r-regular graphs on n vertices, one per isomorphism class.

    Degree-constrained backtracking over the adjacency of the first
    unsaturated vertex, with isomorph rejection on canonical adjacency
    codes.  Returned graphs carry their canonical labeling, sorted by code.
    """
    if r < 0 or n < 0:
        raise ValueError("n and r must be nonnegative")
    if n == 0:
        return []
    if r == 0:
        if connected and n > 1:
            return []
        return [BaseGraph.from_edges(n, [])]
    if n <= r or (n * r) % 2 != 0:
        return []
    found: set[int] = set()
    deg = [0] * n
    adj = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []

    def rec() -> None:
        u = next((v for v in range(n) if deg[v] < r), None)
        if u is None:
            if connected and not is_connected_edges(n, edges):
                return
            found.add(canonical_code(n, edges))
            return
        need = r - deg[u]
        cands = [v for v in range(u + 1, n) if deg[v] < r and v not in adj[u]]
        if len(cands) < need:
            return
        # untouched vertices are interchangeable, so only prefix choices
        # among them can produce new isomorphism classes
        fresh = [v for v in cands if deg[v] == 0]
        for combo in itertools.combinations(cands, need):
            chosen_fresh = [v for v in combo if deg[v] == 0]
            if chosen_fresh and chosen_fresh != fresh[:len(chosen_fresh)]:
                continue
            for v in combo:
                adj[u].add(v)
                adj[v].add(u)
                deg[u] += 1
                deg[v] += 1
                edges.append((u, v))
            rec()
            for v in combo:
                adj[u].remove(v)
                adj[v].remove(u)
                deg[u] -= 1
                deg[v] -= 1
                edges.pop()

    rec()
    return [BaseGraph.from_edges(n, code_to_edges(n, code)) for code in sorted(found)]


def proper_colorings(base: BaseGraph, r: int) -> list[tuple[int, ...]]:
    """All proper r-edge-colorings, as color tuples aligned with base.edges.

    An empty result is an exhaustive certificate that no proper r-coloring
    exists.
    """
    return list(iter_proper_colorings(base, r))


def iter_proper_colorings(base: BaseGraph, r: int) -> Iterator[tuple[int, ...]]:
    """Proper r-edge-colorings, lazily, in the order proper_colorings lists them.

    Deterministic backtracking in sorted edge order, trying colors in
    increasing order.  Colors are bits: used[v] holds the colors at vertex
    v, free[i] the colors edge i has still to try, bits[i] its current one.
    """
    edges = base.edges
    m = len(edges)
    if m == 0:
        yield ()
        return
    all_colors = (1 << r) - 1
    used = [0] * base.n
    free = [all_colors] + [0] * (m - 1)
    bits = [0] * m
    colors = [0] * m
    i = 0
    while i >= 0:
        u, v = edges[i]
        used[u] ^= bits[i]  # take back edge i's current color, if any
        used[v] ^= bits[i]
        f = free[i]
        if not f:
            bits[i] = 0
            i -= 1
            continue
        bit = f & -f
        free[i] = f ^ bit
        bits[i] = bit
        colors[i] = bit.bit_length() - 1
        used[u] |= bit
        used[v] |= bit
        if i + 1 == m:
            yield tuple(colors)
        else:
            i += 1
            u, v = edges[i]
            free[i] = all_colors & ~(used[u] | used[v])
