"""Brute-force reference implementations for the tests; the CLI and the
library proper never import this module (seeded random graphs: ``generate``).

Deliberately independent of the fast paths in ``balance`` and ``uniform``:
cycles are found by edge-subset sweep, antibalance by checking every cycle's
parity, and uniformizability by trying every reorientation subset, all 2^m
of them at once as the bits of one integer, answering with the lowest
subset that works.  Only the plain data types from ``core`` (plus the cycle
record) are shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Optional

from .core import (
    MINUS,
    PLUS,
    BidirectedGraph,
    EdgeId,
    Graph,
    Sign,
    SignedGraph,
    build_graph,
)
from .balance import CycleWitness


@dataclass(frozen=True)
class GraphEnumeration:
    """Bounds for sweeping every labeled multigraph (not isomorphism-reduced)."""

    max_vertices: int
    max_edges: int
    allow_loops: bool = True
    allow_parallel: bool = True


def enumerate_multigraphs(spec: GraphEnumeration) -> Iterator[Graph]:
    """Every multigraph within the bounds, each labeled graph exactly once.

    Edges are kept as nondecreasing (u, v) pairs in sorted order, so two
    listings of the same edge multiset are not produced twice.
    """
    for n in range(spec.max_vertices + 1):
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u, n)
            if spec.allow_loops or u != v
        ]
        for m in range(spec.max_edges + 1):
            chooser = (
                combinations_with_replacement if spec.allow_parallel else combinations
            )
            for combo in chooser(pairs, m):
                yield build_graph(n, list(combo))


def _is_cycle_subset(g: Graph, edges: tuple[EdgeId, ...]) -> bool:
    """True when the edge subset is a single cycle: every touched vertex has
    degree exactly 2 (loops count twice) and the subset is connected."""
    degree: dict[int, int] = {}
    for e in edges:
        u, v = g.edges[e]
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if any(d != 2 for d in degree.values()):
        return False
    # connectivity over the touched vertices
    touched = set(degree)
    start = next(iter(touched))
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for e in edges:
            u, v = g.edges[e]
            if u == x and v not in seen:
                seen.add(v)
                frontier.append(v)
            elif v == x and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == touched


def _order_cycle(g: Graph, edges: tuple[EdgeId, ...]) -> tuple[EdgeId, ...]:
    """Order a cycle edge set into a closed walk, canonically: the lowest
    edge id first, then the lexicographically smaller of the two
    traversal directions."""
    if len(edges) <= 2:
        return tuple(sorted(edges))
    rest = sorted(edges[1:] if edges[0] == min(edges) else set(edges) - {min(edges)})
    first = min(edges)
    best: Optional[tuple[EdgeId, ...]] = None
    for start_side in (0, 1):
        walk = [first]
        cur = g.edges[first][1 - start_side]
        stop = g.edges[first][start_side]
        remaining = set(rest)
        while remaining:
            nxt = None
            for e in sorted(remaining):
                u, v = g.edges[e]
                if u == cur or v == cur:
                    nxt = e
                    break
            assert nxt is not None
            remaining.remove(nxt)
            u, v = g.edges[nxt]
            cur = v if u == cur else u
            walk.append(nxt)
        assert cur == stop
        t = tuple(walk)
        if best is None or t < best:
            best = t
    assert best is not None
    return best


def enumerate_cycles(g: Graph) -> list[CycleWitness]:
    """Every cycle of g exactly once up to rotation and reflection.

    Found by sweeping all edge subsets: a subset is a cycle iff every
    touched vertex has degree 2 in it and it is connected.  Sign fields are
    filled with + (the callers below re-sign against a signed graph).
    """
    m = g.edge_count
    found: list[tuple[EdgeId, ...]] = []
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            if _is_cycle_subset(g, subset):
                found.append(_order_cycle(g, subset))
    found.sort()
    return [CycleWitness(edges, PLUS) for edges in found]


def _subset_sign(s: SignedGraph, edges: tuple[EdgeId, ...]) -> Sign:
    sign = 1
    for e in edges:
        sign *= s.sigma[e].value
    return PLUS if sign > 0 else MINUS


def balanced_by_cycles(s: SignedGraph) -> bool:
    """True iff every cycle has positive sign product."""
    return all(
        _subset_sign(s, c.edges) is PLUS for c in enumerate_cycles(s.graph)
    )


def antibalanced_by_cycles(s: SignedGraph) -> bool:
    """True iff every even cycle is positive and every odd cycle negative."""
    for c in enumerate_cycles(s.graph):
        want = PLUS if len(c.edges) % 2 == 0 else MINUS
        if _subset_sign(s, c.edges) is not want:
            return False
    return True


def uniformizable_by_enumeration(
    b: BidirectedGraph, max_edges: int = 20
) -> Optional[frozenset[EdgeId]]:
    """Try every reorientation subset; return the lowest one that makes
    every vertex a source, sink, or isolated, or None.

    Subset k (edge e reoriented iff bit e of k is set) is bit k of a 2^m-bit
    integer; ``flipped[e]`` is the set of subsets reorienting edge e.  Each
    vertex ANDs, per incident half-edge h = 2e + side, ``flipped[e]`` or its
    complement into the subsets leaving it all + and all -, reading the end
    sign ``beta[e][side]``; the vertices' unions are ANDed, and
    the lowest set bit is the first subset in increasing-bitmask order (the
    empty set first).  ``max_edges`` bounds the m * 2^m bits this takes.
    """
    g = b.graph
    m = g.edge_count
    if m > max_edges:
        raise ValueError(f"edge count {m} exceeds enumeration bound {max_edges}")
    full = (1 << (1 << m)) - 1
    # flipped[e] repeats 2^e clear bits then 2^e set bits; each is the
    # one above it XORed with itself shifted down by 2^e
    flipped = [0] * m
    bits = full
    for e in reversed(range(m)):
        bits ^= bits >> (1 << e)
        flipped[e] = bits
    beta = b.beta
    ok = full
    for hes in g.incidence:
        plus = minus = full
        for h in hes:
            e = h >> 1
            if beta[e][h & 1] is PLUS:
                plus &= ~flipped[e]
                minus &= flipped[e]
            else:
                plus &= flipped[e]
                minus &= ~flipped[e]
        ok &= plus | minus
        if not ok:
            return None
    mask = (ok & -ok).bit_length() - 1
    return frozenset(e for e in range(m) if mask >> e & 1)
