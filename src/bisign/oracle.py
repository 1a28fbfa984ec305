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
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Optional

from .core import (
    PLUS,
    BidirectedGraph,
    EdgeId,
    Graph,
    SignedGraph,
)
from .balance import CycleWitness


@dataclass(frozen=True, slots=True)
class GraphEnumeration:
    """Bounds for sweeping every labeled multigraph (not isomorphism-reduced)."""

    max_vertices: int
    max_edges: int


def enumerate_multigraphs(spec: GraphEnumeration) -> Iterator[Graph]:
    """Every multigraph within the bounds, loops and parallel edges included,
    each labeled graph exactly once.

    Edges are nondecreasing pairs from ``range(n)``, in sorted order: they
    need no range check, and no edge multiset is listed twice.
    """
    for n in range(spec.max_vertices + 1):
        pairs = list(combinations_with_replacement(range(n), 2))
        for m in range(spec.max_edges + 1):
            for combo in combinations_with_replacement(pairs, m):
                yield Graph(n, combo)


def _cycle(g: Graph, edges: tuple[EdgeId, ...]) -> Optional[tuple[EdgeId, ...]]:
    """The increasing edge subset as a closed walk, or None when it is not
    one cycle.

    Every touched vertex must have degree exactly 2 (a loop counts twice).
    Then each vertex the walk reaches has one unused edge left, so the walk
    from the lowest edge is forced; it is a cycle iff the walk closes only
    after taking every edge.  Of the walk and its reversal from the same
    edge, the lexicographically smaller is the canonical form.
    """
    ends = g.edges
    degree: dict[int, int] = {}
    for e in edges:
        u, v = ends[e]
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    for d in degree.values():
        if d != 2:
            return None
    first = edges[0]
    rest = list(edges[1:])
    start, cur = ends[first]
    walk = [first]
    while cur != start:
        for i, e in enumerate(rest):
            u, v = ends[e]
            if u == cur or v == cur:
                break
        del rest[i]
        cur = v if u == cur else u
        walk.append(e)
    if rest:
        return None
    return tuple(min(walk, [first] + walk[:0:-1]))


def enumerate_cycles(g: Graph) -> list[CycleWitness]:
    """Every cycle of g exactly once up to rotation and reflection.

    Found by sweeping all edge subsets, each walked by ``_cycle``: the lowest
    edge id first, then the smaller of the two directions.  Sign fields are
    filled with + (the callers below re-sign against a signed graph).
    """
    m = g.edge_count
    found: list[tuple[EdgeId, ...]] = []
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            walk = _cycle(g, subset)
            if walk is not None:
                found.append(walk)
    found.sort()
    return [CycleWitness(edges, PLUS) for edges in found]


def _sign_product(s: SignedGraph, edges: tuple[EdgeId, ...]) -> int:
    sign = 1
    for e in edges:
        sign *= s.sigma[e].value
    return sign


# a sweep checks every signing of one graph before the next, so the last
# graph's cycles are the ones reused
@lru_cache(maxsize=1)
def _cycle_edges(g: Graph) -> tuple[tuple[EdgeId, ...], ...]:
    """The edge tuples of ``enumerate_cycles(g)``, in the same order."""
    return tuple([c.edges for c in enumerate_cycles(g)])


def balanced_by_cycles(s: SignedGraph) -> bool:
    """True iff every cycle has positive sign product."""
    return all(_sign_product(s, c) == 1 for c in _cycle_edges(s.graph))


def antibalanced_by_cycles(s: SignedGraph) -> bool:
    """True iff every even cycle is positive and every odd cycle negative."""
    return all(_sign_product(s, c) == (-1) ** len(c) for c in _cycle_edges(s.graph))


# a sweep checks every labeling of one graph before the next, so the last
# m's tables are the ones reused
@lru_cache(maxsize=1)
def _subset_tables(m: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The 2^m-bit set of all subsets, ``flipped[e]`` for each edge, and its
    complement ``kept[e]``."""
    full = (1 << (1 << m)) - 1
    # flipped[e] repeats 2^e clear bits then 2^e set bits; each is the
    # one above it XORed with itself shifted down by 2^e
    flipped = [0] * m
    bits = full
    for e in reversed(range(m)):
        bits ^= bits >> (1 << e)
        flipped[e] = bits
    return full, tuple(flipped), tuple([full ^ f for f in flipped])


# the 2 * m * 2^m bits of _subset_tables(m) come to about 5 MB at this
# edge count
_MAX_EDGES = 20


def uniformizable_by_enumeration(b: BidirectedGraph) -> Optional[frozenset[EdgeId]]:
    """Try every reorientation subset; return the lowest one that makes
    every vertex a source, sink, or isolated, or None.

    Subset k (edge e reoriented iff bit e of k is set) is bit k of a 2^m-bit
    integer; ``flipped[e]`` is the set of subsets reorienting edge e.  Each
    vertex ANDs, per incident half-edge h = 2e + side, ``flipped[e]`` or
    ``kept[e]`` into the subsets leaving it all + and all -, reading the end
    sign ``beta[e][side]``; the vertices' unions are ANDed, and
    the lowest set bit is the first subset in increasing-bitmask order (the
    empty set first).  Raises past ``_MAX_EDGES`` edges.
    """
    g = b.graph
    m = g.edge_count
    if m > _MAX_EDGES:
        raise ValueError(f"edge count {m} exceeds enumeration bound {_MAX_EDGES}")
    full, flipped, kept = _subset_tables(m)
    beta = b.beta
    ok = full
    for hes in g.incidence:
        plus = minus = full
        for h in hes:
            e = h >> 1
            if beta[e][h & 1] is PLUS:
                plus &= kept[e]
                minus &= flipped[e]
            else:
                plus &= flipped[e]
                minus &= kept[e]
        ok &= plus | minus
        if not ok:
            return None
    mask = (ok & -ok).bit_length() - 1
    return frozenset([e for e in range(m) if mask >> e & 1])
