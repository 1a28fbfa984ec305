"""Certificate-producing balance and antibalance checks.

A signed graph is balanced when every cycle has positive sign product;
antibalanced when every even cycle is positive and every odd cycle negative
(equivalently, the negated graph is balanced).  Both checks return either a
vertex signature certifying the property or a violating cycle.

The decision procedure walks a breadth-first spanning forest: each
component's root is its lowest-id vertex, and a vertex scans its half-edges
by edge id, then side.  Which edges join the forest never depends on the
signs, so the forest is built once per graph and cached on it
(``Graph._forest``); every labeling of that graph reuses it.  Roots get
``+`` and each child mu(w) = mu(u)*sigma(e) across its tree edge, so the
tree path between u and v has sign mu(u)*mu(v).  The non-tree edges are
then checked in id order; the first e = uv with sigma(e) != mu(u)*mu(v)
yields its fundamental cycle as the witness, whose sign
sigma(e)*mu(u)*mu(v) is therefore ``-``.  Loops and digons count as cycles
of length 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .core import MINUS, PLUS, EdgeId, Graph, Sign, SignedGraph, VertexId
from .convert import negate_signed


@dataclass(frozen=True)
class VertexSignature:
    """A total vertex sign labeling mu."""

    mu: tuple[Sign, ...]

    def __getitem__(self, v: VertexId) -> Sign:
        return self.mu[v]

    def __len__(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class Bipartition:
    """A split V = v1 | v2; either part may be empty."""

    v1: frozenset[VertexId]
    v2: frozenset[VertexId]


@dataclass(frozen=True)
class CycleWitness:
    """A cycle given as an edge sequence forming a closed walk with no
    repeated edge or vertex, together with its sign product."""

    edges: tuple[EdgeId, ...]
    sign: Sign

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def parity(self) -> str:
        return "even" if len(self.edges) % 2 == 0 else "odd"


@dataclass(frozen=True)
class BalanceResult:
    """Either a certifying signature or a violating cycle, never both."""

    signature: Optional[VertexSignature] = None
    witness: Optional[CycleWitness] = None

    @property
    def holds(self) -> bool:
        return self.witness is None


def closed_walk_vertices(graph: Graph, edges: tuple[EdgeId, ...]) -> list[VertexId]:
    """Validate that the edge sequence is a cycle and return the vertices
    visited, one per edge.

    Length 1 must be a loop, length 2 a digon (a parallel pair); longer
    sequences must chain into a closed walk with all vertices distinct.
    Raises ValueError otherwise.
    """
    if not edges:
        raise ValueError("empty edge list is not a cycle")
    if len(set(edges)) != len(edges):
        raise ValueError("repeated edge in cycle")
    ends = [graph.endpoints(e) for e in edges]
    if len(edges) == 1:
        u, v = ends[0]
        if u != v:
            raise ValueError("a single non-loop edge is not a cycle")
        return [u]
    if len(edges) == 2:
        (u, v), (x, y) = ends
        if u == v or {u, v} != {x, y}:
            raise ValueError("two edges form a cycle only as a digon")
        return [u, v]
    for start in ends[0]:
        seq = [start]
        cur = ends[0][1] if start == ends[0][0] else ends[0][0]
        ok = True
        for a, b in ends[1:]:
            seq.append(cur)
            if a == b:
                ok = False
                break
            if a == cur:
                cur = b
            elif b == cur:
                cur = a
            else:
                ok = False
                break
        if ok and cur == start and len(set(seq)) == len(seq):
            return seq
    raise ValueError("edge list does not form a cycle")


def cycle_sign(s: SignedGraph, c: CycleWitness) -> Sign:
    """Product of the edge signs along the cycle; validates the cycle."""
    closed_walk_vertices(s.graph, c.edges)
    sign = PLUS
    for e in c.edges:
        sign = sign * s.sigma[e]
    return sign


def is_balanced(s: SignedGraph) -> BalanceResult:
    """Decide balance; a Balanced result carries mu with
    sigma(uv) = mu(u)*mu(v) on every edge, an Unbalanced result carries a
    negative cycle."""
    g = s.graph
    sigma = s.sigma
    edges = g.edges
    order, parent_edge, parent_vertex, depth, nontree = g._forest
    # roots get +; a parent is labeled before its children, and
    # mu(w) = mu(u) * sigma(e): mu(u) across a + edge, else its negation
    mu = [PLUS] * g.vertex_count
    for w in order:
        same = mu[parent_vertex[w]]
        if sigma[parent_edge[w]] is PLUS:
            mu[w] = same
        else:
            mu[w] = MINUS if same is PLUS else PLUS

    # every non-tree edge closes a fundamental cycle; check them in id order
    for e in compress(range(len(edges)), nontree):
        u, v = edges[e]
        # sigma(e) = mu(u) * mu(v)
        if (sigma[e] is PLUS) == (mu[u] is mu[v]):
            continue
        if u == v:
            return BalanceResult(witness=CycleWitness((e,), MINUS))
        # climb to the common ancestor collecting tree edges on both sides
        pu: list[int] = []
        pv: list[int] = []
        a, b = u, v
        while depth[a] > depth[b]:
            pu.append(parent_edge[a])
            a = parent_vertex[a]
        while depth[b] > depth[a]:
            pv.append(parent_edge[b])
            b = parent_vertex[b]
        while a != b:
            pu.append(parent_edge[a])
            a = parent_vertex[a]
            pv.append(parent_edge[b])
            b = parent_vertex[b]
        return BalanceResult(witness=CycleWitness((e, *pv, *reversed(pu)), MINUS))

    return BalanceResult(signature=VertexSignature(tuple(mu)))


def is_antibalanced(s: SignedGraph) -> BalanceResult:
    """Decide antibalance via balance of the negated graph.

    A positive result carries mu with sigma(uv) = -mu(u)*mu(v) on every
    edge; a negative result carries a cycle of s violating the parity
    condition, with its sign taken in s.
    """
    r = is_balanced(negate_signed(s))
    # the witness is negative in the negated graph; negating every edge keeps
    # an even cycle's sign and makes an odd one positive
    if r.witness is None or len(r.witness.edges) % 2 == 0:
        return r
    return BalanceResult(witness=CycleWitness(r.witness.edges, PLUS))


def signature_to_bipartition(mu: VertexSignature) -> Bipartition:
    """v1 = the + vertices, v2 = the - vertices."""
    v1 = frozenset(v for v, x in enumerate(mu.mu) if x is PLUS)
    v2 = frozenset(v for v, x in enumerate(mu.mu) if x is not PLUS)
    return Bipartition(v1, v2)


def verify_signature(s: SignedGraph, mu: VertexSignature, mode: str) -> bool:
    """Check sigma(uv) = mu(u)*mu(v) (balance) or -mu(u)*mu(v) (antibalance)
    on every edge; a loop at u therefore needs sigma = + resp. -."""
    if mode not in ("balance", "antibalance"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(mu) != s.graph.vertex_count:
        raise ValueError("signature does not cover the vertex set")
    flip = mode == "antibalance"
    for e, (u, v) in enumerate(s.graph.edges):
        expect = mu[u] * mu[v]
        if flip:
            expect = -expect
        if s.sigma[e] != expect:
            return False
    return True
