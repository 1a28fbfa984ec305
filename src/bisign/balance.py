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

from typing import Optional

from .core import MINUS, PLUS, EdgeId, Graph, Sign, SignedGraph, VertexId, _Value, _setters
from .convert import negate_signed

__all__ = [
    "BalanceResult",
    "CycleWitness",
    "VertexSignature",
    "cycle_sign",
    "is_balanced",
    "is_antibalanced",
    "verify_signature",
]


class VertexSignature(_Value):
    """A total vertex sign labeling mu."""

    __slots__ = __match_args__ = ("mu",)

    def __init__(self, mu: tuple[Sign, ...]):
        _vs_mu(self, mu)


(_vs_mu,) = _setters(VertexSignature)


class CycleWitness(_Value):
    """A cycle given as an edge sequence forming a closed walk with no
    repeated edge or vertex, together with its sign product."""

    __slots__ = __match_args__ = ("edges", "sign")

    def __init__(self, edges: tuple[EdgeId, ...], sign: Sign):
        _cw_edges(self, edges)
        _cw_sign(self, sign)


_cw_edges, _cw_sign = _setters(CycleWitness)


class BalanceResult(_Value):
    """Either a certifying signature or a violating cycle, never both."""

    __slots__ = __match_args__ = ("signature", "witness")

    def __init__(
        self,
        signature: Optional[VertexSignature] = None,
        witness: Optional[CycleWitness] = None,
    ):
        _br_signature(self, signature)
        _br_witness(self, witness)

    @property
    def holds(self) -> bool:
        return self.witness is None


_br_signature, _br_witness = _setters(BalanceResult)


def closed_walk_vertices(graph: Graph, edges: tuple[EdgeId, ...]) -> list[VertexId]:
    """Validate that the edge sequence is a cycle and return the vertices
    visited, one per edge.

    The walk starts at either end of the first edge; each edge must contain
    the current vertex and moves to its other end, and the walk must close
    without repeating a vertex.  Raises ValueError otherwise.
    """
    if not edges:
        raise ValueError("empty edge list is not a cycle")
    if len(set(edges)) != len(edges):
        raise ValueError("repeated edge in cycle")
    ends = [graph.endpoints(e) for e in edges]
    for cur in ends[0]:
        walk = []
        for a, b in ends:
            if cur != a and cur != b:
                break
            walk.append(cur)
            cur = b if cur == a else a
        else:
            if cur == walk[0] and len(set(walk)) == len(walk):
                return walk
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
    for e in nontree:
        u, v = edges[e]
        # sigma(e) = mu(u) * mu(v)
        if (sigma[e] is PLUS) == (mu[u] is mu[v]):
            continue
        # climb the deeper side (u on ties) to the common ancestor, collecting
        # tree edges on both sides; a loop climbs nowhere
        pu: list[int] = []
        pv: list[int] = []
        while u != v:
            if depth[u] >= depth[v]:
                pu.append(parent_edge[u])
                u = parent_vertex[u]
            else:
                pv.append(parent_edge[v])
                v = parent_vertex[v]
        return BalanceResult(None, CycleWitness((e, *pv, *reversed(pu)), MINUS))

    return BalanceResult(VertexSignature(tuple(mu)))


def is_antibalanced(s: SignedGraph) -> BalanceResult:
    """Decide antibalance via balance of the negated graph.

    A positive result carries mu with sigma(uv) = -mu(u)*mu(v) on every
    edge; a negative result carries a cycle of s violating the parity
    condition, with its sign taken in s.
    """
    s.graph._forest  # built before the negated signs, so its peak holds none of them
    r = is_balanced(negate_signed(s))
    w = r.witness
    # the witness is negative in the negated graph; negating every edge keeps
    # an even cycle's sign and makes an odd one positive
    if w is None or len(w.edges) % 2 == 0:
        return r
    return BalanceResult(None, CycleWitness(w.edges, PLUS))


def verify_signature(s: SignedGraph, mu: VertexSignature, mode: str) -> bool:
    """Check sigma(uv) = mu(u)*mu(v) (balance) or -mu(u)*mu(v) (antibalance)
    on every edge; a loop at u therefore needs sigma = + resp. -."""
    if mode not in ("balance", "antibalance"):
        raise ValueError(f"unknown mode {mode!r}")
    signs = mu.mu
    if len(signs) != s.graph.vertex_count:
        raise ValueError("signature does not cover the vertex set")
    factor = PLUS if mode == "balance" else MINUS
    ends = zip(s.graph.edges, s.sigma)
    return all((sign is factor) == (signs[u] is signs[v]) for (u, v), sign in ends)
