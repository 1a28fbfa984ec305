"""Source/sink classification, reorientation, and uniformization.

A vertex is a sink when every incident half-edge sign is ``+``, a source
when every one is ``-``.  Reorienting an edge negates both of its end signs
and never changes the associated signed graph.  A bidirected graph can be
made uniform (every vertex a source, sink, or isolated) by reorienting some
edge subset exactly when its associated signed graph is antibalanced; the
antibalance signature directly builds the uniform graph.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from typing import Iterable, Optional

from .core import MINUS, PLUS, BidirectedGraph, EdgeId, Sign, VertexId, _Value, _setters
from .convert import associated_signed
from .balance import CycleWitness, VertexSignature, is_antibalanced

__all__ = [
    "VertexRole",
    "UniformizationResult",
    "vertex_role",
    "is_uniform",
    "reorient",
    "uniformize",
]


class VertexRole(Enum):
    SOURCE = "source"
    SINK = "sink"
    ISOLATED = "isolated"
    MIXED = "mixed"


class UniformizationResult(_Value):
    """Either a reorientation certificate (edge set, the resulting uniform
    graph, and the source/sink signature) or a violating cycle of the
    associated signed graph."""

    __slots__ = __match_args__ = ("reorient_set", "uniform", "signature", "witness")

    def __init__(
        self,
        reorient_set: Optional[frozenset[EdgeId]] = None,
        uniform: Optional[BidirectedGraph] = None,
        signature: Optional[VertexSignature] = None,
        witness: Optional[CycleWitness] = None,
    ):
        _ur_reorient_set(self, reorient_set)
        _ur_uniform(self, uniform)
        _ur_signature(self, signature)
        _ur_witness(self, witness)

    @property
    def holds(self) -> bool:
        return self.witness is None


_ur_reorient_set, _ur_uniform, _ur_signature, _ur_witness = _setters(UniformizationResult)


def vertex_role(b: BidirectedGraph, v: VertexId) -> VertexRole:
    """Classify a vertex over its half-edges; a loop contributes both ends."""
    if not 0 <= v < b.graph.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    hes = b.graph.incidence[v]
    if not hes:
        return VertexRole.ISOLATED
    signs = {b.beta[h >> 1][h & 1] for h in hes}
    if signs == {PLUS}:
        return VertexRole.SINK
    if signs == {MINUS}:
        return VertexRole.SOURCE
    return VertexRole.MIXED


def is_uniform(b: BidirectedGraph) -> bool:
    """True when every end's sign is the first sign seen at its vertex: no vertex is mixed."""
    first: dict[VertexId, Sign] = {}
    ends = zip(chain.from_iterable(b.graph.edges), chain.from_iterable(b.beta))
    return all(first.setdefault(v, sign) is sign for v, sign in ends)


# each end-sign pair's negation, one shared tuple per pair for every graph
_NEGATED = {(a, c): (-a, -c) for a in (PLUS, MINUS) for c in (PLUS, MINUS)}


def reorient(b: BidirectedGraph, edges: Iterable[EdgeId]) -> BidirectedGraph:
    """Negate both end signs of each listed edge.  Applying the same set
    twice restores the input."""
    m = len(b.graph.edges)
    beta = list(b.beta)
    for e in frozenset(edges):
        if not 0 <= e < m:
            raise ValueError(f"unknown edge id {e}")
        beta[e] = _NEGATED[beta[e]]
    return BidirectedGraph(b.graph, tuple(beta))


def uniformize(b: BidirectedGraph) -> UniformizationResult:
    """Uniformize up to reorientation, or report a violating cycle.

    When the associated signed graph is antibalanced with signature mu, the
    graph with every half-edge at u signed mu(u) is uniform and induces the
    same signed graph; the edges where it differs from b form the
    reorientation set.  mu marks sinks + and sources - (isolated vertices +).
    """
    b.graph._forest  # built before the sign tuples, so its peak holds none of them
    r = is_antibalanced(associated_signed(b))
    if r.witness is not None:
        return UniformizationResult(None, None, None, r.witness)
    mu = r.signature.mu
    edges = b.graph.edges
    beta = b.beta
    # sigma equality forces the uniform graph to differ from b on both ends
    # of an edge or neither, so comparing side 0 with mu alone picks out
    # whole-edge reorientations
    flips = frozenset([e for e, (u, _) in enumerate(edges) if beta[e][0] is not mu[u]])
    uniform = reorient(b, flips)
    # checked pair by pair, so no copy of the uniform labeling is built
    if any(p != (mu[u], mu[v]) for (u, v), p in zip(edges, uniform.beta)):
        raise AssertionError("reorienting the flip set does not give the uniform graph")
    return UniformizationResult(flips, uniform, r.signature)
