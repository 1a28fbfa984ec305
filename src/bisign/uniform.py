"""Source/sink classification, reorientation, and uniformization.

A vertex is a sink when every incident half-edge sign is ``+``, a source
when every one is ``-``.  Reorienting an edge negates both of its end signs
and never changes the associated signed graph.  A bidirected graph can be
made uniform (every vertex a source, sink, or isolated) by reorienting some
edge subset exactly when its associated signed graph is antibalanced; the
antibalance signature directly builds the uniform graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import MINUS, PLUS, BidirectedGraph, EdgeId, VertexId, _setattr
from .convert import associated_signed
from .balance import CycleWitness, VertexSignature, is_antibalanced


class VertexRole(Enum):
    SOURCE = "source"
    SINK = "sink"
    ISOLATED = "isolated"
    MIXED = "mixed"


@dataclass(frozen=True, slots=True, init=False)
class UniformizationResult:
    """Either a reorientation certificate (edge set, the resulting uniform
    graph, and the source/sink signature) or a violating cycle of the
    associated signed graph."""

    reorient_set: Optional[frozenset[EdgeId]]
    uniform: Optional[BidirectedGraph]
    signature: Optional[VertexSignature]
    witness: Optional[CycleWitness]

    def __init__(
        self,
        reorient_set: Optional[frozenset[EdgeId]] = None,
        uniform: Optional[BidirectedGraph] = None,
        signature: Optional[VertexSignature] = None,
        witness: Optional[CycleWitness] = None,
    ):
        _setattr(self, "reorient_set", reorient_set)
        _setattr(self, "uniform", uniform)
        _setattr(self, "signature", signature)
        _setattr(self, "witness", witness)

    @property
    def holds(self) -> bool:
        return self.witness is None


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
    """True when no vertex is mixed (vacuously true on the empty graph)."""
    return all(
        vertex_role(b, v) is not VertexRole.MIXED
        for v in range(b.graph.vertex_count)
    )


# the four end-sign pairs, shared by every graph built here, and each
# pair's negation
_PAIRS = {(a, c): (a, c) for a in (PLUS, MINUS) for c in (PLUS, MINUS)}
_NEGATED = {p: _PAIRS[-p[0], -p[1]] for p in _PAIRS}


def reorient(b: BidirectedGraph, edges: Iterable[EdgeId]) -> BidirectedGraph:
    """Negate both end signs of each listed edge.  Applying the same set
    twice restores the input."""
    flip = set(edges)
    m = len(b.graph.edges)
    for e in flip:
        if not 0 <= e < m:
            raise ValueError(f"unknown edge id {e}")
    beta = list(b.beta)
    for e in flip:
        beta[e] = _NEGATED[beta[e]]
    return BidirectedGraph(b.graph, tuple(beta))


def uniformize(b: BidirectedGraph) -> UniformizationResult:
    """Uniformize up to reorientation, or report a violating cycle.

    When the associated signed graph is antibalanced with signature mu, the
    graph with every half-edge at u signed mu(u) is uniform and induces the
    same signed graph; the edges where it differs from b form the
    reorientation set.  mu marks sinks + and sources - (isolated vertices +).
    """
    r = is_antibalanced(associated_signed(b))
    if r.witness is not None:
        return UniformizationResult(None, None, None, r.witness)
    mu = r.signature.mu
    target = tuple([_PAIRS[mu[u], mu[v]] for u, v in b.graph.edges])
    # sigma equality forces the two graphs to differ on both ends or neither,
    # so comparing side 0 alone picks out whole-edge reorientations
    flips = frozenset(
        [e for e, (old, new) in enumerate(zip(b.beta, target)) if old[0] is not new[0]]
    )
    uniform = BidirectedGraph(b.graph, target)
    if reorient(b, flips).beta != target:
        raise AssertionError("reorienting the flip set does not give the uniform graph")
    return UniformizationResult(flips, uniform, r.signature)
