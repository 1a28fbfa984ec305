"""Multigraph types with half-edge addressing and the four sign overlays.

Everything here is immutable after construction.  Edges carry dense integer
ids in insertion order; each edge has two half-edges ``(edge_id, 0)`` and
``(edge_id, 1)``, which stay distinct even on a loop.  The canonical
orientation of an edge runs from side 0 to side 1, and all stored label
tuples are relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Union

VertexId = int
EdgeId = int


class Sign(Enum):
    """An element of the sign group {+, -} under multiplication."""

    PLUS = 1
    MINUS = -1

    # members are identity-compared singletons; Enum.__hash__ is a Python-level call
    __hash__ = object.__hash__

    def __mul__(self, other: "Sign") -> "Sign":
        if self is Sign.PLUS:
            return other
        return Sign.PLUS if other is Sign.MINUS else Sign.MINUS

    def __neg__(self) -> "Sign":
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS

    @classmethod
    def from_char(cls, ch: str) -> "Sign":
        if ch == "+":
            return cls.PLUS
        if ch == "-":
            return cls.MINUS
        raise ValueError(f"not a sign: {ch!r}")

    def __str__(self) -> str:
        return "+" if self is Sign.PLUS else "-"

    def __repr__(self) -> str:
        return f"Sign({str(self)!r})"


PLUS = Sign.PLUS
MINUS = Sign.MINUS


class HalfEdge(NamedTuple):
    """One end of an edge; ``side`` is 0 or 1."""

    edge_id: EdgeId
    side: int


@dataclass(frozen=True)
class Graph:
    """A multigraph: loops and parallel edges allowed, vertices 0..n-1.

    ``edges[e]`` is the endpoint pair ``(end0, end1)`` of edge ``e``; the pair
    order fixes the half-edge sides.
    """

    vertex_count: int
    edges: tuple[tuple[VertexId, VertexId], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        if not 0 <= e < len(self.edges):
            raise ValueError(f"unknown edge id {e}")
        return self.edges[e]

    def half_edges(self):
        for e in range(len(self.edges)):
            yield HalfEdge(e, 0)
            yield HalfEdge(e, 1)

    @cached_property
    def incidence(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Per-vertex incident half-edges, ordered by (edge id, side)."""
        inc: list[list[HalfEdge]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append(HalfEdge(e, 0))
            inc[v].append(HalfEdge(e, 1))
        return tuple(tuple(hes) for hes in inc)


def build_graph(
    vertex_count: int, endpoint_pairs: list[tuple[VertexId, VertexId]]
) -> Graph:
    """Build a multigraph; side 0 of each edge is the first listed endpoint."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    for i, (u, v) in enumerate(endpoint_pairs):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(
                f"edge {i} endpoint out of range: ({u}, {v}) with "
                f"{vertex_count} vertices"
            )
    return Graph(vertex_count, tuple((u, v) for u, v in endpoint_pairs))


def incident_half_edges(g: Graph, v: VertexId) -> list[HalfEdge]:
    """All half-edges attached to v; a loop at v contributes both of its ends."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    return list(g.incidence[v])


@dataclass(frozen=True)
class BidirectedGraph:
    """A graph plus a sign on every half-edge (the bidirection).

    A ``+`` end is drawn as an arrow pointing into its vertex, a ``-`` end as
    an arrow pointing out.
    """

    graph: Graph
    beta: tuple[tuple[Sign, Sign], ...]

    def __post_init__(self):
        if len(self.beta) != len(self.graph.edges):
            raise ValueError("beta must cover every edge")


@dataclass(frozen=True)
class SignedGraph:
    """A graph plus a sign on every edge."""

    graph: Graph
    sigma: tuple[Sign, ...]

    def __post_init__(self):
        if len(self.sigma) != len(self.graph.edges):
            raise ValueError("sigma must cover every edge")


@dataclass(frozen=True)
class Di2SignedGraph:
    """A graph whose edges carry an ordered sign pair that reverses with
    the reading direction.  Stored relative to the canonical orientation."""

    graph: Graph
    labels: tuple[tuple[Sign, Sign], ...]

    def __post_init__(self):
        if len(self.labels) != len(self.graph.edges):
            raise ValueError("labels must cover every edge")


@dataclass(frozen=True)
class DnSignedGraph:
    """A graph whose edges carry a length-n sign tuple that reverses (as a
    sequence) with the reading direction."""

    n: int
    graph: Graph
    labels: tuple[tuple[Sign, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if len(self.labels) != len(self.graph.edges):
            raise ValueError("labels must cover every edge")
        for e, t in enumerate(self.labels):
            if len(t) != self.n:
                raise ValueError(f"edge {e}: tuple length {len(t)} != n={self.n}")


def oriented_label(
    g: Union[DnSignedGraph, Di2SignedGraph], e: EdgeId, from_side: int
) -> tuple[Sign, ...]:
    """The edge's sign tuple read starting from the given side.

    Reading from side 0 gives the stored tuple; reading from side 1 gives
    the fully reversed tuple.
    """
    if not 0 <= e < len(g.labels):
        raise ValueError(f"unknown edge id {e}")
    if from_side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {from_side}")
    t = tuple(g.labels[e])
    return t if from_side == 0 else t[::-1]
