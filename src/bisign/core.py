"""Multigraph types with half-edge addressing and the four sign overlays.

Everything here is immutable after construction.  Edges carry dense integer
ids in insertion order; each edge has two half-edges, the ints
``2 * edge_id`` (side 0) and ``2 * edge_id + 1`` (side 1), which stay
distinct even on a loop.  The canonical orientation of an edge runs from
side 0 to side 1, and all stored label tuples are relative to it.
"""

from __future__ import annotations

from array import array
from enum import Enum
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter
from typing import Union

__all__ = [
    "PLUS",
    "MINUS",
    "Sign",
    "Graph",
    "VertexId",
    "EdgeId",
    "BidirectedGraph",
    "SignedGraph",
    "Di2SignedGraph",
    "DnSignedGraph",
    "build_graph",
    "oriented_label",
]

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

    def __str__(self) -> str:
        return "+" if self is Sign.PLUS else "-"

    def __repr__(self) -> str:
        return f"Sign({str(self)!r})"


PLUS = Sign.PLUS
MINUS = Sign.MINUS


class _Value:
    """Repr, ``==``, hash, immutability, copy and pickle over a field getter
    set per class from the field names in its ``__match_args__``.  Each type
    stores its fields in its own ``__init__``; copy and pickle call it."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__match_args__)
        # a getter of one name returns the bare value: wrap it in a 1-tuple
        cls._values = staticmethod(get if len(cls.__match_args__) > 1 else lambda x: (get(x),))

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values(self)

    def __setstate__(self, state) -> None:
        self.__init__(*state)


def _setters(cls) -> tuple:
    """Each field slot's ``__set__``, in field order."""
    # __init__ stores through these: past _Value.__setattr__, no by-name lookup
    return tuple(cls.__dict__[name].__set__ for name in cls.__match_args__)


class Graph(_Value):
    """A multigraph: loops and parallel edges allowed, vertices 0..n-1.

    ``edges[e]`` is the endpoint pair ``(end0, end1)`` of edge ``e``; the pair
    order fixes the half-edge sides.
    """

    __match_args__ = ("vertex_count", "edges")
    # ``__dict__`` holds only the cached ``incidence`` / ``_forest``
    __slots__ = (*__match_args__, "__dict__")

    def __init__(self, vertex_count: int, edges: tuple[tuple[VertexId, VertexId], ...]):
        _g_vertex_count(self, vertex_count)
        _g_edges(self, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        if not 0 <= e < len(self.edges):
            raise ValueError(f"unknown edge id {e}")
        return self.edges[e]

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex incident half-edges, ordered by edge id, then side.

        Half-edge ``h = 2e + side`` is the given side of edge ``e``: ``h >> 1``
        is the edge, ``h & 1`` the side and ``h ^ 1`` the other half-edge.

        Cached on the graph when read.  ``_forest`` builds its own copy and
        keeps none: that copy is freed when it returns.
        """
        inc: list = [[] for _ in range(self.vertex_count)]
        h = 0
        for u, v in self.edges:
            inc[u].append(h)
            inc[v].append(h + 1)
            h += 2
        # freeze each list in place, so the lists and tuples never coexist
        for v, hes in enumerate(inc):
            inc[v] = tuple(hes)
        return tuple(inc)

    @cached_property
    def _forest(self) -> tuple[array, array, array, array, array]:
        """The breadth-first spanning forest, which depends on the graph
        alone: each component's root is its lowest-id vertex, and a vertex
        scans its half-edges in ``incidence`` order.

        Returns the non-root vertices in discovery order; each vertex's
        parent edge, parent vertex (-1 at a root) and depth; and the ids of
        the non-tree edges in increasing order.

        ``far[h]`` is the far end of half-edge ``h``: the endpoint array with
        its even and odd slots swapped.  It holds the values inline, where a
        list would point at the parser's int objects, scattered on the heap
        in parse order and so read in random order by the BFS.
        """
        n = self.vertex_count
        edges = self.edges
        # the builder is looked up at call time: a traced ``incidence`` sees this build
        incidence = Graph.incidence.func(self)
        far = array("i", chain.from_iterable(edges))
        far[0::2], far[1::2] = far[1::2], far[0::2]
        seen = bytearray(n)
        parent_edge = array("i", [-1]) * n
        parent_vertex = array("i", [-1]) * n
        depth = array("i", [0]) * n
        order = array("i")
        nontree = bytearray(b"\x01") * len(edges)
        i = 0  # the BFS queue is ``order[i:]``: found, not yet scanned
        # a root with no half-edges is a component of its own: skip it
        for root in compress(range(n), incidence):
            if seen[root]:
                continue
            seen[root] = 1
            u = root
            while True:
                d = depth[u] + 1
                for h in incidence[u]:
                    w = far[h]
                    if not seen[w]:
                        e = h >> 1
                        seen[w] = 1
                        parent_edge[w] = e
                        parent_vertex[w] = u
                        depth[w] = d
                        nontree[e] = 0
                        order.append(w)
                if i == len(order):
                    break
                u = order[i]
                i += 1
        nontree_ids = array("i", compress(range(len(edges)), nontree))
        return order, parent_edge, parent_vertex, depth, nontree_ids


_g_vertex_count, _g_edges = _setters(Graph)


def build_graph(
    vertex_count: int, endpoint_pairs: list[tuple[VertexId, VertexId]]
) -> Graph:
    """Build a multigraph; side 0 of each edge is the first listed endpoint."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    edges = tuple(map(tuple, endpoint_pairs))
    if edges and (
        min(chain.from_iterable(edges)) < 0
        or max(chain.from_iterable(edges)) >= vertex_count
        or set(map(len, edges)) != {2}
    ):
        # name the first bad edge; a pair that is not a pair fails to unpack
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge {i} endpoint out of range: ({u}, {v}) with "
                    f"{vertex_count} vertices"
                )
    return Graph(vertex_count, edges)  # type: ignore[arg-type]


class BidirectedGraph(_Value):
    """A graph plus a sign on every half-edge (the bidirection).

    A ``+`` end is drawn as an arrow pointing into its vertex, a ``-`` end as
    an arrow pointing out.
    """

    __slots__ = __match_args__ = ("graph", "beta")

    def __init__(self, graph: Graph, beta: tuple[tuple[Sign, Sign], ...]):
        if len(beta) != len(graph.edges):
            raise ValueError("beta must cover every edge")
        _bg_graph(self, graph)
        _bg_beta(self, beta)


_bg_graph, _bg_beta = _setters(BidirectedGraph)


class SignedGraph(_Value):
    """A graph plus a sign on every edge."""

    __slots__ = __match_args__ = ("graph", "sigma")

    def __init__(self, graph: Graph, sigma: tuple[Sign, ...]):
        if len(sigma) != len(graph.edges):
            raise ValueError("sigma must cover every edge")
        _sg_graph(self, graph)
        _sg_sigma(self, sigma)


_sg_graph, _sg_sigma = _setters(SignedGraph)


class Di2SignedGraph(_Value):
    """A graph whose edges carry an ordered sign pair that reverses with
    the reading direction.  Stored relative to the canonical orientation."""

    __slots__ = __match_args__ = ("graph", "labels")

    def __init__(self, graph: Graph, labels: tuple[tuple[Sign, Sign], ...]):
        if len(labels) != len(graph.edges):
            raise ValueError("labels must cover every edge")
        _d2_graph(self, graph)
        _d2_labels(self, labels)


_d2_graph, _d2_labels = _setters(Di2SignedGraph)


class DnSignedGraph(_Value):
    """A graph whose edges carry a length-n sign tuple that reverses (as a
    sequence) with the reading direction."""

    __slots__ = __match_args__ = ("n", "graph", "labels")

    def __init__(self, n: int, graph: Graph, labels: tuple[tuple[Sign, ...], ...]):
        if n < 1:
            raise ValueError("n must be positive")
        if len(labels) != len(graph.edges):
            raise ValueError("labels must cover every edge")
        for e, t in enumerate(labels):
            if len(t) != n:
                raise ValueError(f"edge {e}: tuple length {len(t)} != n={n}")
        _dn_n(self, n)
        _dn_graph(self, graph)
        _dn_labels(self, labels)


_dn_n, _dn_graph, _dn_labels = _setters(DnSignedGraph)


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
