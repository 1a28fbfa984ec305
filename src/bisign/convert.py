"""Structure-to-structure maps between the sign overlays.

The pair label / bidirection correspondence, the associated signed graph
(sigma = minus the product of the two end signs), negation, the induced
signed graph, and the split of an n-tuple labeling into its component
bidirections plus an optional center sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    MINUS,
    PLUS,
    BidirectedGraph,
    Di2SignedGraph,
    DnSignedGraph,
    SignedGraph,
)


def di2_to_bidirected(d: Di2SignedGraph) -> BidirectedGraph:
    """The first label component becomes the side-0 end sign, the second the
    side-1 end sign."""
    return BidirectedGraph(d.graph, d.labels)


def bidirected_to_di2(b: BidirectedGraph) -> Di2SignedGraph:
    """Exact inverse of :func:`di2_to_bidirected`."""
    return Di2SignedGraph(b.graph, b.beta)


def associated_signed(b: BidirectedGraph) -> SignedGraph:
    """sigma(e) = -(end sign 0 * end sign 1) on every edge, loops included,
    that is minus where the two end signs agree and plus where they differ."""
    sigma = tuple([MINUS if a is c else PLUS for a, c in b.beta])
    return SignedGraph(b.graph, sigma)


def negate_signed(s: SignedGraph) -> SignedGraph:
    """Flip every edge sign.  An involution."""
    sigma = tuple([MINUS if x is PLUS else PLUS for x in s.sigma])
    return SignedGraph(s.graph, sigma)


def induced_signed(d: Di2SignedGraph) -> SignedGraph:
    """The negation of the associated signed graph of the edge-pair labeling;
    works out to sigma(e) = product of the two label components."""
    return negate_signed(associated_signed(di2_to_bidirected(d)))


@dataclass(frozen=True, slots=True)
class DnDecomposition:
    """An n-tuple labeling split into floor(n/2) bidirections over one shared
    graph, plus a center signed graph exactly when n is odd."""

    bidirections: tuple[BidirectedGraph, ...]
    center: Optional[SignedGraph]

    @property
    def n(self) -> int:
        return 2 * len(self.bidirections) + (1 if self.center is not None else 0)


def decompose_dn(d: DnSignedGraph) -> DnDecomposition:
    """Split the stored tuple (a_1,..,a_m[,c],b_m,..,b_1) of each edge into
    bidirections (a_i, b_i) and, for odd n, the center sign c.

    n=1 yields zero bidirections and a center equal to the 1-signed graph.
    """
    n, g = d.n, d.graph
    m = n // 2
    bidirections = tuple(
        BidirectedGraph(g, tuple((t[i], t[n - 1 - i]) for t in d.labels))
        for i in range(m)
    )
    center = SignedGraph(g, tuple(t[m] for t in d.labels)) if n % 2 == 1 else None
    return DnDecomposition(bidirections, center)


def compose_dn(dec: DnDecomposition) -> DnSignedGraph:
    """Exact inverse of :func:`decompose_dn`.

    All components must share one underlying graph; the composed tuples
    satisfy the reversal rule automatically, since reversing the tuple swaps
    each (a_i, b_i) pair and fixes the center.
    """
    parts: list = list(dec.bidirections)
    if dec.center is not None:
        parts.append(dec.center)
    if not parts:
        raise ValueError("decomposition has no components")
    g = parts[0].graph
    if any(p.graph != g for p in parts):
        raise ValueError("components have mismatched underlying graphs")
    # tuple position -> that position's sign on every edge: the side-0 signs,
    # the center, then the side-1 signs in reverse order
    columns = [[a for a, _ in b.beta] for b in dec.bidirections]
    if dec.center is not None:
        columns.append(dec.center.sigma)
    columns += [[c for _, c in b.beta] for b in reversed(dec.bidirections)]
    return DnSignedGraph(dec.n, g, tuple(zip(*columns)))
