"""Bidirected, signed and directionally multisigned multigraphs.

Immutable multigraph types with half-edge addressing, the maps between the
sign overlays, certificate-producing balance / antibalance / uniformization
checks, brute-force testing oracles, seeded random graphs, and a line-format CLI.
"""

from .core import (
    MINUS,
    PLUS,
    BidirectedGraph,
    Di2SignedGraph,
    DnSignedGraph,
    EdgeId,
    Graph,
    Sign,
    SignedGraph,
    VertexId,
    build_graph,
    oriented_label,
)
from .convert import (
    DnDecomposition,
    associated_signed,
    bidirected_to_di2,
    compose_dn,
    decompose_dn,
    di2_to_bidirected,
    induced_signed,
    negate_signed,
)
from .balance import (
    BalanceResult,
    CycleWitness,
    VertexSignature,
    cycle_sign,
    is_antibalanced,
    is_balanced,
    verify_signature,
)
from .uniform import (
    UniformizationResult,
    VertexRole,
    is_uniform,
    reorient,
    uniformize,
    vertex_role,
)

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
    "DnDecomposition",
    "di2_to_bidirected",
    "bidirected_to_di2",
    "associated_signed",
    "negate_signed",
    "induced_signed",
    "decompose_dn",
    "compose_dn",
    "BalanceResult",
    "CycleWitness",
    "VertexSignature",
    "cycle_sign",
    "is_balanced",
    "is_antibalanced",
    "verify_signature",
    "VertexRole",
    "UniformizationResult",
    "vertex_role",
    "is_uniform",
    "reorient",
    "uniformize",
]
