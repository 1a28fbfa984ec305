"""The public API: each library module declares its own ``__all__``, and
``bisign`` re-exports their concatenation, so each public name is written
once where it is defined and once in its module's list."""

import pytest

import bisign
from bisign import balance, convert, core, uniform

PUBLIC = [
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


def test_public_names_are_pinned():
    assert bisign.__all__ == PUBLIC
    assert bisign.__all__ == core.__all__ + convert.__all__ + balance.__all__ + uniform.__all__


@pytest.mark.parametrize("module", [bisign, core, convert, balance, uniform],
                         ids=lambda m: m.__name__)
def test_star_import_binds_exactly_all(module):
    # a name in __all__ that does not resolve makes the import raise
    names: dict = {}
    exec(f"from {module.__name__} import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(module.__all__)
    assert all(names[name] is getattr(module, name) for name in module.__all__)
