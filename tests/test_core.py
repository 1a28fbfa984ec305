import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisign import (
    MINUS,
    PLUS,
    BidirectedGraph,
    DnSignedGraph,
    Di2SignedGraph,
    Sign,
    SignedGraph,
    VertexRole,
    build_graph,
    oriented_label,
    vertex_role,
)

from _strategies import dn_graphs, graphs


def test_sign_product_table():
    assert PLUS * PLUS is PLUS
    assert PLUS * MINUS is MINUS
    assert MINUS * PLUS is MINUS
    assert MINUS * MINUS is PLUS


def test_sign_negation_involution():
    assert -PLUS is MINUS
    assert -MINUS is PLUS
    assert -(-PLUS) is PLUS


def test_sign_chars():
    assert str(PLUS) == "+" and str(MINUS) == "-"
    assert Sign.from_char("+") is PLUS
    assert Sign.from_char("-") is MINUS
    with pytest.raises(ValueError):
        Sign.from_char("x")


def test_sign_hashing():
    assert len({PLUS, MINUS, PLUS}) == 2
    assert Sign(1) is PLUS and Sign(-1) is MINUS
    text = {PLUS: "+", MINUS: "-"}
    assert text[Sign.from_char("-")] == "-"
    pairs = {(a, c): a * c for a in (PLUS, MINUS) for c in (PLUS, MINUS)}
    assert len(pairs) == 4
    assert pairs[(MINUS, MINUS)] is PLUS and pairs[(PLUS, MINUS)] is MINUS


def test_sign_sets_classify_vertex_roles():
    # 0 -> 1 -> 2 with a +/+ loop at 2: 0 is a source, 1 is mixed, 2 a sink
    g = build_graph(3, [(0, 1), (1, 2), (2, 2)])
    b = BidirectedGraph(g, ((MINUS, PLUS), (MINUS, PLUS), (PLUS, PLUS)))
    assert vertex_role(b, 0) is VertexRole.SOURCE
    assert vertex_role(b, 1) is VertexRole.MIXED
    assert vertex_role(b, 2) is VertexRole.SINK


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.edge_count == 3
    assert g.endpoints(0) == (0, 1)
    assert g.endpoints(2) == (2, 0)


def test_build_loop_has_two_half_edges():
    g = build_graph(1, [(0, 0)])
    hes = g.incidence[0]
    assert hes == ((0, 0), (0, 1))
    assert hes[0] != hes[1]
    # a loop at 1 between a parallel pair: half-edges are plain
    # (edge id, side) tuples in that order at every vertex
    g = build_graph(3, [(0, 1), (1, 1), (1, 0), (2, 0)])
    want = [[] for _ in range(g.vertex_count)]
    for e, ends in enumerate(g.edges):
        for side, v in enumerate(ends):
            want[v].append((e, side))
    assert g.incidence == tuple(map(tuple, want))
    assert g.incidence[1] == ((0, 1), (1, 0), (1, 1), (2, 0))
    assert all(type(he) is tuple for hes in g.incidence for he in hes)


def test_build_digon():
    g = build_graph(2, [(0, 1), (0, 1)])
    assert g.edge_count == 2
    assert g.endpoints(0) == g.endpoints(1) == (0, 1)


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(0, [(0, 0)])


def test_incident_half_edges_cases():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert len(g.incidence[0]) == 2
    g2 = build_graph(2, [])
    assert g2.incidence[1] == ()


def test_oriented_label_reversal():
    g = build_graph(2, [(0, 1)])
    d = Di2SignedGraph(g, ((PLUS, MINUS),))
    assert oriented_label(d, 0, 0) == (PLUS, MINUS)
    assert oriented_label(d, 0, 1) == (MINUS, PLUS)
    d3 = DnSignedGraph(3, g, ((PLUS, PLUS, MINUS),))
    assert oriented_label(d3, 0, 1) == (MINUS, PLUS, PLUS)


def test_oriented_label_errors():
    g = build_graph(2, [(0, 1)])
    d = Di2SignedGraph(g, ((PLUS, MINUS),))
    with pytest.raises(ValueError):
        oriented_label(d, 1, 0)
    with pytest.raises(ValueError):
        oriented_label(d, 0, 2)


def test_overlay_validation():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        SignedGraph(g, ())
    with pytest.raises(ValueError):
        DnSignedGraph(0, g, ((PLUS,),))
    with pytest.raises(ValueError):
        DnSignedGraph(2, g, ((PLUS,),))


@given(dn_graphs(max_vertices=5, max_edges=6), st.integers(0, 100))
def test_reversal_is_involution(d, e_pick):
    if d.graph.edge_count == 0:
        return
    e = e_pick % d.graph.edge_count
    fwd = oriented_label(d, e, 0)
    back = oriented_label(d, e, 1)
    assert back == fwd[::-1]
    assert back[::-1] == fwd


@given(graphs())
def test_handshake(g):
    total = sum(len(hes) for hes in g.incidence)
    assert total == 2 * g.edge_count


@given(graphs())
def test_construction_deterministic(g):
    again = build_graph(g.vertex_count, list(g.edges))
    assert again == g
    assert again.incidence == g.incidence
