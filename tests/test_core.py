import copy
import dataclasses
import pickle
from array import array
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisign import (
    MINUS,
    PLUS,
    BalanceResult,
    BidirectedGraph,
    CycleWitness,
    DnSignedGraph,
    Di2SignedGraph,
    Sign,
    SignedGraph,
    VertexRole,
    VertexSignature,
    build_graph,
    decompose_dn,
    is_balanced,
    oriented_label,
    uniformize,
    vertex_role,
)
from bisign.cli import MAX_VERTICES
from bisign.generate import SplitMix64, random_bidirected
from bisign.oracle import GraphEnumeration, enumerate_multigraphs

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
    assert hes == (0, 1)
    assert hes[0] != hes[1]
    # a loop at 1 between a parallel pair: half-edges are the ints
    # 2 * edge id + side, ordered by edge id, then side, at every vertex
    g = build_graph(3, [(0, 1), (1, 1), (1, 0), (2, 0)])
    want = [[] for _ in range(g.vertex_count)]
    for e, ends in enumerate(g.edges):
        for side, v in enumerate(ends):
            want[v].append(2 * e + side)
    assert g.incidence == tuple(map(tuple, want))
    assert g.incidence[1] == (1, 2, 3, 4)
    assert all(type(h) is int for hes in g.incidence for h in hes)


def test_incidence_encoding_exhaustive():
    # every small multigraph, as listed and with every edge reversed
    checked = 0
    for listed in enumerate_multigraphs(GraphEnumeration(4, 5)):
        reversed_edges = [(v, u) for u, v in listed.edges]
        for g in (listed, build_graph(listed.vertex_count, reversed_edges)):
            for v, hes in enumerate(g.incidence):
                for h in hes:
                    e, side = h >> 1, h & 1
                    assert g.edges[e][side] == v
                    # the other half of the same edge is listed at its other end
                    assert h ^ 1 in g.incidence[g.edges[e][1 - side]]
                want = sorted(
                    2 * e + side
                    for e, ends in enumerate(g.edges)
                    for side, x in enumerate(ends)
                    if x == v
                )
                assert list(hes) == want
            checked += 1
    assert checked == 2 * 3_528


def _reference_forest(g):
    """The BFS spanning forest with a queue: roots in increasing id, and
    each vertex's (edge, side) pairs, built here from ``edges``, scanned by
    edge id, then side.  Returns the non-root vertices in discovery order,
    each vertex's parent edge, parent vertex and depth, and the non-tree
    edge ids in increasing order."""
    n = g.vertex_count
    incident = [[] for _ in range(n)]
    for e, ends in enumerate(g.edges):
        for side, x in enumerate(ends):
            incident[x].append((e, side))
    seen = [False] * n
    order, tree = [], set()
    parent_edge, parent_vertex, depth = [-1] * n, [-1] * n, [0] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for e, side in incident[u]:
                w = g.edges[e][1 - side]
                if not seen[w]:
                    seen[w] = True
                    parent_edge[w], parent_vertex[w], depth[w] = e, u, depth[u] + 1
                    tree.add(e)
                    order.append(w)
                    queue.append(w)
    nontree = [e for e in range(len(g.edges)) if e not in tree]
    return order, parent_edge, parent_vertex, depth, nontree


def _check_forest(g):
    # each caller passes a new graph: the forest leaves no incidence cached
    forest = g._forest
    assert "incidence" not in vars(g)
    assert all(type(a) is array and a.typecode == "i" for a in forest)
    assert [a.tolist() for a in forest] == list(_reference_forest(g))


def test_forest_matches_reference_bfs():
    # every small multigraph, as listed and with every edge reversed
    checked = 0
    for listed in enumerate_multigraphs(GraphEnumeration(4, 5)):
        reversed_edges = [(v, u) for u, v in listed.edges]
        for g in (listed, build_graph(listed.vertex_count, reversed_edges)):
            _check_forest(g)
            checked += 1
    assert checked == 2 * 3_528
    # larger seeded graphs with loops, parallel edges and isolated vertices
    isolated = 0
    for seed in range(40):
        rng = SplitMix64(seed)
        n = 1 + rng.below(400)
        g = random_bidirected(n, rng.below(n + 1), True, True, seed).graph
        _check_forest(g)
        isolated += sum(not hes for hes in g.incidence)
    assert isolated > 0
    # the whole vertex range, nearly all isolated, with a few edges, loops
    # and parallel edges on the top ids: the far ends stay exact there
    top = MAX_VERTICES - 1
    g = build_graph(MAX_VERTICES, [(top, top - 2), (top - 1, top - 1), (top - 2, top),
                                   (top, top), (5, top - 1), (top - 1, top - 2)])
    _check_forest(g)
    assert g._forest[0].tolist() == [top - 1, top - 2, top]


def test_build_digon():
    g = build_graph(2, [(0, 1), (0, 1)])
    assert g.edge_count == 2
    assert g.endpoints(0) == g.endpoints(1) == (0, 1)


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(0, [(0, 0)])
    with pytest.raises(ValueError, match="^vertex_count must be nonnegative$"):
        build_graph(-1, [])
    with pytest.raises(ValueError, match="^unknown edge id 5$"):
        build_graph(2, [(0, 1)]).endpoints(5)


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
    # a label tuple one short of the edge count, and one too long
    for labels in ((), ((PLUS, MINUS),) * 2):
        with pytest.raises(ValueError, match="^beta must cover every edge$"):
            BidirectedGraph(g, labels)
        with pytest.raises(ValueError, match="^sigma must cover every edge$"):
            SignedGraph(g, tuple(a for a, _ in labels))
        with pytest.raises(ValueError, match="^labels must cover every edge$"):
            Di2SignedGraph(g, labels)
        with pytest.raises(ValueError, match="^labels must cover every edge$"):
            DnSignedGraph(2, g, labels)
    with pytest.raises(ValueError, match="^n must be positive$"):
        DnSignedGraph(0, g, ((PLUS,),))
    with pytest.raises(ValueError, match=r"^edge 0: tuple length 1 != n=2$"):
        DnSignedGraph(2, g, ((PLUS,),))


# every public value type: a builder (called twice, for two equal but
# distinct values) and the value's pinned repr
_G = "Graph(vertex_count=2, edges=((0, 1), (1, 1)))"
_PM_MM = "((Sign('+'), Sign('-')), (Sign('-'), Sign('-')))"
_LOOP = build_graph(2, [(0, 1), (1, 1)])
VALUES = {
    "Graph": (lambda: build_graph(2, [(0, 1), (1, 1)]), _G),
    "BidirectedGraph": (
        lambda: BidirectedGraph(_LOOP, ((PLUS, MINUS), (MINUS, MINUS))),
        f"BidirectedGraph(graph={_G}, beta={_PM_MM})",
    ),
    "SignedGraph": (
        lambda: SignedGraph(_LOOP, (PLUS, MINUS)),
        f"SignedGraph(graph={_G}, sigma=(Sign('+'), Sign('-')))",
    ),
    "Di2SignedGraph": (
        lambda: Di2SignedGraph(_LOOP, ((PLUS, MINUS), (MINUS, MINUS))),
        f"Di2SignedGraph(graph={_G}, labels={_PM_MM})",
    ),
    "DnSignedGraph": (
        lambda: DnSignedGraph(3, _LOOP, ((PLUS, PLUS, MINUS), (MINUS, PLUS, MINUS))),
        f"DnSignedGraph(n=3, graph={_G}, labels=((Sign('+'), Sign('+'), Sign('-')), "
        "(Sign('-'), Sign('+'), Sign('-'))))",
    ),
    "DnDecomposition": (
        lambda: decompose_dn(
            DnSignedGraph(3, _LOOP, ((PLUS, PLUS, MINUS), (MINUS, PLUS, MINUS)))
        ),
        f"DnDecomposition(bidirections=(BidirectedGraph(graph={_G}, beta={_PM_MM}),), "
        f"center=SignedGraph(graph={_G}, sigma=(Sign('+'), Sign('+'))))",
    ),
    "VertexSignature": (
        lambda: VertexSignature((PLUS, MINUS)),
        "VertexSignature(mu=(Sign('+'), Sign('-')))",
    ),
    "CycleWitness": (
        lambda: CycleWitness((1,), MINUS),
        "CycleWitness(edges=(1,), sign=Sign('-'))",
    ),
    "BalanceResult-holds": (
        lambda: is_balanced(SignedGraph(_LOOP, (MINUS, PLUS))),
        "BalanceResult(signature=VertexSignature(mu=(Sign('+'), Sign('-'))), witness=None)",
    ),
    "BalanceResult-fails": (
        lambda: BalanceResult(witness=CycleWitness((1,), MINUS)),
        "BalanceResult(signature=None, witness=CycleWitness(edges=(1,), sign=Sign('-')))",
    ),
    "UniformizationResult-holds": (
        lambda: uniformize(BidirectedGraph(_LOOP, ((PLUS, PLUS), (MINUS, MINUS)))),
        f"UniformizationResult(reorient_set=frozenset({{1}}), uniform=BidirectedGraph("
        f"graph={_G}, beta=((Sign('+'), Sign('+')), (Sign('+'), Sign('+')))), "
        "signature=VertexSignature(mu=(Sign('+'), Sign('+'))), witness=None)",
    ),
    "UniformizationResult-fails": (
        lambda: uniformize(BidirectedGraph(_LOOP, ((PLUS, MINUS), (MINUS, PLUS)))),
        "UniformizationResult(reorient_set=None, uniform=None, signature=None, "
        "witness=CycleWitness(edges=(1,), sign=Sign('+')))",
    ),
    "GraphEnumeration": (
        lambda: GraphEnumeration(4, 5),
        "GraphEnumeration(max_vertices=4, max_edges=5)",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    build, want_repr = VALUES[name]
    x, y = build(), build()
    assert x is not y and x == y and hash(x) == hash(y)
    assert repr(x) == want_repr
    for f in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(y, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)
    assert dataclasses.replace(x) == x
    first = dataclasses.fields(x)[0].name
    assert dataclasses.replace(x, **{first: getattr(y, first)}) == x
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and hash(twin) == hash(x) and repr(twin) == want_repr
    assert x == y  # no check above changed either value


def test_overlays_of_one_pair_labeling_differ_by_type():
    g = build_graph(2, [(0, 1)])
    beta = ((PLUS, MINUS),)
    assert BidirectedGraph(g, beta) != Di2SignedGraph(g, beta)
    assert Di2SignedGraph(g, beta) != BidirectedGraph(g, beta)
    assert len({BidirectedGraph(g, beta), BidirectedGraph(g, beta)}) == 1


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
