import itertools
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisign import (
    MINUS,
    PLUS,
    BalanceResult,
    CycleWitness,
    SignedGraph,
    VertexSignature,
    build_graph,
    cycle_sign,
    is_antibalanced,
    is_balanced,
    negate_signed,
    verify_signature,
)
from bisign.balance import closed_walk_vertices
from bisign.generate import SplitMix64, random_bidirected
from bisign.oracle import (
    GraphEnumeration,
    antibalanced_by_cycles,
    balanced_by_cycles,
    enumerate_multigraphs,
)

from _strategies import signed_graphs, signs

SIGNS = (PLUS, MINUS)


def triangle(sigma):
    return SignedGraph(build_graph(3, [(0, 1), (1, 2), (2, 0)]), sigma)


def test_cycle_sign_triangle():
    s = triangle((PLUS, PLUS, MINUS))
    assert cycle_sign(s, CycleWitness((0, 1, 2), MINUS)) is MINUS


def test_cycle_sign_loop():
    s = SignedGraph(build_graph(1, [(0, 0)]), (MINUS,))
    assert cycle_sign(s, CycleWitness((0,), MINUS)) is MINUS


def test_cycle_sign_digon():
    s = SignedGraph(build_graph(2, [(0, 1), (0, 1)]), (PLUS, MINUS))
    assert cycle_sign(s, CycleWitness((0, 1), MINUS)) is MINUS


def test_cycle_sign_rejects_non_cycles():
    s = triangle((PLUS, PLUS, PLUS))
    with pytest.raises(ValueError):
        cycle_sign(s, CycleWitness((0,), PLUS))  # single non-loop edge
    with pytest.raises(ValueError):
        cycle_sign(s, CycleWitness((0, 1), PLUS))  # open path
    with pytest.raises(ValueError):
        cycle_sign(s, CycleWitness((0, 0, 1), PLUS))  # repeated edge
    with pytest.raises(ValueError):
        cycle_sign(s, CycleWitness((), PLUS))


def _cycle_solutions(g, edges):
    """Every vertex tuple (v_0, ..., v_{k-1}) of distinct vertices with edge
    i joining v_i and v_{i+1 mod k}, found by brute force."""
    k = len(edges)
    ends = [sorted(g.edges[e]) for e in edges]
    return [
        list(vs)
        for vs in itertools.permutations(range(g.vertex_count), k)
        if all(ends[i] == sorted((vs[i], vs[(i + 1) % k])) for i in range(k))
    ]


def test_closed_walk_vertices_exhaustive():
    # every sequence of distinct edge ids on every small graph, with the
    # edges as enumerated (u <= v) and with every edge reversed
    checked = accepted = 0
    for g in enumerate_multigraphs(GraphEnumeration(4, 4)):
        for graph in (g, build_graph(g.vertex_count, [(v, u) for u, v in g.edges])):
            for k in range(1, len(g.edges) + 1):
                for edges in itertools.permutations(range(len(g.edges)), k):
                    solutions = _cycle_solutions(graph, edges)
                    try:
                        verts = closed_walk_vertices(graph, edges)
                    except ValueError:
                        assert not solutions, (graph, edges)
                    else:
                        assert verts in solutions, (graph, edges, verts)
                        accepted += 1
                    checked += 1
    assert (checked, accepted) == (119_010, 7_440)


def test_all_positive_triangle_balanced():
    r = is_balanced(triangle((PLUS, PLUS, PLUS)))
    assert r.holds
    assert r.signature.mu == (PLUS, PLUS, PLUS)


def test_one_negative_triangle_unbalanced():
    s = triangle((PLUS, PLUS, MINUS))
    r = is_balanced(s)
    assert not r.holds
    assert sorted(r.witness.edges) == [0, 1, 2]
    assert cycle_sign(s, r.witness) is MINUS


def test_negative_loop_is_witness():
    s = SignedGraph(build_graph(1, [(0, 0)]), (MINUS,))
    r = is_balanced(s)
    assert not r.holds and r.witness.edges == (0,)


def test_positive_loop_never_violates():
    s = SignedGraph(build_graph(1, [(0, 0)]), (PLUS,))
    assert is_balanced(s).holds


def test_empty_graph_certificate_is_truthy():
    r = is_balanced(SignedGraph(build_graph(0, []), ()))
    assert r.holds and r.signature and r.signature.mu == ()


def test_all_negative_triangle_antibalanced():
    r = is_antibalanced(triangle((MINUS, MINUS, MINUS)))
    assert r.holds
    assert verify_signature(triangle((MINUS, MINUS, MINUS)), r.signature, "antibalance")


def test_all_positive_triangle_not_antibalanced():
    s = triangle((PLUS, PLUS, PLUS))
    r = is_antibalanced(s)
    assert not r.holds
    assert sorted(r.witness.edges) == [0, 1, 2]
    # witness sign is taken in s, and it violates the odd-cycle condition
    assert r.witness.sign is PLUS
    assert len(r.witness.edges) % 2 == 1


def test_verify_signature_modes():
    s = triangle((PLUS, PLUS, PLUS))
    mu = VertexSignature((PLUS, PLUS, PLUS))
    assert verify_signature(s, mu, "balance")
    assert not verify_signature(s, mu, "antibalance")
    with pytest.raises(ValueError):
        verify_signature(s, mu, "frobnicate")
    with pytest.raises(ValueError):
        verify_signature(s, VertexSignature((PLUS,)), "balance")


def test_verify_signature_loop_rules():
    loop = SignedGraph(build_graph(1, [(0, 0)]), (PLUS,))
    assert verify_signature(loop, VertexSignature((MINUS,)), "balance")
    assert not verify_signature(loop, VertexSignature((MINUS,)), "antibalance")


def _exhaustive(max_v, max_e):
    for g in enumerate_multigraphs(GraphEnumeration(max_v, max_e)):
        for sigma in itertools.product(SIGNS, repeat=g.edge_count):
            yield SignedGraph(g, sigma)


def test_verify_signature_matches_the_formula_exhaustive():
    # every signature of every signing, both modes: a signature holds exactly
    # when sigma(uv) = factor * mu(u) * mu(v) on every edge
    checked = held = 0
    for s in _exhaustive(3, 3):
        ends = list(enumerate(s.graph.edges))
        for mu in itertools.product(SIGNS, repeat=s.graph.vertex_count):
            for mode, factor in (("balance", PLUS), ("antibalance", MINUS)):
                want = all(s.sigma[e] is factor * mu[u] * mu[v] for e, (u, v) in ends)
                assert verify_signature(s, VertexSignature(mu), mode) == want
                checked += 1
                held += want
    assert (checked, held) == (9_670, 1_522)


def test_agrees_with_oracle_small_exhaustive():
    for s in _exhaustive(3, 3):
        r = is_balanced(s)
        assert r.holds == balanced_by_cycles(s)
        if r.holds:
            assert verify_signature(s, r.signature, "balance")
        else:
            assert cycle_sign(s, r.witness) is MINUS
            assert r.witness.sign is cycle_sign(s, r.witness)
        ra = is_antibalanced(s)
        assert ra.holds == antibalanced_by_cycles(s)
        if ra.holds:
            assert verify_signature(s, ra.signature, "antibalance")
        else:
            # signed in s, and an even cycle is negative or an odd one positive
            assert ra.witness.sign is cycle_sign(s, ra.witness)
            assert (ra.witness.sign is PLUS) == (len(ra.witness.edges) % 2 == 1)


@given(signed_graphs(max_vertices=5, max_edges=6))
def test_agrees_with_oracle_sampled(s):
    for mode, decide, oracle in (
        ("balance", is_balanced, balanced_by_cycles),
        ("antibalance", is_antibalanced, antibalanced_by_cycles),
    ):
        r = decide(s)
        assert r.holds == oracle(s)
        if r.holds:
            assert verify_signature(s, r.signature, mode)
        else:
            assert r.witness.sign is cycle_sign(s, r.witness)


def _reference_is_balanced(s):
    """The one-pass labeling that the cached spanning forest replaced: a BFS
    that labels as it goes, a scan of every edge for the non-tree ones, and
    the witness sign recounted from sigma.  Each vertex's (edge, side) list
    is built here from ``edges``, not read from ``Graph.incidence``."""
    g = s.graph
    sigma = s.sigma
    edges = g.edges
    n = g.vertex_count
    incident = [[] for _ in range(n)]
    for e, ends in enumerate(edges):
        for side, x in enumerate(ends):
            incident[x].append((e, side))
    mu = [None] * n
    parent_edge = [-1] * n
    parent_vertex = [-1] * n
    depth = [0] * n
    in_tree = [False] * len(edges)
    for root in range(n):
        if mu[root] is not None:
            continue
        mu[root] = PLUS
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for e, side in incident[u]:
                w = edges[e][1 - side]
                if mu[w] is None:
                    mu[w] = mu[u] * sigma[e]
                    parent_edge[w] = e
                    parent_vertex[w] = u
                    depth[w] = depth[u] + 1
                    in_tree[e] = True
                    queue.append(w)
    for e, (u, v) in enumerate(edges):
        if in_tree[e] or sigma[e] is mu[u] * mu[v]:
            continue
        pu, pv = [], []
        a, b = u, v
        while depth[a] > depth[b]:
            pu.append(parent_edge[a])
            a = parent_vertex[a]
        while depth[b] > depth[a]:
            pv.append(parent_edge[b])
            b = parent_vertex[b]
        while a != b:
            pu.append(parent_edge[a])
            a = parent_vertex[a]
            pv.append(parent_edge[b])
            b = parent_vertex[b]
        cycle = (e,) if u == v else (e, *pv, *reversed(pu))
        negative = [sigma[x] for x in cycle].count(MINUS)
        return BalanceResult(witness=CycleWitness(cycle, MINUS if negative % 2 else PLUS))
    return BalanceResult(signature=VertexSignature(tuple(mu)))


def test_matches_reference_on_every_small_labeling():
    # every labeling of a graph shares its Graph, and so its cached forest
    checked = 0
    for g in enumerate_multigraphs(GraphEnumeration(3, 4)):
        for sigma in itertools.product(SIGNS, repeat=len(g.edges)):
            s = SignedGraph(g, sigma)
            assert is_balanced(s) == _reference_is_balanced(s)
            checked += 1
    assert checked == 2_944


def test_matches_reference_on_large_random_graphs():
    # loops, parallel edges, either end order, isolated vertices, and
    # labelings that are balanced, one edge off balanced, or uniform random
    for seed in range(24):
        rng = SplitMix64(seed)
        n = 1 + rng.below(1_500)
        m = rng.below(2_001)
        g = random_bidirected(n, m, True, True, seed).graph
        tau = [rng.sign() for _ in range(n)]
        balanced = [tau[u] * tau[v] for u, v in g.edges]
        off = list(balanced)
        if m:
            off[rng.below(m)] *= MINUS
        for sigma in (balanced, off, [rng.sign() for _ in range(m)]):
            s = SignedGraph(g, tuple(sigma))
            assert is_balanced(s) == _reference_is_balanced(s)
        assert is_balanced(SignedGraph(g, tuple(balanced))).holds


@given(signed_graphs())
def test_antibalance_duality(s):
    assert is_antibalanced(s).holds == is_balanced(negate_signed(s)).holds


@given(signed_graphs())
def test_balanced_bipartition_separates_negative_edges(s):
    r = is_balanced(s)
    if not r.holds:
        return
    mu = r.signature.mu
    for e, (u, v) in enumerate(s.graph.edges):
        crosses = mu[u] is not mu[v]
        assert crosses == (s.sigma[e] is MINUS)


def test_forest_is_balanced_and_antibalanced():
    path = SignedGraph(build_graph(4, [(0, 1), (1, 2), (2, 3)]), (MINUS, PLUS, MINUS))
    assert is_balanced(path).holds
    assert is_antibalanced(path).holds


def test_antibalance_builds_the_forest_before_the_negated_signs(monkeypatch):
    # the forest depends on the graph alone; built first, its peak holds no
    # sign tuple of the negated graph
    forest_first = []

    def spy(s):
        forest_first.append("_forest" in vars(s.graph))
        return negate_signed(s)

    monkeypatch.setattr("bisign.balance.negate_signed", spy)
    s = triangle((MINUS, MINUS, PLUS))
    assert "_forest" not in vars(s.graph)
    assert not is_antibalanced(s).holds
    assert forest_first == [True]


@given(signed_graphs(max_vertices=5, max_edges=7), st.data())
def test_switching_invariance(s, data):
    tau = data.draw(st.tuples(*[signs] * s.graph.vertex_count))
    switched = SignedGraph(
        s.graph,
        tuple(tau[u] * s.sigma[e] * tau[v] for e, (u, v) in enumerate(s.graph.edges)),
    )
    assert is_balanced(switched).holds == is_balanced(s).holds
