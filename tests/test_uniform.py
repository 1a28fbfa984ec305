import itertools
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisign import (
    MINUS,
    PLUS,
    BidirectedGraph,
    CycleWitness,
    VertexRole,
    VertexSignature,
    associated_signed,
    build_graph,
    cycle_sign,
    is_antibalanced,
    is_uniform,
    reorient,
    uniformize,
    verify_signature,
    vertex_role,
)
from bisign.generate import SplitMix64
from bisign.oracle import GraphEnumeration, enumerate_multigraphs, uniformizable_by_enumeration

from _strategies import bidirected_graphs


def directed_cycle(k):
    g = build_graph(k, [(i, (i + 1) % k) for i in range(k)])
    return BidirectedGraph(g, ((MINUS, PLUS),) * k)


def test_vertex_role_matches_end_signs_exhaustive():
    # the role read straight from edges and beta, not from Graph.incidence
    pairs = [(a, c) for a in (PLUS, MINUS) for c in (PLUS, MINUS)]
    checked = 0
    for g in enumerate_multigraphs(GraphEnumeration(3, 3)):
        for beta in itertools.product(pairs, repeat=g.edge_count):
            b = BidirectedGraph(g, beta)
            ends = [set() for _ in range(g.vertex_count)]
            for (u, v), (a, c) in zip(g.edges, beta):
                ends[u].add(a)
                ends[v].add(c)
            for v, signs in enumerate(ends):
                if not signs:
                    want = VertexRole.ISOLATED
                elif len(signs) == 2:
                    want = VertexRole.MIXED
                else:
                    want = VertexRole.SINK if PLUS in signs else VertexRole.SOURCE
                assert vertex_role(b, v) is want
            assert is_uniform(b) == all(len(signs) < 2 for signs in ends)
            checked += 1
    assert checked == 4_780


def test_vertex_role_sink_and_source():
    g = build_graph(3, [(1, 0), (2, 0)])  # star into vertex 0
    b = BidirectedGraph(g, ((MINUS, PLUS), (MINUS, PLUS)))
    assert vertex_role(b, 0) is VertexRole.SINK
    assert vertex_role(b, 1) is VertexRole.SOURCE


def test_vertex_role_loop_mixed():
    g = build_graph(1, [(0, 0)])
    b = BidirectedGraph(g, ((PLUS, MINUS),))
    assert vertex_role(b, 0) is VertexRole.MIXED


def test_vertex_role_isolated_and_range():
    g = build_graph(2, [])
    b = BidirectedGraph(g, ())
    assert vertex_role(b, 1) is VertexRole.ISOLATED
    with pytest.raises(ValueError):
        vertex_role(b, 2)


def test_is_uniform_cases():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    all_sink = BidirectedGraph(star, ((PLUS, PLUS),) * 3)
    assert is_uniform(all_sink)
    path = build_graph(3, [(0, 1), (1, 2)])
    directed = BidirectedGraph(path, ((MINUS, PLUS),) * 2)
    assert not is_uniform(directed)  # middle vertex is mixed
    assert is_uniform(BidirectedGraph(build_graph(0, []), ()))


def test_reorient_flips_both_ends():
    g = build_graph(2, [(0, 1)])
    b = BidirectedGraph(g, ((PLUS, MINUS),))
    assert reorient(b, [0]).beta[0] == (MINUS, PLUS)
    assert reorient(b, []) == b
    assert reorient(reorient(b, [0]), [0]) == b
    with pytest.raises(ValueError):
        reorient(b, [1])
    # any iterable of ids: each listed id is flipped once, repeats included
    b = BidirectedGraph(build_graph(3, [(0, 1), (1, 2), (2, 2)]), ((PLUS, MINUS),) * 3)
    flipped = BidirectedGraph(b.graph, ((MINUS, PLUS), (PLUS, MINUS), (MINUS, PLUS)))
    for edges in (frozenset({0, 2}), [2, 0, 2], (e for e in (0, 2, 0))):
        assert reorient(b, edges) == flipped
    with pytest.raises(ValueError):
        reorient(b, frozenset({0, 3}))


@given(bidirected_graphs(), st.data())
def test_reorient_preserves_associated(b, data):
    subset = data.draw(
        st.sets(st.integers(0, max(b.graph.edge_count - 1, 0)))
        if b.graph.edge_count
        else st.just(set())
    )
    assert associated_signed(reorient(b, subset)) == associated_signed(b)


def test_uniformize_identity_case():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    b = BidirectedGraph(g, ((PLUS, PLUS),) * 3)
    r = uniformize(b)
    assert r.holds
    assert r.reorient_set == frozenset()
    assert r.uniform == b
    assert r.signature.mu == (PLUS, PLUS, PLUS)


def test_uniformize_directed_3_cycle():
    b = directed_cycle(3)
    r = uniformize(b)
    assert not r.holds
    sb = associated_signed(b)
    assert cycle_sign(sb, r.witness) is PLUS  # positive odd cycle
    assert len(r.witness.edges) == 3
    assert uniformizable_by_enumeration(b) is None


def test_uniformize_directed_4_cycle():
    b = directed_cycle(4)
    r = uniformize(b)
    assert r.holds
    roles = [vertex_role(r.uniform, v) for v in range(4)]
    assert roles == [
        VertexRole.SINK,
        VertexRole.SOURCE,
        VertexRole.SINK,
        VertexRole.SOURCE,
    ] or roles == [
        VertexRole.SOURCE,
        VertexRole.SINK,
        VertexRole.SOURCE,
        VertexRole.SINK,
    ]
    assert uniformizable_by_enumeration(b) is not None


def test_oracle_bound():
    from bisign.generate import random_bidirected

    b = random_bidirected(5, 21, True, True, 3)
    with pytest.raises(ValueError):
        uniformizable_by_enumeration(b)


@given(bidirected_graphs())
def test_uniformize_soundness(b):
    r = uniformize(b)
    if r.holds:
        assert reorient(b, r.reorient_set) == r.uniform
        assert is_uniform(r.uniform)
        assert associated_signed(r.uniform) == associated_signed(b)
        # the signature marks sinks + and sources -
        for v in range(b.graph.vertex_count):
            role = vertex_role(r.uniform, v)
            if role is VertexRole.SINK:
                assert r.signature.mu[v] is PLUS
            elif role is VertexRole.SOURCE:
                assert r.signature.mu[v] is MINUS
            else:
                assert role is VertexRole.ISOLATED and r.signature.mu[v] is PLUS
    else:
        assert cycle_sign(associated_signed(b), r.witness) is r.witness.sign


@given(bidirected_graphs())
def test_necessity_marking(b):
    # for any uniform graph, sink/source marks certify antibalance of sigma
    r = uniformize(b)
    if not r.holds:
        return
    u = r.uniform
    assert verify_signature(associated_signed(u), r.signature, "antibalance")
    assert is_antibalanced(associated_signed(b)).holds


def test_uniformize_recovers_a_planted_reorientation_at_scale():
    # a connected graph has one antibalance signature with mu[0] = +, so
    # uniformize must find exactly the planted mu and the negated edges
    rng = SplitMix64(2013)
    n = 20_000
    edges = [(i, i + 1) for i in range(n - 1)]
    while len(edges) < 40_000:
        kind = rng.below(8)
        if kind == 0:
            u = rng.below(n)
            edges.append((u, u))
        elif kind == 1:
            edges.append(edges[rng.below(len(edges))])
        else:
            edges.append((rng.below(n), rng.below(n)))
    mu = (PLUS,) + tuple(rng.sign() for _ in range(n - 1))
    planted = tuple((mu[u], mu[v]) for u, v in edges)
    flips = frozenset(e for e in range(len(edges)) if rng.below(2) == 1)
    beta = tuple((-a, -c) if e in flips else (a, c) for e, (a, c) in enumerate(planted))
    r = uniformize(BidirectedGraph(build_graph(n, edges), beta))
    assert r.reorient_set == flips
    assert r.signature.mu == mu
    assert r.uniform.beta == planted


def test_uniformize_builds_the_forest_before_the_associated_signs(monkeypatch):
    # the forest depends on the graph alone; built first, its peak holds no
    # sign tuple of the associated signed graph
    forest_first = []

    def spy(b):
        forest_first.append("_forest" in vars(b.graph))
        return associated_signed(b)

    monkeypatch.setattr("bisign.uniform.associated_signed", spy)
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert "_forest" not in vars(g)
    uniformize(BidirectedGraph(g, ((MINUS, PLUS),) * 3))
    assert forest_first == [True]


def test_checkers_build_nothing_on_the_graph():
    # the certificate checkers read only the edge list and the signs: they
    # neither build nor cache the decide path's incidence or forest
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
    b = BidirectedGraph(g, ((PLUS, PLUS),) * 4)
    s = associated_signed(b)
    assert is_uniform(b)
    assert verify_signature(s, VertexSignature((PLUS,) * 3), "antibalance")
    assert cycle_sign(s, CycleWitness((0, 1, 2), MINUS)) is MINUS
    assert "incidence" not in vars(g)
    assert "_forest" not in vars(g)


def test_self_check_runs_under_python_O():
    # the reorient check must not be an assert that -O strips: a reorient
    # that returns the wrong graph makes uniformize raise even so
    src = pathlib.Path(sys.modules["bisign.uniform"].__file__).parents[1]
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import bisign.uniform as u
from bisign import PLUS, BidirectedGraph, build_graph
real = u.reorient
u.reorient = lambda b, edges: real(real(b, edges), [0])
try:
    u.uniformize(BidirectedGraph(build_graph(2, [(0, 1)]), ((PLUS, PLUS),)))
except AssertionError:
    print(sys.flags.optimize, "raised")
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "1 raised\n"
