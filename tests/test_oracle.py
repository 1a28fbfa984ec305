import itertools

import pytest
from hypothesis import given

from bisign import (
    MINUS,
    PLUS,
    BidirectedGraph,
    SignedGraph,
    build_graph,
    cycle_sign,
    is_uniform,
    negate_signed,
    reorient,
)
from bisign.balance import closed_walk_vertices
from bisign.generate import SplitMix64, random_bidirected
from bisign.oracle import (
    GraphEnumeration,
    antibalanced_by_cycles,
    balanced_by_cycles,
    enumerate_cycles,
    enumerate_multigraphs,
    uniformizable_by_enumeration,
)

from _strategies import graphs, signed_graphs


def test_triangle_has_one_cycle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert len(enumerate_cycles(g)) == 1


def test_k4_has_seven_cycles():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cycles = enumerate_cycles(g)
    assert len(cycles) == 7
    lengths = sorted(len(c.edges) for c in cycles)
    assert lengths == [3, 3, 3, 3, 4, 4, 4]


def test_loop_plus_digon():
    g = build_graph(2, [(0, 0), (0, 1), (0, 1)])
    cycles = enumerate_cycles(g)
    assert len(cycles) == 2
    assert sorted(len(c.edges) for c in cycles) == [1, 2]


@given(graphs(max_vertices=5, max_edges=7))
def test_cycles_are_valid_and_distinct(g):
    cycles = enumerate_cycles(g)
    seen = set()
    for c in cycles:
        verts = closed_walk_vertices(g, c.edges)
        assert len(set(verts)) == len(verts)
        key = frozenset(c.edges)  # rotation/reflection invariant
        assert key not in seen
        seen.add(key)


def test_balanced_by_cycles_cases():
    forest = SignedGraph(build_graph(3, [(0, 1), (1, 2)]), (MINUS, MINUS))
    assert balanced_by_cycles(forest)
    loop = SignedGraph(build_graph(1, [(0, 0)]), (MINUS,))
    assert not balanced_by_cycles(loop)


def test_antibalanced_by_cycles_cases():
    odd = SignedGraph(build_graph(3, [(0, 1), (1, 2), (2, 0)]), (MINUS,) * 3)
    assert antibalanced_by_cycles(odd)
    ploop = SignedGraph(build_graph(1, [(0, 0)]), (PLUS,))
    assert not antibalanced_by_cycles(ploop)


@given(signed_graphs(max_vertices=5, max_edges=6))
def test_antibalance_negation_identity(s):
    assert antibalanced_by_cycles(s) == balanced_by_cycles(negate_signed(s))


def test_enumeration_counts():
    # 1 vertex, loops allowed: exactly one graph per edge count
    gs = list(enumerate_multigraphs(GraphEnumeration(1, 3)))
    assert len(gs) == 5  # the 0-vertex graph plus loop multigraphs m=0..3
    # no loops, no parallels on 3 vertices: subsets of the 3 possible edges
    gs = list(
        enumerate_multigraphs(
            GraphEnumeration(3, 3, allow_loops=False, allow_parallel=False)
        )
    )
    counts = {}
    for g in gs:
        counts[g.vertex_count] = counts.get(g.vertex_count, 0) + 1
    assert counts[3] == 8


def test_uniformizable_enumeration_prefers_empty_set():
    g = build_graph(2, [(0, 1)])
    b = BidirectedGraph(g, ((PLUS, PLUS),))
    assert uniformizable_by_enumeration(b) == frozenset()


def _first_uniform_subset(b):
    """Plain reference: walk the reorientation subsets in increasing-bitmask
    order and return the first that leaves no vertex mixed.  End signs are
    read from ``edges`` and ``beta``, not from ``Graph.incidence``, which the
    oracle and the fast path both use."""
    m = b.graph.edge_count
    for mask in range(1 << m):
        ends = [set() for _ in range(b.graph.vertex_count)]
        for e, (pair, signs) in enumerate(zip(b.graph.edges, b.beta)):
            for v, sign in zip(pair, signs):
                ends[v].add(-sign if mask >> e & 1 else sign)
        if all(len(signs) <= 1 for signs in ends):
            return frozenset(e for e in range(m) if mask >> e & 1)
    return None


SIGN_PAIRS = [(a, c) for a in (PLUS, MINUS) for c in (PLUS, MINUS)]


def test_uniformizable_enumeration_matches_reference_exhaustive():
    checked = 0
    for g in enumerate_multigraphs(GraphEnumeration(3, 4)):
        for beta in itertools.product(SIGN_PAIRS, repeat=g.edge_count):
            b = BidirectedGraph(g, beta)
            assert uniformizable_by_enumeration(b) == _first_uniform_subset(b)
            checked += 1
    assert checked == 41_132


def test_uniformizable_enumeration_matches_reference_random():
    found = 0
    for seed in range(400):
        m = seed % 13
        n = 1 + seed % 7
        b = random_bidirected(n, m, True, True, seed)
        want = _first_uniform_subset(b)
        assert uniformizable_by_enumeration(b) == want
        found += want is not None
    assert 0 < found < 400


def test_uniformizable_enumeration_edge_cases():
    # no edges, with and without vertices: the empty set works
    for n in (0, 3):
        empty = BidirectedGraph(build_graph(n, []), ())
        assert uniformizable_by_enumeration(empty) == frozenset()
    # an isolated vertex beside a mixed path needs the middle fixed
    path = build_graph(4, [(0, 1), (1, 2)])
    b = BidirectedGraph(path, ((MINUS, PLUS), (MINUS, PLUS)))
    assert uniformizable_by_enumeration(b) == frozenset({0})
    # a loop with equal ends is fine as is; with unequal ends it never is
    loop = build_graph(1, [(0, 0)])
    same = BidirectedGraph(loop, ((MINUS, MINUS),))
    assert uniformizable_by_enumeration(same) == frozenset()
    assert uniformizable_by_enumeration(BidirectedGraph(loop, ((PLUS, MINUS),))) is None
    # two loops of opposite sign at one vertex: reorient the lower one
    loops = build_graph(1, [(0, 0), (0, 0)])
    two = BidirectedGraph(loops, ((MINUS, MINUS), (PLUS, PLUS)))
    assert uniformizable_by_enumeration(two) == frozenset({0})


def test_uniformizable_enumeration_edge_bound():
    b = random_bidirected(3, 6, True, True, 1)
    with pytest.raises(ValueError, match="exceeds enumeration bound 5"):
        uniformizable_by_enumeration(b, max_edges=5)
    with pytest.raises(ValueError):
        uniformizable_by_enumeration(random_bidirected(5, 21, True, True, 1))


def test_uniformizable_enumeration_twenty_edges():
    # an even 20-cycle, uniform as built, then three edges reoriented; the
    # two uniform reorientations are {1, 3, 19} and its complement, and the
    # complement is the lower bitmask
    g = build_graph(20, [(i, (i + 1) % 20) for i in range(20)])
    uniform = BidirectedGraph(
        g, tuple((PLUS, MINUS) if i % 2 == 0 else (MINUS, PLUS) for i in range(20))
    )
    assert is_uniform(uniform)
    b = reorient(uniform, {1, 3, 19})
    assert uniformizable_by_enumeration(b) == frozenset(range(20)) - {1, 3, 19}
    # flipping one end sign makes the cycle's associated sign product wrong
    # for its length, so no reorientation helps
    (a, c), rest = b.beta[0], b.beta[1:]
    broken = BidirectedGraph(g, ((a, -c),) + rest)
    assert uniformizable_by_enumeration(broken) is None


def test_random_bidirected_deterministic():
    a = random_bidirected(4, 6, True, True, 1)
    b = random_bidirected(4, 6, True, True, 1)
    assert a == b
    c = random_bidirected(4, 6, True, True, 2)
    assert a != c


def test_random_bidirected_empty_and_errors():
    e = random_bidirected(0, 0, True, True, 7)
    assert e.graph.vertex_count == 0 and e.graph.edge_count == 0
    with pytest.raises(ValueError):
        random_bidirected(0, 1, True, True, 0)
    with pytest.raises(ValueError):
        random_bidirected(1, 1, False, True, 0)
    with pytest.raises(ValueError):
        random_bidirected(3, 4, False, False, 0)  # only 3 slots


def test_random_bidirected_respects_constraints():
    b = random_bidirected(5, 8, False, True, 11)
    assert all(u != v for u, v in b.graph.edges)
    b2 = random_bidirected(5, 10, True, False, 11)
    pairs = [tuple(sorted(p)) for p in b2.graph.edges]
    assert len(set(pairs)) == len(pairs)


def test_splitmix64_reference_values():
    # first outputs for seed 0; fixed by the generator's constants
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
