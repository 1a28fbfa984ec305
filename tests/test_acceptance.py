"""Acceptance suite: one test per criterion, exact tolerances throughout.

The exhaustive sweeps cover every labeled multigraph within the stated
bounds (loops and parallel edges included) and every labeling of it; the
randomized criteria use the fixed seeded generator so runs are identical
everywhere.  Each test prints a PASS line with the work done (visible with
``pytest -s`` or in the captured output).
"""

import itertools
import multiprocessing
import pathlib

from bisign import (
    MINUS,
    PLUS,
    BidirectedGraph,
    DnSignedGraph,
    SignedGraph,
    VertexRole,
    associated_signed,
    bidirected_to_di2,
    build_graph,
    compose_dn,
    cycle_sign,
    decompose_dn,
    di2_to_bidirected,
    is_antibalanced,
    is_balanced,
    is_uniform,
    negate_signed,
    oriented_label,
    reorient,
    uniformize,
    verify_signature,
    vertex_role,
)
from bisign.core import Di2SignedGraph
from bisign.cli import parse, run_command, serialize
from bisign.generate import SplitMix64, random_bidirected
from bisign.oracle import (
    GraphEnumeration,
    antibalanced_by_cycles,
    balanced_by_cycles,
    enumerate_multigraphs,
    uniformizable_by_enumeration,
)

SIGNS = (PLUS, MINUS)
SIGN_PAIRS = tuple(itertools.product(SIGNS, repeat=2))
GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_criterion_1_theorem1_bijection():
    checked = 0
    for g in enumerate_multigraphs(GraphEnumeration(4, 4)):
        for labels in itertools.product(SIGN_PAIRS, repeat=g.edge_count):
            d = Di2SignedGraph(g, labels)
            assert bidirected_to_di2(di2_to_bidirected(d)) == d
            b = BidirectedGraph(g, labels)
            assert di2_to_bidirected(bidirected_to_di2(b)) == b
            checked += 1
    print(f"PASS criterion 1: pair-label/bidirection bijection on {checked} instances")


# Counting theorems for criteria 2-4: switching by a vertex signature mu maps
# onto the balanced signings with kernel the 2^c per-component constants, so a
# graph with V vertices, m edges and c components has 2^(V - c) balanced and
# 2^(V - c) antibalanced signings; each signing has 2^m bidirections, and the
# uniformizable ones are those whose associated signing is antibalanced,
# 2^(m + V - c) in all.
def _components(n, edges):
    """The number of connected components, isolated vertices included, by a
    union-find of its own (not the library's BFS forest)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    c = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            c -= 1
    return c


def test_criterion_2_proposition1_equivalence():
    checked = balanced = 0
    for g in enumerate_multigraphs(GraphEnumeration(4, 4)):
        holds = 0
        for sigma in itertools.product(SIGNS, repeat=g.edge_count):
            s = SignedGraph(g, sigma)
            r = is_balanced(s)
            assert r.holds == balanced_by_cycles(s)
            if r.holds:
                assert verify_signature(s, r.signature, "balance")
                holds += 1
            else:
                assert cycle_sign(s, r.witness) is MINUS
            checked += 1
        assert holds == 2 ** (g.vertex_count - _components(g.vertex_count, g.edges)), g
        balanced += holds
    print(
        f"PASS criterion 2: balance vs cycle oracle on {checked} signings, "
        f"{balanced} balanced, 2^(V - c) per graph"
    )


def test_criterion_3_antibalance_duality():
    checked = antibalanced = 0
    for g in enumerate_multigraphs(GraphEnumeration(4, 4)):
        holds = 0
        for sigma in itertools.product(SIGNS, repeat=g.edge_count):
            s = SignedGraph(g, sigma)
            r = is_antibalanced(s)
            assert r.holds == is_balanced(negate_signed(s)).holds
            assert r.holds == antibalanced_by_cycles(s)
            if r.holds:
                assert verify_signature(s, r.signature, "antibalance")
                holds += 1
            else:
                w = r.witness
                assert w.sign is cycle_sign(s, w)
                assert (w.sign is PLUS) == (len(w.edges) % 2 == 1)
            checked += 1
        assert holds == 2 ** (g.vertex_count - _components(g.vertex_count, g.edges)), g
        antibalanced += holds
    print(
        f"PASS criterion 3: antibalance duality on {checked} signings, "
        f"{antibalanced} antibalanced, 2^(V - c) per graph"
    )


def _signing_counts(graphs):
    """Check both verdicts on every signing of each (vertex_count, edges)
    graph against the closed-form counts and their certificates; the number
    of signings checked."""
    checked = 0
    for n, edges in graphs:
        g = build_graph(n, edges)
        balanced = antibalanced = 0
        for sigma in itertools.product(SIGNS, repeat=g.edge_count):
            s = SignedGraph(g, sigma)
            r = is_balanced(s)
            if r.holds:
                assert verify_signature(s, r.signature, "balance")
                balanced += 1
            else:
                assert r.witness.sign is MINUS is cycle_sign(s, r.witness)
            r = is_antibalanced(s)
            if r.holds:
                assert verify_signature(s, r.signature, "antibalance")
                antibalanced += 1
            else:
                assert r.witness.sign is cycle_sign(s, r.witness)
            checked += 1
        assert balanced == antibalanced == 2 ** (n - _components(n, edges)), (n, edges)
    return checked


def test_counting_theorems_one_bound_past_brute_force():
    # no 2^m cycle oracle here: the closed-form counts and the certificates
    # check every verdict on graphs with one vertex more than criteria 2-3,
    # every other graph on each of two worker processes
    graphs = [(g.vertex_count, g.edges) for g in enumerate_multigraphs(GraphEnumeration(5, 5))]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        checked = sum(pool.map(_signing_counts, [graphs[0::2], graphs[1::2]]))
    print(
        f"PASS counting theorems: {checked} signings of {len(graphs)} graphs on <= 5 "
        f"vertices and <= 5 edges, 2^(V - c) balanced and 2^(V - c) antibalanced per graph"
    )


def _criterion_4_checks(graphs):
    """Check every bidirection of each (vertex_count, edges) graph; the
    number checked and the number uniformizable."""
    checked = uniformizable = 0
    for n, edges in graphs:
        g = build_graph(n, edges)
        m = g.edge_count
        holds = 0
        for beta in itertools.product(SIGN_PAIRS, repeat=m):
            b = BidirectedGraph(g, beta)
            r = uniformize(b)
            oracle_set = uniformizable_by_enumeration(b)
            anti = is_antibalanced(associated_signed(b)).holds
            assert r.holds == (oracle_set is not None) == anti
            if r.holds:
                assert reorient(b, r.reorient_set) == r.uniform
                assert is_uniform(r.uniform)
                assert associated_signed(r.uniform) == associated_signed(b)
                for v in range(g.vertex_count):
                    role = vertex_role(r.uniform, v)
                    if role is VertexRole.SINK:
                        assert r.signature.mu[v] is PLUS
                    elif role is VertexRole.SOURCE:
                        assert r.signature.mu[v] is MINUS
                holds += 1
            checked += 1
        assert holds == 2 ** (m + n - _components(n, edges)), (n, edges)
        uniformizable += holds
    return checked, uniformizable


def test_criterion_4_theorem2_exhaustive():
    graphs = [(g.vertex_count, g.edges) for g in enumerate_multigraphs(GraphEnumeration(4, 5))]
    # every other graph to each of two worker processes; an assertion that
    # fails in a worker is raised again here by map
    with multiprocessing.get_context("fork").Pool(2) as pool:
        counts = pool.map(_criterion_4_checks, [graphs[0::2], graphs[1::2]])
    checked, uniformizable = map(sum, zip(*counts))
    print(
        f"PASS criterion 4: uniformization equivalence on {checked} bidirections, "
        f"{uniformizable} uniformizable, 2^(m + V - c) per graph"
    )


def test_criterion_5_reorientation_invariance():
    for seed in range(10_000):
        rng = SplitMix64(seed ^ 0xA5A5A5A5)
        v = rng.below(11)
        e = rng.below(21) if v > 0 else 0
        b = random_bidirected(v, e, True, True, seed)
        subset = [x for x in range(e) if rng.below(2) == 1]
        assert associated_signed(reorient(b, subset)) == associated_signed(b)
    print("PASS criterion 5: reorientation invariance on 10000 seeded graphs")


def test_criterion_6_decomposition_roundtrip():
    checked = 0
    for n in (1, 2, 3, 4, 5, 7):
        for seed in range(1_000):
            shape = random_bidirected(
                1 + seed % 8, seed % 13 if seed % 8 > 0 else 0, True, True, seed
            )
            g = shape.graph
            rng = SplitMix64(seed * 6 + n)
            labels = tuple(
                tuple(rng.sign() for _ in range(n)) for _ in range(g.edge_count)
            )
            d = DnSignedGraph(n, g, labels)
            assert compose_dn(decompose_dn(d)) == d
            for e in range(g.edge_count):
                assert oriented_label(d, e, 1) == oriented_label(d, e, 0)[::-1]
            checked += 1
    print(f"PASS criterion 6: decomposition round-trip on {checked} labeled graphs")


def test_criterion_7_cli_contract():
    cases = [
        ("allsink_triangle.bidirected", ["uniformize"], 0, "allsink_triangle.uniformize.out"),
        ("directed3cycle.bidirected", ["uniformize"], 1, "directed3cycle.uniformize.out"),
        ("oneneg_triangle.signed", ["check-balance"], 1, "oneneg_triangle.check-balance.out"),
        # an isolated vertex and a loop; both parts non-empty
        ("isolated_loop.signed", ["check-balance"], 0, "isolated_loop.check-balance.out"),
        # every vertex +, so a bare "bipartition -" line
        (
            "allneg_triangle.signed",
            ["check-antibalance"],
            0,
            "allneg_triangle.check-antibalance.out",
        ),
        # no vertices: "signature " keeps its trailing space
        ("empty.signed", ["check-balance"], 0, "empty.check-balance.out"),
    ]
    for src, argv, want_code, want_out in cases:
        code, out, err = run_command(argv, (GOLDEN / src).read_text())
        assert code == want_code, (src, code, err)
        assert out == (GOLDEN / want_out).read_text()
    # structural spot checks on the worked examples
    lines = (GOLDEN / "allsink_triangle.uniformize.out").read_text().splitlines()
    assert lines[0] == "uniformizable" and lines[1] == "reorient"
    lines = (GOLDEN / "directed3cycle.uniformize.out").read_text().splitlines()
    witness = lines[1].split()
    assert lines[0] == "not-uniformizable"
    assert witness[1] == "+" and len(witness[2:]) == 3
    # byte-exact parse/serialize round-trip over the whole corpus
    corpus = sorted(
        p for p in GOLDEN.iterdir() if p.suffix in (".signed", ".bidirected", ".di2", ".dn")
    )
    assert corpus
    for path in corpus:
        text = path.read_text()
        assert serialize(parse(text)) == text, path.name
    print(f"PASS criterion 7: CLI golden contract, {len(corpus)} corpus round-trips")
