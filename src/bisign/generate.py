"""Seeded pseudorandom bidirected multigraphs for the CLI's ``random``
command and the tests' random corpora."""

from .core import MINUS, PLUS, BidirectedGraph, Sign, build_graph


class SplitMix64:
    """Fixed 64-bit pseudorandom generator so seeded corpora reproduce
    across runs, platforms, and implementations.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output mixes the
    state with xor-shifts by 30/27/31 and the multipliers
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  Bounded draws use the
    (documented) simple modulo reduction.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def sign(self) -> Sign:
        return PLUS if self.below(2) == 0 else MINUS


def random_bidirected(
    vertex_count: int,
    edge_count: int,
    allow_loops: bool,
    allow_parallel: bool,
    seed: int,
) -> BidirectedGraph:
    """Deterministic pseudorandom multigraph with a pseudorandom bidirection.

    Same arguments always give the same graph.  Raises on impossible
    constraints (no vertices to attach edges to, or more distinct edges
    demanded than exist).
    """
    if vertex_count < 0 or edge_count < 0:
        raise ValueError("counts must be nonnegative")
    if edge_count > 0:
        if vertex_count == 0 or (not allow_loops and vertex_count < 2):
            raise ValueError("no room for any edge under these constraints")
        if not allow_parallel:
            slots = vertex_count * (vertex_count - 1) // 2
            if allow_loops:
                slots += vertex_count
            if edge_count > slots:
                raise ValueError(
                    f"cannot place {edge_count} distinct edges in {slots} slots"
                )
    rng = SplitMix64(seed)
    pairs: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()
    while len(pairs) < edge_count:
        u = rng.below(vertex_count)
        v = rng.below(vertex_count)
        if not allow_loops and u == v:
            continue
        if not allow_parallel:
            key = (min(u, v), max(u, v))
            if key in used:
                continue
            used.add(key)
        pairs.append((u, v))
    beta = tuple((rng.sign(), rng.sign()) for _ in range(edge_count))
    return BidirectedGraph(build_graph(vertex_count, pairs), beta)
