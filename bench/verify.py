"""Independent checks of the library's certificates.

Nothing here calls ``bisign``: each check reads the printed text or the
plain fields of the returned records and tests the certificate against the
input with its own arithmetic.  A check returns ``None`` when the output is
correct and otherwise a one-line reason.  Signs are +1 / -1.
"""

from __future__ import annotations

from typing import Optional, Sequence

Pairs = Sequence[tuple[int, int]]
Beta = Sequence[tuple[int, int]]

SIGN = {"+": 1, "-": -1}


def cycle_problem(pairs: Pairs, edges: Sequence[int]) -> Optional[str]:
    """Why ``edges``, in the given order, is not a cycle of the graph: a
    loop, a digon, or a closed walk with no repeated edge or vertex."""
    if not edges:
        return "empty cycle"
    if len(set(edges)) != len(edges):
        return "repeated edge in cycle"
    if any(not 0 <= e < len(pairs) for e in edges):
        return "cycle edge out of range"
    ends = [pairs[e] for e in edges]
    if len(edges) == 1:
        return None if ends[0][0] == ends[0][1] else "one-edge cycle is not a loop"
    if len(edges) == 2:
        (u, v), (x, y) = ends
        return None if u != v and {u, v} == {x, y} else "two-edge cycle is not a digon"
    for start, cur in (ends[0], ends[0][::-1]):
        seen = [start]
        for a, b in ends[1:]:
            seen.append(cur)
            if a == b or cur not in (a, b):
                break
            cur = b if a == cur else a
        else:
            if cur == start and len(set(seen)) == len(seen):
                return None
    return "edges do not form a cycle"


def breaks_antibalance(
    pairs: Pairs, beta: Beta, edges: Sequence[int], sign: int
) -> Optional[str]:
    """Why ``edges`` with printed sign ``sign`` does not certify that the
    associated signed graph sigma(e) = -(end 0 * end 1) is not antibalanced."""
    problem = cycle_problem(pairs, edges)
    if problem:
        return problem
    product = 1
    for e in edges:
        product *= -beta[e][0] * beta[e][1]
    if product != sign:
        return f"witness sign {sign} but the cycle's product is {product}"
    if product == (-1) ** len(edges):
        return "witness cycle satisfies the antibalance parity"
    return None


def uniform_problem(
    pairs: Pairs, beta: Beta, flips, uniform: Beta, mu: Sequence[int]
) -> Optional[str]:
    """Why (reorientation set, uniform graph, signature) is not a
    uniformization certificate for ``beta``.

    The reorientation set must map the input onto the uniform graph, and
    every end at vertex v must carry mu(v): then each vertex is a sink (+),
    a source (-) or isolated, and the signature agrees with the roles.
    """
    if len(uniform) != len(beta):
        return "uniform graph has the wrong edge count"
    for e, ((u, v), (a, b), got) in enumerate(zip(pairs, beta, uniform)):
        want = (-a, -b) if e in flips else (a, b)
        if got != want:
            return f"edge {e}: reorientation gives {want}, uniform graph has {got}"
        if got != (mu[u], mu[v]):
            return f"edge {e}: ends {got} disagree with signature at {u}, {v}"
    return None


def same_role_problem(vertex_count: int, pairs: Pairs, beta: Beta, flips) -> Optional[str]:
    """Why reorienting ``flips`` leaves some vertex with mixed end signs."""
    role = [0] * vertex_count
    for e, ((u, v), (a, b)) in enumerate(zip(pairs, beta)):
        if e in flips:
            a, b = -a, -b
        for w, s in ((u, a), (v, b)):
            if role[w] == -s:
                return f"vertex {w} is neither a source nor a sink"
            role[w] = s
    return None


def antibalance_signature_problem(
    vertex_count: int, pairs: Pairs, beta: Beta, mu: Sequence[int]
) -> Optional[str]:
    """Why mu does not satisfy sigma(uv) = -mu(u) mu(v) on every edge."""
    if len(mu) != vertex_count:
        return "signature does not cover the vertex set"
    for e, ((u, v), (a, b)) in enumerate(zip(pairs, beta)):
        if a * b != mu[u] * mu[v]:
            return f"edge {e} breaks the antibalance signature"
    return None


def check_uniformizable(pairs: Pairs, beta: Beta, vertex_count: int, out: str) -> Optional[str]:
    """Check the stdout of ``uniformize`` on a uniformizable input."""
    lines = out.split("\n")
    edge_count = len(pairs)
    if len(lines) != 5 + edge_count or lines[-1] != "":
        return f"expected {5 + edge_count} lines of output, got {len(lines)}"
    if lines[0] != "uniformizable":
        return f"verdict line {lines[0]!r}"
    head, *ids = lines[1].split(" ")
    if head != "reorient":
        return "missing reorient line"
    flips = [int(x) for x in ids if x]
    if flips != sorted(set(flips)) or any(not 0 <= e < edge_count for e in flips):
        return "reorient ids are not sorted, distinct edge ids"
    head, *signs = lines[2].split(" ")
    if head != "signature" or len(signs) != vertex_count:
        return "signature line does not cover the vertex set"
    mu = [SIGN[x] for x in signs]
    if lines[3] != f"bidirected {vertex_count} {edge_count}":
        return f"uniform graph header {lines[3]!r}"
    uniform = []
    for (u, v), row in zip(pairs, lines[4:-1]):
        x, y, a, b = row.split(" ")
        if (int(x), int(y)) != (u, v):
            return f"uniform graph edge {row!r} has other endpoints than ({u}, {v})"
        uniform.append((SIGN[a], SIGN[b]))
    return uniform_problem(pairs, beta, set(flips), uniform, mu)


def check_not_uniformizable(pairs: Pairs, beta: Beta, out: str) -> Optional[str]:
    """Check the stdout of ``uniformize`` on an input that is not
    uniformizable."""
    lines = out.split("\n")
    if len(lines) != 3 or lines[-1] != "" or lines[0] != "not-uniformizable":
        return "expected a not-uniformizable verdict and one witness line"
    head, sign, *ids = lines[1].split(" ")
    if head != "witness" or sign not in SIGN:
        return f"witness line {lines[1]!r}"
    return breaks_antibalance(pairs, beta, [int(x) for x in ids], SIGN[sign])
