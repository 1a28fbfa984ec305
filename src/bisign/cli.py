"""Command-line front end: parsing, serialization, checks, DOT export.

File format, one record per line; tokens are separated by runs of spaces and
tabs, lines end in LF, CRLF or CR (the last one may end the text instead),
blank and whitespace-only lines are skipped, and any other whitespace is a
parse error:

    <kind> <vertex_count> <edge_count>        header (kind: signed,
                                              bidirected, di2, dn; a dn
                                              header is  dn <n> <V> <E>;
                                              V <= MAX_VERTICES,
                                              n <= MAX_TUPLE_LENGTH)
    <u> <v> <signs...>                        one line per edge; 1 sign for
                                              signed, 2 for bidirected/di2,
                                              n for dn

Counts and vertex ids are ASCII digits.  Only the bulk parser builds documents;
the line checker builds nothing, and reads on from the first row the bulk pass
did not vouch for to name the line and column of the first error.

A document parses to its overlay object (``SignedGraph``, ``BidirectedGraph``,
``Di2SignedGraph`` or ``DnSignedGraph``), and ``OVERLAYS`` names the kind of
each overlay type.  Each subcommand is one row of ``COMMANDS``: its help text,
the document kinds it takes and its handler.  Verdict subcommands print a
certificate block (``signature`` / ``bipartition`` / ``witness`` /
``reorient`` lines) and exit 0 when the property holds, 1 when it fails, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import gc
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Optional, TextIO, Union

from .core import (
    BidirectedGraph,
    Di2SignedGraph,
    DnSignedGraph,
    Sign,
    SignedGraph,
    build_graph,
)
from .convert import (
    DnDecomposition,
    associated_signed,
    bidirected_to_di2,
    compose_dn,
    decompose_dn,
    di2_to_bidirected,
    induced_signed,
)
from .balance import (
    BalanceResult,
    CycleWitness,
    is_antibalanced,
    is_balanced,
)
from .uniform import uniformize
from .generate import random_bidirected

Overlay = Union[SignedGraph, BidirectedGraph, Di2SignedGraph, DnSignedGraph]

# document kind (the header's first token) -> overlay type, and back
OVERLAYS = {
    "signed": SignedGraph,
    "bidirected": BidirectedGraph,
    "di2": Di2SignedGraph,
    "dn": DnSignedGraph,
}
_KIND = {overlay: kind for kind, overlay in OVERLAYS.items()}

# Largest vertex count a header may declare: the count alone sizes per-vertex
# arrays (incidence, BFS labels, DOT lines), so it is bounded apart from the
# input's length, at 20 times the vertices of the benchmark's graph.
MAX_VERTICES = 1_000_000

# Largest tuple length n a dn header may declare: n alone decides how many
# documents ``decompose`` prints (n // 2 bidirections), even for a graph with
# no edges, so it is bounded apart from the input's length.
MAX_TUPLE_LENGTH = 1_000

# sign tokens per edge line of each kind (a dn document's n is in its
# header), and the sign each token reads as, in both parsers
_SIGN_COUNT = {"signed": 1, "bidirected": 2, "di2": 2}
_SIGNS = {"+": Sign.PLUS, "-": Sign.MINUS}


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _fail(lineno: int, line: str, token_index: int, message: str) -> ParseError:
    # column of the offending token (1-based); past-the-end tokens point
    # at the end of the line
    starts = [m.start() for m in re.finditer(r"\S+", line)]
    col = starts[token_index] + 1 if token_index < len(starts) else len(line) + 1
    return ParseError(lineno, col, message)


def _shown(tok: str) -> str:
    # a token's first 20 characters at most: a message stays short for any input
    return repr(tok) if len(tok) <= 20 else f"{tok[:20]!r}..."


def _digits(n: int) -> str:
    return f"{str(n)[:20]}..." if n >= 10**20 else str(n)


def _int_token(lineno: int, line: str, tokens: list[str], i: int, what: str) -> int:
    if i >= len(tokens):
        raise _fail(lineno, line, i, f"missing {what}")
    tok = tokens[i]
    # ASCII digits only: int() alone would also take a sign, underscores
    # and non-ASCII digits
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # past int()'s digit limit
            pass
    raise _fail(lineno, line, i, f"{what} must be a nonnegative integer, got {_shown(tok)}")


def _sign_token(lineno: int, line: str, tokens: list[str], i: int) -> Sign:
    if i >= len(tokens):
        raise _fail(lineno, line, i, "missing sign")
    try:
        return _SIGNS[tokens[i]]
    except KeyError:
        raise _fail(lineno, line, i, f"sign must be + or -, got {_shown(tokens[i])}")


def _rows(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of a text as ``(1-based number, line)`` rows."""
    # whitespace that str.split and str.splitlines would take as a separator
    # but the grammar does not
    bad = re.search(r"[^\S \t\r\n]", text)
    if bad:
        # nothing before the first match breaks lines but CR and LF
        rows = (text[: bad.start()] + "^").splitlines()
        message = f"separator {bad.group()!r} is not space, tab, CR or LF"
        raise ParseError(len(rows), len(rows[-1]), message)
    return [(i, line) for i, line in enumerate(text.splitlines(), 1) if line.strip()]


def _check_one(rows: list[tuple[int, str]], at: int, skip: int = 0) -> int:
    """Raise the first error of the document headed by ``rows[at]``, past its
    first ``skip`` edge lines; else return the index of the row after it."""
    if at == len(rows):
        # only an input without a non-blank line ends before a header
        raise ParseError(1, 1, "unexpected end of input")
    lineno, header = rows[at]
    tokens = header.split()
    kind = tokens[0]
    if kind not in OVERLAYS:
        raise _fail(lineno, header, 0, f"unknown kind {_shown(kind)}")
    i = 1
    n = 0
    if kind == "dn":
        n = _int_token(lineno, header, tokens, i, "tuple length n")
        if n < 1:
            raise _fail(lineno, header, i, "tuple length n must be >= 1")
        if n > MAX_TUPLE_LENGTH:
            message = f"tuple length {_digits(n)} exceeds the limit {MAX_TUPLE_LENGTH}"
            raise _fail(lineno, header, i, message)
        i += 1
    vcount = _int_token(lineno, header, tokens, i, "vertex count")
    if vcount > MAX_VERTICES:
        message = f"vertex count {_digits(vcount)} exceeds the limit {MAX_VERTICES}"
        raise _fail(lineno, header, i, message)
    ecount = _int_token(lineno, header, tokens, i + 1, "edge count")
    if len(tokens) > i + 2:
        raise _fail(lineno, header, i + 2, "trailing tokens after header")

    # edge lines hold two endpoints, then the sign tokens up to token ``end``
    end = 2 + _SIGN_COUNT.get(kind, n)
    for lineno, line in rows[at + 1 + skip : at + 1 + ecount]:
        tokens = line.split()
        u = _int_token(lineno, line, tokens, 0, "endpoint")
        v = _int_token(lineno, line, tokens, 1, "endpoint")
        if u >= vcount:
            raise _fail(lineno, line, 0, f"vertex {_digits(u)} out of range (< {vcount})")
        if v >= vcount:
            raise _fail(lineno, line, 1, f"vertex {_digits(v)} out of range (< {vcount})")
        for i in range(2, end):
            _sign_token(lineno, line, tokens, i)
        if len(tokens) > end:
            raise _fail(lineno, line, end, "trailing tokens on edge line")
    if at + ecount >= len(rows):
        # the document runs to the last non-blank line: the header's, or an edge's
        raise ParseError(rows[-1][0], 1, "unexpected end of input")
    return at + 1 + ecount


def _overlay(kind: str, n: int, vcount: int, pairs: list, labels: list) -> Overlay:
    g = build_graph(vcount, pairs)
    if kind == "dn":
        return DnSignedGraph(n, g, tuple(labels))
    return OVERLAYS[kind](g, tuple(labels))


# The bulk parser's grammar ([0-9], as \d takes any digit): a header, then edge
# lines, each with its line end and the blank lines after it, or the text's end;
# a match takes up to a chunk of edge lines.  Compiled on first use, through
# re's cache, to keep imports fast.
_HEADER = (
    r"[ \t\r\n]*(?:(signed|bidirected|di2)|dn[ \t]+([0-9]+))[ \t]+([0-9]+)[ \t]+([0-9]+)"
    r"[ \t]*(?:[\r\n][ \t\r\n]*|\Z)"
)
_EDGES = r"(?:{0}[\r\n][ \t\r\n]*){{0,{1}}}(?:{0}\Z)?"
# tokens per chunk of edge lines: 4,096 of the benchmark's lines, about 64 KiB
_CHUNK = 16384


class _SignTuples(dict):
    """Sign tokens -> signs, one shared tuple per distinct tuple of tokens."""

    def __missing__(self, key: tuple[str, ...]) -> tuple[Sign, ...]:
        signs = self[key] = tuple(map(_SIGNS.__getitem__, key))
        return signs


def _parse_bulk(text: str, pos: int) -> tuple[Optional[Overlay], int]:
    """The document at ``text[pos:]`` and the index where its edge lines stop
    matching; or, where the document has an error, None and how many of its
    edge lines are known to be valid.  The edge lines are matched and split a
    chunk at a time, so the token lists stay small."""
    head = re.compile(_HEADER).match(text, pos)
    if head is None:
        return None, 0
    kind = head[1] or "dn"
    try:  # int() past its digit limit, or build_graph on an endpoint out of range
        n, vcount, ecount = int(head[2] or 0), int(head[3]), int(head[4])
        if vcount > MAX_VERTICES or (kind == "dn" and not 1 <= n <= MAX_TUPLE_LENGTH):
            return None, 0
        width = 2 + _SIGN_COUNT.get(kind, n)
        line = r"[0-9]+[ \t]+[0-9]+" + r"[ \t]+[+-]" * (width - 2) + r"[ \t]*"
        chunk = _CHUNK // width
        edges = re.compile(_EDGES.format(line, chunk))
        pairs: list[tuple[int, int]] = []
        labels: list = []
        tuples = _SignTuples()
        pos = head.end()
        while True:
            stop = edges.match(text, pos).end()
            tokens = text[pos:stop].split()
            pairs += zip(map(int, tokens[0::width]), map(int, tokens[1::width]))
            if kind == "signed":
                labels += map(_SIGNS.__getitem__, tokens[2::3])
            else:
                labels += map(tuples.__getitem__, zip(*[tokens[i::width] for i in range(2, width)]))
            pos = stop
            if len(tokens) != chunk * width:  # the edge lines stopped matching
                break
        if len(pairs) != ecount:
            # the matched lines are valid where their endpoints are in range
            return None, len(pairs) if max(map(max, pairs), default=0) < vcount else 0
        return _overlay(kind, n, vcount, pairs, labels), pos
    except ValueError:
        return None, 0


def _parse_stream(text: str, limit: int) -> list[Overlay]:
    """Up to ``limit`` documents of a text, and no input after them.  Each is
    parsed in bulk from where the previous one's edge lines stop matching.  The
    line checker reads on from the first document the bulk parser declines, at
    row ``at``: each document before it took 1 + edge_count non-blank rows."""
    docs: list[Overlay] = []
    at = 0
    pos = re.compile(r"[ \t\r\n]*").match(text).end()
    while pos < len(text):
        doc, pos = _parse_bulk(text, pos) if len(docs) < limit else (None, 0)
        if doc is None:  # pos is how many edge lines the checker may skip
            rows = _rows(text)
            for _ in range(limit - len(docs)):
                at, pos = _check_one(rows, at, pos), 0
            lineno, line = rows[at]
            raise _fail(lineno, line, 0, "trailing input after document")
        docs.append(doc)
        at += 1 + doc.graph.edge_count
    return docs


def parse(text: str) -> Overlay:
    """Parse exactly one document into its overlay; strict about every token.

    Every valid text is parsed in bulk; the line checker, the only source of
    ``ParseError``, builds nothing and names the line and column of the first
    error, reading from the first row the bulk pass did not vouch for.
    """
    docs = _parse_stream(text, 1)
    if not docs:
        _check_one(_rows(text), 0)  # raises: the text has no non-blank line
    return docs[0]


def parse_documents(text: str) -> list[Overlay]:
    """Parse a stream of consecutive documents into overlays (for ``compose``)."""
    return _parse_stream(text, sys.maxsize)


_SPACED_SIGN = {s: f" {s}" for s in Sign}


# rows per block of output text: rows are formatted and joined a block at a
# time, so building a text holds about twice its length, not a string per row
_BLOCK = 4096


def _joined(*parts: Iterable[str]) -> str:
    """The rows of ``parts`` (each non-empty) concatenated, a block at a time."""
    rows = chain(*parts)
    return "".join(iter(lambda: "".join(islice(rows, _BLOCK)), ""))


def serialize(x: Overlay) -> str:
    """Canonical text of an overlay, headed by its kind: LF newlines, single
    spaces, edges in id order."""
    g = x.graph
    kind = _KIND[type(x)]
    n = f" {x.n}" if kind == "dn" else ""
    if isinstance(x, SignedGraph):
        labels: tuple = x.sigma
        text = {s: str(s) for s in Sign}
    else:
        labels = x.beta if isinstance(x, BidirectedGraph) else x.labels
        text = {t: " ".join(map(str, t)) for t in set(labels)}
    head = f"{kind}{n} {g.vertex_count} {g.edge_count}\n"
    return _joined([head], (f"{u} {v} {text[t]}\n" for (u, v), t in zip(g.edges, labels)))


_ARROW = {Sign.PLUS: "normal", Sign.MINUS: "inv"}


def export_dot(x: Overlay) -> str:
    """DOT output suitable for third-party renderers.

    Bidirected (and di2) edges draw each end's sign as an arrow: + is an
    arrowhead pointing into the incident vertex, - a reversed (outward)
    arrowhead.  Signed edges carry their sign as a label; dn edges carry the
    whole tuple, read along the drawn direction.
    """
    g = x.graph
    graph, arrow = "digraph", "->"
    if isinstance(x, SignedGraph):
        graph, arrow = "graph", "--"
        attrs = (f'label="{s}"' for s in x.sigma)
    elif isinstance(x, DnSignedGraph):
        attrs = (f'label="{"".join(map(str, t))}"' for t in x.labels)
    else:
        pairs = x.beta if isinstance(x, BidirectedGraph) else x.labels
        attrs = (f"dir=both arrowtail={_ARROW[a]} arrowhead={_ARROW[b]}" for a, b in pairs)
    vertices = (f"  {v};\n" for v in range(g.vertex_count))
    edges = (f"  {u} {arrow} {v} [{a}];\n" for (u, v), a in zip(g.edges, attrs))
    return _joined([graph + " {\n"], vertices, edges, ["}\n"])


def _signature_line(mu: tuple[Sign, ...]) -> str:
    # a graph with no vertices keeps the space after "signature"
    return _joined(["signature" if mu else "signature "], map(_SPACED_SIGN.__getitem__, mu), ["\n"])


def _write_failure(out: TextIO, positive_word: str, witness: CycleWitness) -> int:
    head = f"not-{positive_word}\nwitness {witness.sign}"
    out.write(_joined([head], (f" {e}" for e in witness.edges), ["\n"]))
    return 1


def _balance_certificate(r: BalanceResult, positive_word: str, out: TextIO) -> int:
    if not r.holds:
        return _write_failure(out, positive_word, r.witness)
    out.write(positive_word + "\n")
    mu = r.signature.mu
    out.write(_signature_line(mu))
    # the + vertices, then the - vertices, each in id order
    for sign in (Sign.PLUS, Sign.MINUS):
        ids = (f" {v}" for v, x in enumerate(mu) if x is sign)
        out.write(_joined([f"bipartition {sign}"], ids, ["\n"]))
    return 0


def _run_balance(s: SignedGraph, ns: argparse.Namespace, out: TextIO) -> int:
    return _balance_certificate(is_balanced(s), "balanced", out)


def _run_antibalance(s: SignedGraph, ns: argparse.Namespace, out: TextIO) -> int:
    return _balance_certificate(is_antibalanced(s), "antibalanced", out)


def _read_input(path: Optional[str], stdin_text: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read() if stdin_text is None else stdin_text
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# (source kind, --to) -> map; the targets in order of first appearance are
# the --to choices
_CONVERSIONS = {
    ("bidirected", "signed"): associated_signed,
    ("di2", "signed"): lambda d: associated_signed(di2_to_bidirected(d)),
    ("di2", "bidirected"): di2_to_bidirected,
    ("bidirected", "di2"): bidirected_to_di2,
    ("di2", "induced"): induced_signed,
}


def _run_convert(x: Overlay, ns: argparse.Namespace, out: TextIO) -> int:
    kind = _KIND[type(x)]
    if (kind, ns.to) not in _CONVERSIONS:
        raise ValueError(f"cannot convert {kind} to {ns.to}")
    out.write(serialize(_CONVERSIONS[kind, ns.to](x)))
    return 0


def _run_uniformize(b: BidirectedGraph, ns: argparse.Namespace, out: TextIO) -> int:
    r = uniformize(b)
    if not r.holds:
        return _write_failure(out, "uniformizable", r.witness)
    out.write("uniformizable\n")
    out.write(_joined(["reorient"], (f" {e}" for e in sorted(r.reorient_set)), ["\n"]))
    out.write(_signature_line(r.signature.mu))
    # the reorient set and signature are freed before the graph's text is built
    uniform = r.uniform
    del r
    out.write(serialize(uniform))
    return 0


def _run_decompose(d: DnSignedGraph, ns: argparse.Namespace, out: TextIO) -> int:
    dec = decompose_dn(d)
    for b in dec.bidirections:
        out.write(serialize(b))
    if dec.center is not None:
        out.write(serialize(dec.center))
    return 0


def _run_export_dot(x: Overlay, ns: argparse.Namespace, out: TextIO) -> int:
    out.write(export_dot(x))
    return 0


def _run_compose(ns: argparse.Namespace, stdin_text: Optional[str], out: TextIO) -> int:
    docs = parse_documents(_read_input(ns.file, stdin_text))
    if not docs:
        raise ValueError("compose needs at least one document")
    center = docs.pop() if type(docs[-1]) is SignedGraph else None
    if any(type(x) is not BidirectedGraph for x in docs):
        raise ValueError(
            "compose expects bidirected documents followed by at most one signed center"
        )
    dec = DnDecomposition(tuple(docs), center)
    if dec.n > MAX_TUPLE_LENGTH:  # write only what parse takes back
        raise ValueError(f"tuple length {dec.n} exceeds the limit {MAX_TUPLE_LENGTH}")
    out.write(serialize(compose_dn(dec)))
    return 0


def _run_random(ns: argparse.Namespace, stdin_text: Optional[str], out: TextIO) -> int:
    # write only what parse takes back
    if ns.vertices > MAX_VERTICES:
        raise ValueError(f"vertex count {_digits(ns.vertices)} exceeds the limit {MAX_VERTICES}")
    b = random_bidirected(ns.vertices, ns.edges, ns.loops, ns.parallel, ns.seed)
    out.write(serialize(b))
    return 0


# subcommand -> (help, document kinds it takes, handler).  The handler gets the
# parsed overlay, the arguments and stdout; with kinds None (compose, random),
# the arguments, run_command's stdin_text and stdout.  Handlers look up the
# library functions they call in this module at call time, so a wrapper
# installed here sees the call.
COMMANDS = {
    "convert": ("convert between kinds", OVERLAYS, _run_convert),
    "check-balance": ("balance check on a signed graph", ("signed",), _run_balance),
    "check-antibalance": ("antibalance check on a signed graph", ("signed",), _run_antibalance),
    "uniformize": (
        "uniformize a bidirected graph up to reorientation", ("bidirected",), _run_uniformize
    ),
    "decompose": ("split a dn document into bidirections and center", ("dn",), _run_decompose),
    "compose": ("reassemble a dn document", None, _run_compose),
    "export-dot": ("DOT output", OVERLAYS, _run_export_dot),
    "random": ("seeded random bidirected graph", None, _run_random),
}


@lru_cache(maxsize=1)  # built once: each build leaves ~280 objects in reference cycles
def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bisign",
        description="signed / bidirected / directionally multisigned graph tools",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "random":
            p.add_argument("file", nargs="?", default=None, help="input file (default stdin)")
    targets = dict.fromkeys(target for _, target in _CONVERSIONS)
    sub.choices["convert"].add_argument("--to", required=True, choices=tuple(targets))
    rnd = sub.choices["random"]
    rnd.add_argument("--vertices", type=int, required=True)
    rnd.add_argument("--edges", type=int, required=True)
    rnd.add_argument("--loops", action="store_true")
    rnd.add_argument("--parallel", action="store_true")
    rnd.add_argument("--seed", type=int, required=True)
    # run_command pauses the collector before the first build: free its cycles here
    gc.collect(0)
    return ap


def run_command(
    argv: list[str], stdin_text: Optional[str] = None
) -> tuple[int, str, str]:
    """Run one CLI invocation against string streams.

    Returns (exit code, stdout, stderr); exit 0 = property holds or the
    operation succeeded, 1 = property fails (certificate printed), 2 =
    usage or parse error.  When ``stdin_text`` is None, commands without a
    file argument read the process's standard input.
    """
    out = io.StringIO()
    err = io.StringIO()
    # a run builds only acyclic data (the tests check that a warm call leaves
    # no cycles), so the collector's passes over its many containers would
    # free nothing: pause it, and put it back the way it was found
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(argv, stdin_text, out, err), out.getvalue(), err.getvalue()
    finally:
        if collecting:
            gc.enable()


def _dispatch(argv: list[str], stdin_text: Optional[str], out: io.StringIO,
              err: io.StringIO) -> int:
    """``run_command``'s exit code, with the command's output written."""
    ap = _build_argparser()
    try:
        # argparse prints its usage errors and --help text, then exits
        with redirect_stdout(out), redirect_stderr(err):
            ns = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2

    _, kinds, handler = COMMANDS[ns.command]
    try:
        if kinds is None:
            return handler(ns, stdin_text, out)
        x = parse(_read_input(ns.file, stdin_text))
        kind = _KIND[type(x)]
        if kind not in kinds:
            raise ValueError(f"{ns.command} needs a {' or '.join(kinds)} document, got {kind}")
        return handler(x, ns, out)
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main(argv: Optional[list[str]] = None) -> None:
    code, out, err = run_command(list(sys.argv[1:] if argv is None else argv))
    sys.stdout.write(out)
    sys.stderr.write(err)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
