"""Command-line front end: parsing, serialization, checks, DOT export.

File format, one record per line; tokens are separated by spaces and tabs,
lines end in LF, CRLF or CR, and any other whitespace is a parse error:

    <kind> <vertex_count> <edge_count>        header (kind: signed,
                                              bidirected, di2, dn; a dn
                                              header is  dn <n> <V> <E>;
                                              V <= MAX_VERTICES,
                                              n <= MAX_TUPLE_LENGTH)
    <u> <v> <signs...>                        one line per edge; 1 sign for
                                              signed, 2 for bidirected/di2,
                                              n for dn

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
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
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
KINDS = tuple(OVERLAYS)

# Largest vertex count a header may declare: the count alone sizes per-vertex
# arrays (incidence, BFS labels, DOT lines), so it is bounded apart from the
# input's length, at 20 times the vertices of the benchmark's graph.
MAX_VERTICES = 1_000_000

# Largest tuple length n a dn header may declare: n alone decides how many
# documents ``decompose`` prints (n // 2 bidirections), even for a graph with
# no edges, so it is bounded apart from the input's length.
MAX_TUPLE_LENGTH = 1_000


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
    raise _fail(lineno, line, i, f"{what} must be a nonnegative integer, got {tok!r}")


def _sign_token(lineno: int, line: str, tokens: list[str], i: int) -> Sign:
    if i >= len(tokens):
        raise _fail(lineno, line, i, "missing sign")
    try:
        return Sign.from_char(tokens[i])
    except ValueError:
        raise _fail(lineno, line, i, f"sign must be + or -, got {tokens[i]!r}")


# whitespace that str.split and str.splitlines would take as a separator
# but the grammar does not
_OTHER_SPACE = re.compile(r"[^\S \t\r\n]")


class _Lines:
    """Cursor over non-blank input lines, tracking 1-based line numbers."""

    def __init__(self, text: str):
        # ASCII text is checked by a few C-level scans; a regex over the
        # whole text would cost more than the rest of a large parse
        if not text.isascii() or any(c in text for c in "\v\f\x1c\x1d\x1e\x1f"):
            bad = _OTHER_SPACE.search(text)
            if bad:
                # nothing before the first match breaks lines but CR and LF
                rows = (text[: bad.start()] + "^").splitlines()
                message = f"separator {bad.group()!r} is not space, tab, CR or LF"
                raise ParseError(len(rows), len(rows[-1]), message)
        self.items = [
            (i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()
        ]
        self.pos = 0

    def next(self) -> tuple[int, str]:
        if self.pos >= len(self.items):
            last = self.items[-1][0] if self.items else 1
            raise ParseError(last, 1, "unexpected end of input")
        self.pos += 1
        return self.items[self.pos - 1]

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _parse_one(lines: _Lines) -> Overlay:
    lineno, header = lines.next()
    tokens = header.split()
    kind = tokens[0]
    if kind not in OVERLAYS:
        raise _fail(lineno, header, 0, f"unknown kind {kind!r}")
    i = 1
    n = 0
    if kind == "dn":
        n = _int_token(lineno, header, tokens, i, "tuple length n")
        if n < 1:
            raise _fail(lineno, header, i, "tuple length n must be >= 1")
        if n > MAX_TUPLE_LENGTH:
            message = f"tuple length {n} exceeds the limit {MAX_TUPLE_LENGTH}"
            raise _fail(lineno, header, i, message)
        i += 1
    vcount = _int_token(lineno, header, tokens, i, "vertex count")
    if vcount > MAX_VERTICES:
        raise _fail(lineno, header, i, f"vertex count {vcount} exceeds the limit {MAX_VERTICES}")
    ecount = _int_token(lineno, header, tokens, i + 1, "edge count")
    if len(tokens) > i + 2:
        raise _fail(lineno, header, i + 2, "trailing tokens after header")

    # edge lines hold two endpoints, then the sign tokens up to token ``end``
    end = 2 + {"signed": 1, "bidirected": 2, "di2": 2, "dn": n}[kind]
    # sign tokens already validated in this document, mapped to the stored
    # label (a bare Sign for signed); edges with equal tokens share one label
    validated: dict[tuple[str, ...], Union[Sign, tuple[Sign, ...]]] = {}
    pairs: list[tuple[int, int]] = []
    rows: list = []
    for _ in range(ecount):
        lineno, line = lines.next()
        tokens = line.split()
        u = _int_token(lineno, line, tokens, 0, "endpoint")
        v = _int_token(lineno, line, tokens, 1, "endpoint")
        if u >= vcount:
            raise _fail(lineno, line, 0, f"vertex {u} out of range (< {vcount})")
        if v >= vcount:
            raise _fail(lineno, line, 1, f"vertex {v} out of range (< {vcount})")
        key = tuple(tokens[2:])
        label = validated.get(key)
        if label is None:
            signs = tuple(_sign_token(lineno, line, tokens, i) for i in range(2, end))
            if len(tokens) > end:
                raise _fail(lineno, line, end, "trailing tokens on edge line")
            label = validated[key] = signs[0] if kind == "signed" else signs
        pairs.append((u, v))
        rows.append(label)

    g = build_graph(vcount, pairs)
    if kind == "dn":
        return DnSignedGraph(n, g, tuple(rows))
    return OVERLAYS[kind](g, tuple(rows))


def parse(text: str) -> Overlay:
    """Parse exactly one document into its overlay; strict about every token.

    Each distinct tuple of sign tokens is validated once per document; later
    edges with the same tokens reuse the validated signs.
    """
    lines = _Lines(text)
    doc = _parse_one(lines)
    if not lines.exhausted():
        lineno, line = lines.next()
        raise _fail(lineno, line, 0, "trailing input after document")
    return doc


def parse_documents(text: str) -> list[Overlay]:
    """Parse a stream of consecutive documents into overlays (for ``compose``)."""
    lines = _Lines(text)
    docs = []
    while not lines.exhausted():
        docs.append(_parse_one(lines))
    return docs


_SIGN_TEXT = {Sign.PLUS: "+", Sign.MINUS: "-"}


def _signs_text(signs: Iterable[Sign]) -> str:
    return " ".join(map(_SIGN_TEXT.__getitem__, signs))


def serialize(x: Overlay) -> str:
    """Canonical text of an overlay, headed by its kind: LF newlines, single
    spaces, edges in id order."""
    g = x.graph
    kind = _KIND[type(x)]
    n = f" {x.n}" if kind == "dn" else ""
    if isinstance(x, SignedGraph):
        labels: tuple = x.sigma
        text: dict = _SIGN_TEXT
    else:
        labels = x.beta if isinstance(x, BidirectedGraph) else x.labels
        text = {t: _signs_text(t) for t in set(labels)}
    rows = [f"{kind}{n} {g.vertex_count} {g.edge_count}"]
    rows += [f"{u} {v} {text[t]}" for (u, v), t in zip(g.edges, labels)]
    # the empty last row ends the text in a newline without a second copy
    rows.append("")
    return "\n".join(rows)


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
        attrs = [f'label="{s}"' for s in x.sigma]
    elif isinstance(x, DnSignedGraph):
        attrs = [f'label="{"".join(map(str, t))}"' for t in x.labels]
    else:
        pairs = x.beta if isinstance(x, BidirectedGraph) else x.labels
        attrs = [f"dir=both arrowtail={_ARROW[a]} arrowhead={_ARROW[b]}" for a, b in pairs]
    out = [graph + " {"] + [f"  {v};" for v in range(g.vertex_count)]
    out += [f"  {u} {arrow} {v} [{a}];" for (u, v), a in zip(g.edges, attrs)]
    return "\n".join(out) + "\n}\n"


def _write_failure(out: TextIO, positive_word: str, witness: CycleWitness) -> int:
    out.write(f"not-{positive_word}\nwitness {witness.sign} ")
    out.write(" ".join(map(str, witness.edges)) + "\n")
    return 1


def _balance_certificate(r: BalanceResult, positive_word: str, out: TextIO) -> int:
    if not r.holds:
        return _write_failure(out, positive_word, r.witness)
    out.write(positive_word + "\n")
    mu = r.signature.mu
    out.write("signature " + _signs_text(mu) + "\n")
    # the + vertices, then the - vertices, each in id order
    for sign in (Sign.PLUS, Sign.MINUS):
        ids = " ".join([str(v) for v, x in enumerate(mu) if x is sign])
        out.write(f"bipartition {sign} {ids}".rstrip() + "\n")
    return 0


def _run_balance(s: SignedGraph, ns: argparse.Namespace, out: TextIO) -> int:
    return _balance_certificate(is_balanced(s), "balanced", out)


def _run_antibalance(s: SignedGraph, ns: argparse.Namespace, out: TextIO) -> int:
    return _balance_certificate(is_antibalanced(s), "antibalanced", out)


def _read_input(path: Optional[str], stdin: TextIO) -> str:
    if path is None or path == "-":
        return stdin.read()
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
    out.write(("reorient " + " ".join(map(str, sorted(r.reorient_set)))).rstrip() + "\n")
    out.write("signature " + _signs_text(r.signature.mu) + "\n")
    out.write(serialize(r.uniform))
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


def _run_compose(ns: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    docs = parse_documents(_read_input(ns.file, stdin))
    if not docs:
        raise ValueError("compose needs at least one document")
    center = docs.pop() if type(docs[-1]) is SignedGraph else None
    if any(type(x) is not BidirectedGraph for x in docs):
        raise ValueError(
            "compose expects bidirected documents followed by at most one signed center"
        )
    out.write(serialize(compose_dn(DnDecomposition(tuple(docs), center))))
    return 0


def _run_random(ns: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    b = random_bidirected(ns.vertices, ns.edges, ns.loops, ns.parallel, ns.seed)
    out.write(serialize(b))
    return 0


# subcommand -> (help, document kinds it takes, handler).  The handler gets the
# parsed overlay, the arguments and stdout; with kinds None (compose, random),
# the arguments, stdin and stdout.  Handlers look up the library functions they
# call in this module at call time, so a wrapper installed here sees the call.
COMMANDS = {
    "convert": ("convert between kinds", KINDS, _run_convert),
    "check-balance": ("balance check on a signed graph", ("signed",), _run_balance),
    "check-antibalance": ("antibalance check on a signed graph", ("signed",), _run_antibalance),
    "uniformize": (
        "uniformize a bidirected graph up to reorientation", ("bidirected",), _run_uniformize
    ),
    "decompose": ("split a dn document into bidirections and center", ("dn",), _run_decompose),
    "compose": ("reassemble a dn document", None, _run_compose),
    "export-dot": ("DOT output", KINDS, _run_export_dot),
    "random": ("seeded random bidirected graph", None, _run_random),
}


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
    stdin_stream: TextIO = sys.stdin if stdin_text is None else io.StringIO(stdin_text)
    ap = _build_argparser()
    try:
        # argparse prints its usage errors and --help text, then exits
        with redirect_stdout(out), redirect_stderr(err):
            ns = ap.parse_args(argv)
    except SystemExit as e:
        return (0 if e.code == 0 else 2, out.getvalue(), err.getvalue())

    _, kinds, handler = COMMANDS[ns.command]
    try:
        if kinds is None:
            code = handler(ns, stdin_stream, out)
        else:
            x = parse(_read_input(ns.file, stdin_stream))
            kind = _KIND[type(x)]
            if kind not in kinds:
                raise ValueError(f"{ns.command} needs a {' or '.join(kinds)} document, got {kind}")
            code = handler(x, ns, out)
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def main(argv: Optional[list[str]] = None) -> None:
    code, out, err = run_command(list(sys.argv[1:] if argv is None else argv))
    sys.stdout.write(out)
    sys.stderr.write(err)
    raise SystemExit(code)
