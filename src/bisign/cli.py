"""Command-line front end: parsing, serialization, checks, DOT export.

File format, one record per line, whitespace-separated:

    <kind> <vertex_count> <edge_count>        header (kind: signed,
                                              bidirected, di2, dn; a dn
                                              header is  dn <n> <V> <E>)
    <u> <v> <signs...>                        one line per edge; 1 sign for
                                              signed, 2 for bidirected/di2,
                                              n for dn

Verdict subcommands print a certificate block (``signature`` /
``bipartition`` / ``witness`` / ``reorient`` lines) and exit 0 when the
property holds, 1 when it fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
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
    is_antibalanced,
    is_balanced,
    signature_to_bipartition,
)
from .uniform import uniformize
from .oracle import random_bidirected

Payload = Union[SignedGraph, BidirectedGraph, Di2SignedGraph, DnSignedGraph]

KINDS = ("signed", "bidirected", "di2", "dn")


@dataclass(frozen=True)
class Document:
    kind: str
    payload: Payload


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _fail(lineno: int, line: str, token_index: int, message: str) -> ParseError:
    # column of the offending token (1-based); past-the-end tokens point
    # at the end of the line
    tokens = line.split()
    col = len(line) + 1
    if token_index < len(tokens):
        pos = 0
        for i, tok in enumerate(tokens):
            pos = line.index(tok, pos)
            if i == token_index:
                col = pos + 1
                break
            pos += len(tok)
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


class _Lines:
    """Cursor over non-blank input lines, tracking 1-based line numbers."""

    def __init__(self, text: str):
        self.items = [
            (i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()
        ]
        self.pos = 0

    def next(self) -> tuple[int, str]:
        if self.pos >= len(self.items):
            last = self.items[-1][0] if self.items else 1
            raise ParseError(last, 1, "unexpected end of input")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _parse_one(lines: _Lines) -> Document:
    lineno, header = lines.next()
    tokens = header.split()
    kind = tokens[0]
    if kind not in KINDS:
        raise _fail(lineno, header, 0, f"unknown kind {kind!r}")
    i = 1
    n = 0
    if kind == "dn":
        n = _int_token(lineno, header, tokens, i, "tuple length n")
        if n < 1:
            raise _fail(lineno, header, i, "tuple length n must be >= 1")
        i += 1
    vcount = _int_token(lineno, header, tokens, i, "vertex count")
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
        return Document(kind, DnSignedGraph(n, g, tuple(rows)))
    overlay = {"signed": SignedGraph, "bidirected": BidirectedGraph, "di2": Di2SignedGraph}
    return Document(kind, overlay[kind](g, tuple(rows)))


def parse(text: str) -> Document:
    """Parse exactly one document; strict about every token.

    Each distinct tuple of sign tokens is validated once per document; later
    edges with the same tokens reuse the validated signs.
    """
    lines = _Lines(text)
    doc = _parse_one(lines)
    if not lines.exhausted():
        lineno, line = lines.next()
        raise _fail(lineno, line, 0, "trailing input after document")
    return doc


def parse_documents(text: str) -> list[Document]:
    """Parse a stream of consecutive documents (used by ``compose``)."""
    lines = _Lines(text)
    docs = []
    while not lines.exhausted():
        docs.append(_parse_one(lines))
    return docs


_SIGN_TEXT = {Sign.PLUS: "+", Sign.MINUS: "-"}


def _signs_text(signs: Iterable[Sign]) -> str:
    return " ".join(map(_SIGN_TEXT.__getitem__, signs))


def serialize(d: Document) -> str:
    """Canonical text: LF newlines, single spaces, edges in id order."""
    p = d.payload
    g = p.graph
    if d.kind == "dn":
        assert isinstance(p, DnSignedGraph)
        header = f"dn {p.n} {g.vertex_count} {g.edge_count}"
    else:
        header = f"{d.kind} {g.vertex_count} {g.edge_count}"
    if isinstance(p, SignedGraph):
        labels: tuple = p.sigma
        text: dict = _SIGN_TEXT
    else:
        labels = p.beta if isinstance(p, BidirectedGraph) else p.labels
        text = {t: _signs_text(t) for t in set(labels)}
    rows = [header]
    rows += [f"{u} {v} {text[t]}" for (u, v), t in zip(g.edges, labels)]
    return "\n".join(rows) + "\n"


def export_dot(d: Document) -> str:
    """DOT output suitable for third-party renderers.

    Bidirected (and di2) edges draw each end's sign as an arrow: + is an
    arrowhead pointing into the incident vertex, - a reversed (outward)
    arrowhead.  Signed edges carry their sign as a label; dn edges carry the
    whole tuple, read along the drawn direction.
    """
    p = d.payload
    g = p.graph
    if isinstance(p, SignedGraph):
        out = ["graph {"]
        out += [f"  {v};" for v in range(g.vertex_count)]
        for e, (u, v) in enumerate(g.edges):
            out.append(f'  {u} -- {v} [label="{p.sigma[e]}"];')
    elif isinstance(p, (BidirectedGraph, Di2SignedGraph)):
        pairs = p.beta if isinstance(p, BidirectedGraph) else p.labels
        out = ["digraph {"]
        out += [f"  {v};" for v in range(g.vertex_count)]
        for e, (u, v) in enumerate(g.edges):
            tail = "normal" if pairs[e][0] is Sign.PLUS else "inv"
            head = "normal" if pairs[e][1] is Sign.PLUS else "inv"
            out.append(
                f"  {u} -> {v} [dir=both arrowtail={tail} arrowhead={head}];"
            )
    else:
        assert isinstance(p, DnSignedGraph)
        out = ["digraph {"]
        out += [f"  {v};" for v in range(g.vertex_count)]
        for e, (u, v) in enumerate(g.edges):
            label = "".join(str(s) for s in p.labels[e])
            out.append(f'  {u} -> {v} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def _print_balance_certificate(r: BalanceResult, positive_word: str, out: TextIO) -> int:
    if r.holds:
        assert r.signature is not None
        out.write(positive_word + "\n")
        out.write("signature " + _signs_text(r.signature.mu) + "\n")
        bp = signature_to_bipartition(r.signature)
        out.write(("bipartition + " + " ".join(map(str, sorted(bp.v1)))).rstrip() + "\n")
        out.write(("bipartition - " + " ".join(map(str, sorted(bp.v2)))).rstrip() + "\n")
        return 0
    assert r.witness is not None
    out.write("not-" + positive_word + "\n")
    out.write(
        f"witness {r.witness.sign} " + " ".join(map(str, r.witness.edges)) + "\n"
    )
    return 1


def _read_input(path: Optional[str], stdin: TextIO) -> str:
    if path is None or path == "-":
        return stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _expect_kind(doc: Document, kinds: tuple[str, ...], command: str) -> None:
    if doc.kind not in kinds:
        raise ValueError(
            f"{command} needs a {' or '.join(kinds)} document, got {doc.kind}"
        )


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bisign",
        description="signed / bidirected / directionally multisigned graph tools",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("file", nargs="?", default=None, help="input file (default stdin)")
        return p

    conv = with_input(sub.add_parser("convert", help="convert between kinds"))
    conv.add_argument(
        "--to", required=True, choices=("signed", "bidirected", "di2", "induced")
    )
    with_input(sub.add_parser("check-balance", help="balance check on a signed graph"))
    with_input(
        sub.add_parser("check-antibalance", help="antibalance check on a signed graph")
    )
    with_input(
        sub.add_parser("uniformize", help="uniformize a bidirected graph up to reorientation")
    )
    with_input(
        sub.add_parser("decompose", help="split a dn document into bidirections and center")
    )
    with_input(sub.add_parser("compose", help="reassemble a dn document"))
    with_input(sub.add_parser("export-dot", help="DOT output"))
    rnd = sub.add_parser("random", help="seeded random bidirected graph")
    rnd.add_argument("--vertices", type=int, required=True)
    rnd.add_argument("--edges", type=int, required=True)
    rnd.add_argument("--loops", action="store_true")
    rnd.add_argument("--parallel", action="store_true")
    rnd.add_argument("--seed", type=int, required=True)
    return ap


def _run_convert(doc: Document, target: str, out: TextIO) -> int:
    if target == "signed":
        if doc.kind == "bidirected":
            result = Document("signed", associated_signed(doc.payload))
        elif doc.kind == "di2":
            result = Document(
                "signed", associated_signed(di2_to_bidirected(doc.payload))
            )
        else:
            raise ValueError(f"cannot convert {doc.kind} to signed")
    elif target == "induced":
        if doc.kind != "di2":
            raise ValueError(f"cannot convert {doc.kind} to induced")
        result = Document("signed", induced_signed(doc.payload))
    elif target == "bidirected":
        if doc.kind != "di2":
            raise ValueError(f"cannot convert {doc.kind} to bidirected")
        result = Document("bidirected", di2_to_bidirected(doc.payload))
    else:  # di2
        if doc.kind != "bidirected":
            raise ValueError(f"cannot convert {doc.kind} to di2")
        result = Document("di2", bidirected_to_di2(doc.payload))
    out.write(serialize(result))
    return 0


def _run_uniformize(doc: Document, out: TextIO) -> int:
    _expect_kind(doc, ("bidirected",), "uniformize")
    r = uniformize(doc.payload)
    if r.holds:
        out.write("uniformizable\n")
        out.write(
            ("reorient " + " ".join(map(str, sorted(r.reorient_set)))).rstrip() + "\n"
        )
        out.write("signature " + _signs_text(r.signature.mu) + "\n")
        out.write(serialize(Document("bidirected", r.uniform)))
        return 0
    out.write("not-uniformizable\n")
    out.write(
        f"witness {r.witness.sign} " + " ".join(map(str, r.witness.edges)) + "\n"
    )
    return 1


def _run_decompose(doc: Document, out: TextIO) -> int:
    _expect_kind(doc, ("dn",), "decompose")
    dec = decompose_dn(doc.payload)
    for b in dec.bidirections:
        out.write(serialize(Document("bidirected", b)))
    if dec.center is not None:
        out.write(serialize(Document("signed", dec.center)))
    return 0


def _run_compose(text: str, out: TextIO) -> int:
    docs = parse_documents(text)
    if not docs:
        raise ValueError("compose needs at least one document")
    bidirections = []
    center = None
    for i, doc in enumerate(docs):
        if doc.kind == "bidirected" and center is None:
            bidirections.append(doc.payload)
        elif doc.kind == "signed" and center is None and i == len(docs) - 1:
            center = doc.payload
        else:
            raise ValueError(
                "compose expects bidirected documents followed by at most "
                "one signed center"
            )
    d = compose_dn(DnDecomposition(tuple(bidirections), center))
    out.write(serialize(Document("dn", d)))
    return 0


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

    try:
        if ns.command == "random":
            b = random_bidirected(
                ns.vertices, ns.edges, ns.loops, ns.parallel, ns.seed
            )
            out.write(serialize(Document("bidirected", b)))
            code = 0
        elif ns.command == "compose":
            code = _run_compose(_read_input(ns.file, stdin_stream), out)
        else:
            text = _read_input(ns.file, stdin_stream)
            if ns.command == "convert":
                code = _run_convert(parse(text), ns.to, out)
            elif ns.command == "check-balance":
                doc = parse(text)
                _expect_kind(doc, ("signed",), "check-balance")
                code = _print_balance_certificate(
                    is_balanced(doc.payload), "balanced", out
                )
            elif ns.command == "check-antibalance":
                doc = parse(text)
                _expect_kind(doc, ("signed",), "check-antibalance")
                code = _print_balance_certificate(
                    is_antibalanced(doc.payload), "antibalanced", out
                )
            elif ns.command == "uniformize":
                code = _run_uniformize(parse(text), out)
            elif ns.command == "decompose":
                code = _run_decompose(parse(text), out)
            elif ns.command == "export-dot":
                out.write(export_dot(parse(text)))
                code = 0
            else:  # pragma: no cover - argparse rejects unknown commands
                raise ValueError(f"unknown command {ns.command}")
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def main(argv: Optional[list[str]] = None) -> None:
    code, out, err = run_command(list(sys.argv[1:] if argv is None else argv))
    sys.stdout.write(out)
    sys.stderr.write(err)
    raise SystemExit(code)
