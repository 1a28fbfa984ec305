import gc
import itertools
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisign import (
    MINUS,
    PLUS,
    BalanceResult,
    BidirectedGraph,
    Di2SignedGraph,
    DnSignedGraph,
    SignedGraph,
    UniformizationResult,
    VertexSignature,
    associated_signed,
    build_graph,
    cycle_sign,
    is_uniform,
    reorient,
    verify_signature,
)
from bisign import cli
from bisign.balance import CycleWitness
from bisign.cli import (
    MAX_TUPLE_LENGTH,
    MAX_VERTICES,
    ParseError,
    _parse_bulk,
    _parse_lines,
    export_dot,
    main,
    parse,
    parse_documents,
    run_command,
    serialize,
)
from bisign.core import Sign
from bisign.generate import random_bidirected

from _strategies import bidirected_graphs, di2_graphs, dn_graphs, signed_graphs


def test_parse_bidirected():
    doc = parse("bidirected 2 1\n0 1 + -\n")
    assert type(doc) is BidirectedGraph
    assert doc.graph.vertex_count == 2
    assert doc.beta == ((PLUS, MINUS),)


def test_parse_signed_triangle():
    doc = parse("signed 3 3\n0 1 +\n1 2 +\n2 0 -\n")
    assert doc.sigma == (PLUS, PLUS, MINUS)


def test_parse_dn():
    doc = parse("dn 3 2 1\n0 1 + - -\n")
    assert type(doc) is DnSignedGraph
    assert doc.n == 3
    assert doc.labels == ((PLUS, MINUS, MINUS),)


def _bad(text, line, column, id=None):
    # unnamed cases get the id "<text>-<line>"
    return pytest.param(text, line, column, id=id or f"{text}-{line}")


# line 2 is valid, so its signs are already validated when line 3 repeats them
WARM = "bidirected 3 2\n0 1 + -\n"


@pytest.mark.parametrize(
    "text,line,column",
    [
        _bad("frob 2 1\n0 1 +\n", 1, 1),
        _bad("signed x 1\n0 1 +\n", 1, 8),
        _bad("signed 2 1\n0 5 +\n", 2, 3),
        _bad("signed 2 1\n0 1 *\n", 2, 5),
        _bad("signed 2 1\n0 1 + +\n", 2, 7),
        _bad("signed 2 2\n0 1 +\n", 2, 1),
        _bad("dn 0 2 1\n0 1\n", 1, 4),
        _bad("signed 2 1\n0 1 +\nextra\n", 3, 1),
        # integers are ASCII digits only, whatever int() would accept
        _bad("signed 1_0 0\n", 1, 8),
        _bad("signed 2 1\n+1 0 +\n", 2, 1),
        _bad("signed \uff12 0\n", 1, 8),  # fullwidth 2
        _bad("signed 2 1\n0 \u0661 +\n", 2, 3),  # Arabic-Indic 1
        _bad("signed 2 1\n0 " + "9" * 5000 + " +\n", 2, 3, id="int-digit-limit"),
        _bad(WARM + "1_0 2 + -\n", 3, 1, id="warm-underscore"),
        _bad(WARM + "+1 2 + -\n", 3, 1, id="warm-plus-digit"),
        _bad(WARM + "1 \uff12 + -\n", 3, 3, id="warm-fullwidth"),
        _bad(WARM + "1 " + "9" * 5000 + " + -\n", 3, 3, id="warm-int-digit-limit"),
        _bad(WARM + "1 3 + -\n", 3, 3, id="warm-out-of-range"),
        _bad(WARM + "1 2 + - +\n", 3, 9, id="warm-trailing-sign"),
        _bad(WARM + "1 2 + *\n", 3, 7, id="warm-star"),
        _bad(WARM + "5 2 * -\n", 3, 1, id="warm-endpoint-before-sign"),
        # whitespace other than space, tab, CR and LF separates nothing
        _bad("signed 2 1\n0\u00a01 +\n", 2, 2, id="nbsp"),
        _bad("signed 2 1\n0 1\u3000+\n", 2, 4, id="ideographic-space"),
        _bad("signed 2 1\u20280 1 +\n", 1, 11, id="line-separator"),
        _bad("signed 2 1\u00850 1 +\n", 1, 11, id="next-line"),
        _bad("signed\v2 1\n0 1 +\n", 1, 7, id="vt"),
        _bad("signed 2 1\n0 1 +\f", 2, 6, id="ff"),
        _bad("signed 2 1\r\n0 1\x1c+\r\n", 2, 4, id="x1c-after-crlf"),
        _bad("signed 2 1\r0 1\x1d+\n", 2, 4, id="x1d-after-cr"),
        _bad("signed 2 1\n\n0 1\x1e+\n", 3, 4, id="x1e-after-blank"),
        _bad("signed 2 1\n0\x1f1 +\n", 2, 2, id="x1f"),
        # the cursor over non-blank lines: end of input is reported at the
        # last non-blank line (line 1 when there is none), and trailing input
        # at its own line
        _bad("signed 2 2\n0 1 +\n\n \t\n", 2, 1, id="eof-after-blank-lines"),
        _bad("\n\n", 1, 1, id="eof-blank-only"),
        _bad("", 1, 1, id="eof-empty"),
        _bad("signed 2 2\r0 1 +\r", 2, 1, id="eof-cr"),
        _bad("  \n\t\nsigned 2 2\n\n0 1 +\n", 5, 1, id="eof-after-leading-blanks"),
        _bad("signed 2 1\n\n\n0 1 +\n\n\nsigned 1 0\n", 7, 1, id="trailing-after-blanks"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, column):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.column) == (line, column)


def test_vertex_count_limit():
    # an edge-free document allocates nothing per vertex while parsing
    doc = parse(f"bidirected {MAX_VERTICES} 0\n")
    assert doc.graph.vertex_count == MAX_VERTICES
    for text, column in ((f"bidirected {MAX_VERTICES + 1} 0\n", 12),
                         (f"dn 2 {MAX_VERTICES + 1} 0\n", 6),
                         ("signed 4000000000 0\n", 8)):
        with pytest.raises(ParseError, match="exceeds the limit") as e:
            parse(text)
        assert (e.value.line, e.value.column) == (1, column)


def test_tuple_length_limit():
    # an edge-free dn document holds no sign token, whatever its n
    doc = parse(f"dn {MAX_TUPLE_LENGTH} 2 0\n")
    assert doc.n == MAX_TUPLE_LENGTH
    for text in (f"dn {MAX_TUPLE_LENGTH + 1} 2 0\n", "dn 4000000000 2 0\n"):
        with pytest.raises(ParseError, match="exceeds the limit") as e:
            parse(text)
        assert (e.value.line, e.value.column) == (1, 4)
    code, out, err = run_command(["decompose"], "dn 4000000000 2 0\n")
    assert (code, out) == (2, "")
    limit = f"tuple length 4000000000 exceeds the limit {MAX_TUPLE_LENGTH}"
    assert err == f"error: line 1, column 4: {limit}\n"


# the grammar's words, digits and separators, drawn three times as often as
# any other character
_PIECES = st.sampled_from(
    ["signed", "bidirected", "di2", "dn", "+", "-", " ", "\t", "\r", "\n", *"0123456789"]
)
_PIECE_OR_CHAR = st.one_of(_PIECES, _PIECES, _PIECES, st.characters())
_FUZZ_TEXT = st.lists(_PIECE_OR_CHAR, max_size=40).map("".join)


@st.composite
def _near_document(draw):
    """A document from the grammar whose counts, endpoints and sign counts
    may be zero, off by one or out of range, with up to two short spans then
    replaced by fuzz pieces: accepted and rejected inputs both come up often."""
    small = st.integers(0, 4)
    kind = draw(st.sampled_from(["signed", "bidirected", "di2", "dn"]))
    header = [kind, draw(st.integers(1, 4)), draw(small)]
    if kind == "dn":
        header.insert(1, draw(small))
    signs = {"signed": 1, "bidirected": 2, "di2": 2}.get(kind, header[1])
    rows = [header]
    # one count in three is off by one
    off_by = st.sampled_from([0, 0, 0, 0, 1, -1])
    for _ in range(max(0, header[-1] + draw(off_by))):
        k = max(0, signs + draw(off_by))
        tokens = st.lists(st.sampled_from("+-"), min_size=k, max_size=k)
        ends = st.sampled_from(range(header[-2] + 1))  # the vertex count is out of range
        rows.append([draw(ends), draw(ends)] + draw(tokens))
    text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(_PIECE_OR_CHAR) + text[j:]
    return text


_NEAR_DOCUMENTS = st.lists(_near_document(), min_size=1, max_size=2).map("".join)


@settings(max_examples=300)
@given(st.one_of(_FUZZ_TEXT, _NEAR_DOCUMENTS))
def test_parse_is_total(text):
    # any text gives overlays or a ParseError, never another exception
    try:
        docs = [parse(text)]
    except ParseError:
        docs = []
    try:
        docs += parse_documents(text)
    except ParseError:
        pass
    for x in docs:
        assert type(x) in (SignedGraph, BidirectedGraph, Di2SignedGraph, DnSignedGraph)
        assert parse(serialize(x)) == x


def _same_parse(x, text):
    # the line parser's result for a text of one document
    (y,) = _parse_lines(text)
    assert y == x and type(y) is type(x)


class _LineParserRan(Exception):
    """Raised in place of the line parser: the bulk parser declined a text."""


def _no_line_parser():
    # the line parser's first step raises instead; not a ValueError, so it
    # also passes through run_command
    return mock.patch.object(cli, "_rows", side_effect=_LineParserRan)


def _bulk_only(parse_text, text):
    # parse or parse_documents through the bulk parser alone; None where it
    # declines the text
    with _no_line_parser():
        try:
            return parse_text(text)
        except _LineParserRan:
            return None


_SPACE = st.sampled_from([" ", " ", "\t", "  ", " \t "])
_LINE_END = st.sampled_from(["\n", "\n", "\r\n", "\r"])
# what may follow a line end: mostly nothing, else blank and whitespace-only lines
_BLANK_LINES = st.sampled_from(["", "", "", "\n", " \t\r\n", "\r\r\n\t"])


@st.composite
def _respaced(draw, texts):
    """A text of ``texts`` with its spaces and LFs redrawn from the rest of the
    grammar: runs of spaces and tabs; LF, CRLF or CR line ends; blank and
    whitespace-only lines, also before the first line; maybe no final line
    end; and now and then an integer zero-padded or 5,000 digits long."""
    text = draw(texts)
    if text.endswith("\n") and draw(st.booleans()):
        text = text[:-1]
    out = [draw(_BLANK_LINES)]
    for piece in re.split(r"([ \n])", text):
        if piece == " ":
            piece = draw(_SPACE)
        elif piece == "\n":
            piece = draw(_LINE_END) + draw(_BLANK_LINES)
        elif re.fullmatch("[0-9]+", piece):
            piece = draw(st.sampled_from([piece] * 40 + ["0" + piece, "000" + piece, "9" * 5000, piece]))
        out.append(piece)
    return "".join(out)


# streams of one or two documents that serialize wrote
_SERIALIZED = st.lists(
    st.one_of(signed_graphs(), bidirected_graphs(), di2_graphs(), dn_graphs()).map(serialize),
    min_size=1, max_size=2,
).map("".join)


@settings(max_examples=500)
@given(_respaced(st.one_of(_NEAR_DOCUMENTS, _SERIALIZED)))
def test_bulk_parse_agrees_with_line_parser(text):
    # with the line parser switched off, parse_documents gives the line
    # parser's overlays wherever it accepts the text, and declines wherever it
    # raises; parse does the same for a text of exactly one document
    try:
        want = _parse_lines(text)
    except ParseError:
        want = None
    assert _bulk_only(parse_documents, text) == want
    assert _bulk_only(parse, text) == (want[0] if want and len(want) == 1 else None)


@given(st.one_of(signed_graphs(), bidirected_graphs(), di2_graphs(), dn_graphs()))
def test_bulk_parse_takes_serialize_output(x):
    text = serialize(x)
    assert _parse_bulk(text, 0) == (x, len(text))
    _same_parse(x, text)


def test_bulk_parse_takes_serialize_output_in_chunks():
    # about 135 KB of text: the edge lines are matched in three chunks
    b = random_bidirected(5000, 10000, True, True, 7)
    text = serialize(b)
    assert len(text) > 2 * 2**16
    assert _parse_bulk(text, 0) == (b, len(text))
    _same_parse(b, text)


@pytest.mark.parametrize("edges", [3 * (cli._CHUNK // 4), 10000])
@pytest.mark.parametrize("line_end", ["\r", "\r\n", "\n\n \t\r\n\t"], ids=["cr", "crlf", "blank-run"])
def test_bulk_parse_chunk_boundaries(line_end, edges):
    # over 128 KiB of edge lines in several chunks, the last one full or not,
    # with and without the final line end
    b = random_bidirected(5000, edges, True, True, 7)
    text = serialize(b).replace("\n", line_end)
    assert len(text) > 2 * 2**16
    assert _bulk_only(parse, text) == b
    assert _bulk_only(parse, text.rstrip("\r\n\t ")) == b


@pytest.mark.parametrize("text,labels", [
    ("dn 1 2 1\n0 1 -\n", ((MINUS,),)),
    ("dn 2 2 2\n0 1 + -\n1 1 - -\n", ((PLUS, MINUS), (MINUS, MINUS))),
])
def test_bulk_parse_dn_labels_are_tuples(text, labels):
    x, _ = _parse_bulk(text, 0)
    assert type(x) is DnSignedGraph and x.labels == labels
    assert all(type(t) is tuple for t in x.labels)
    _same_parse(x, text)


_CANON = "bidirected 3 2\n0 1 + -\n1 2 - +\n"


@pytest.mark.parametrize("text,error", [
    # valid, though not canonical: parsed in bulk
    (_CANON.replace("\n", "\r\n"), None),
    (_CANON.replace("0 1", "0\t1"), None),
    (_CANON.replace("0 1", "0  1"), None),
    (_CANON.replace("-\n1", "-\n\n1"), None),
    (_CANON[:-1], None),
    (_CANON.replace("1 2", "00000001 2"), None),
    # invalid: the line parser reports it
    (_CANON.replace("1 2", "1 3"), (3, 3, "vertex 3 out of range (< 3)")),
    (_CANON + "2 0 + +\n", (4, 1, "trailing input after document")),
    (_CANON.replace("1 2 - +\n", ""), (2, 1, "unexpected end of input")),
    (_CANON + "signed 1 0\n", (4, 1, "trailing input after document")),
    ("dn 0 2 1\n0 1\n", (1, 4, "tuple length n must be >= 1")),
    (f"bidirected {MAX_VERTICES + 1} 1\n0 1 + -\n",
     (1, 12, f"vertex count {MAX_VERTICES + 1} exceeds the limit {MAX_VERTICES}")),
    (_CANON.replace("1 2", "1 \u0662"),
     (3, 3, "endpoint must be a nonnegative integer, got '\u0662'")),
    ("signed 2 1 9\n0 1 +\n", (1, 12, "trailing tokens after header")),
])
def test_bulk_parse_declines_near_canonical(text, error):
    # the bulk parser takes the valid texts and declines the others, which
    # the line parser reports
    if error is None:
        assert _bulk_only(parse, text) == parse(_CANON)
        _same_parse(parse(text), text)
        return
    assert _bulk_only(parse, text) is None
    line, column, message = error
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.column) == (line, column)
    assert str(e.value) == f"line {line}, column {column}: {message}"


def test_line_parser_starts_at_the_declined_document():
    # a document the bulk parser took is not read again by the line parser
    big = serialize(random_bidirected(2000, 5000, True, True, 3))
    cases = [
        (parse, big + "signed 1 0\n", (5002, 1, "trailing input after document")),
        (parse_documents, big + "signed 1 1\n0 0 x\n", (5003, 5, "sign must be + or -, got 'x'")),
    ]
    for parse_text, text, (line, column, message) in cases:
        with mock.patch.object(cli, "_parse_one", wraps=cli._parse_one) as spy:
            with pytest.raises(ParseError) as e:
                parse_text(text)
        assert str(e.value) == f"line {line}, column {column}: {message}"
        assert all(call.args[1] > 0 for call in spy.call_args_list)


def test_serialize_canonical():
    text = "signed 3 3\n0 1 +\n1 2 +\n2 0 -\n"
    assert serialize(parse(text)) == text
    assert serialize(parse("signed 0 0\n")) == "signed 0 0\n"


def test_parse_skips_blank_lines():
    doc = parse("\nsigned 2 1\n\n0 1 +\n\n")
    assert doc.sigma == (PLUS,)
    docs = parse_documents("signed 2 1\n\n0 1 +\n\n\nbidirected 1 0\n\n")
    assert [type(d) for d in docs] == [SignedGraph, BidirectedGraph]


@given(bidirected_graphs())
def test_roundtrip_bidirected_docs(b):
    assert parse(serialize(b)) == b
    # the same graph and labels as a di2 document keep their own kind
    d = Di2SignedGraph(b.graph, b.beta)
    assert parse(serialize(d)) == d
    assert type(parse(serialize(d))) is Di2SignedGraph


@given(signed_graphs())
def test_roundtrip_signed_docs(s):
    assert parse(serialize(s)) == s


@given(dn_graphs())
def test_roundtrip_dn_docs(d):
    assert parse(serialize(d)) == d


@given(st.integers(0, 2**32))
def test_roundtrip_random_docs(seed):
    b = random_bidirected(6, 9, True, True, seed)
    text = serialize(b)
    assert serialize(parse(text)) == text


def test_check_antibalance_all_negative_triangle():
    code, out, err = run_command(
        ["check-antibalance"], "signed 3 3\n0 1 -\n1 2 -\n2 0 -\n"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "antibalanced"
    assert out.splitlines()[1].startswith("signature ")


def test_check_balance_failure_exit_code():
    code, out, _ = run_command(["check-balance"], "signed 3 3\n0 1 +\n1 2 +\n2 0 -\n")
    assert code == 1
    assert out.splitlines()[0] == "not-balanced"
    assert out.splitlines()[1].startswith("witness - ")


def test_convert_to_signed():
    code, out, _ = run_command(["convert", "--to", "signed"], "bidirected 2 1\n0 1 + +\n")
    assert code == 0
    assert out == "signed 2 1\n0 1 -\n"


def test_convert_chain_di2():
    code, out, _ = run_command(["convert", "--to", "bidirected"], "di2 2 1\n0 1 + -\n")
    assert code == 0 and out == "bidirected 2 1\n0 1 + -\n"
    code, out, _ = run_command(["convert", "--to", "induced"], "di2 2 1\n0 1 + -\n")
    assert code == 0 and out == "signed 2 1\n0 1 -\n"


# one small document of each kind
DOCS = {
    "signed": "signed 2 1\n0 1 +\n",
    "bidirected": "bidirected 2 1\n0 1 + -\n",
    "di2": "di2 2 1\n0 1 + -\n",
    "dn": "dn 3 2 1\n0 1 + - -\n",
}
CONVERSIONS = {("bidirected", "signed"), ("di2", "signed"), ("di2", "bidirected"),
               ("bidirected", "di2"), ("di2", "induced")}


def test_convert_bad_direction():
    for kind, text in DOCS.items():
        for target in ("signed", "bidirected", "di2", "induced"):
            code, out, err = run_command(["convert", "--to", target], text)
            if (kind, target) in CONVERSIONS:
                assert code == 0 and err == ""
            else:
                assert (code, out) == (2, "")
                assert err == f"error: cannot convert {kind} to {target}\n"


@pytest.mark.parametrize(
    "command,kind",
    [
        ("check-balance", "signed"),
        ("check-antibalance", "signed"),
        ("uniformize", "bidirected"),
        ("decompose", "dn"),
    ],
)
def test_verdict_commands_reject_other_kinds(command, kind):
    for other, text in DOCS.items():
        if other == kind:
            continue
        code, out, err = run_command([command], text)
        assert (code, out) == (2, "")
        assert err == f"error: {command} needs a {kind} document, got {other}\n"


def test_unknown_subcommand_exits_2():
    code, _, _ = run_command(["frobnicate"])
    assert code == 2


def test_usage_error_message_is_returned():
    code, out, err = run_command(["convert"], "signed 0 0\n")
    assert code == 2 and out == ""
    assert err == (
        "usage: bisign convert [-h] --to {signed,bidirected,di2,induced} [file]\n"
        "bisign convert: error: the following arguments are required: --to\n"
    )


def test_unknown_flag_message_is_returned():
    code, out, err = run_command(["check-balance", "--bogus"], "signed 0 0\n")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --bogus" in err


def test_parse_failure_exits_2():
    code, _, err = run_command(["check-balance"], "signed 2 1\n0 9 +\n")
    assert code == 2 and "line 2" in err


def test_uniformize_certificate_reverifies():
    code, out, _ = run_command(
        ["uniformize"], "bidirected 4 4\n0 1 - +\n1 2 - +\n2 3 - +\n3 0 - +\n"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "uniformizable"
    reorient_ids = [int(x) for x in lines[1].split()[1:]]
    mu = VertexSignature(tuple(Sign.from_char(c) for c in lines[2].split()[1:]))
    uniform_doc = parse("\n".join(lines[3:]) + "\n")
    original = parse("bidirected 4 4\n0 1 - +\n1 2 - +\n2 3 - +\n3 0 - +\n")
    assert reorient(original, reorient_ids) == uniform_doc
    assert is_uniform(uniform_doc)
    from bisign import associated_signed

    assert associated_signed(uniform_doc) == associated_signed(original)
    assert verify_signature(associated_signed(original), mu, "antibalance")


def test_uniformize_frees_its_certificate_before_serializing():
    # no result object holds the uniform graph while its text is built, so
    # the reorient set and signature are already freed; the BFS forest kept
    # no copy of the graph's incidence either
    g = random_bidirected(50, 100, True, True, 4).graph
    beta = tuple((MINUS, MINUS) if e % 3 == 0 else (PLUS, PLUS) for e in range(g.edge_count))
    text = serialize(BidirectedGraph(g, beta))
    held = []
    cached = []

    def spy(x):
        held.extend(
            o for o in gc.get_objects() if type(o) is UniformizationResult and o.uniform is x
        )
        cached.append("incidence" in vars(x.graph))
        return serialize(x)

    with mock.patch.object(cli, "serialize", spy):
        code, out, _ = run_command(["uniformize"], text)
    assert code == 0 and out.startswith("uniformizable\n")
    assert held == []
    assert cached == [False]


def test_uniformize_witness_reverifies():
    text = "bidirected 3 3\n0 1 - +\n1 2 - +\n2 0 - +\n"
    code, out, _ = run_command(["uniformize"], text)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not-uniformizable"
    parts = lines[1].split()
    sign = Sign.from_char(parts[1])
    edges = tuple(int(x) for x in parts[2:])
    from bisign import associated_signed

    sb = associated_signed(parse(text))
    assert cycle_sign(sb, CycleWitness(edges, sign)) is sign
    assert sign is PLUS and len(edges) == 3


def test_decompose_compose_roundtrip_via_cli():
    text = "dn 5 3 2\n0 1 + - - + +\n1 2 - - + + -\n"
    code, out, _ = run_command(["decompose"], text)
    assert code == 0
    docs = parse_documents(out)
    assert [type(d) for d in docs] == [BidirectedGraph, BidirectedGraph, SignedGraph]
    code, back, _ = run_command(["compose"], out)
    assert code == 0 and back == text


_COMPOSE_ORDER = "compose expects bidirected documents followed by at most one signed center"


@pytest.mark.parametrize("text,message", [
    ("", "compose needs at least one document"),
    ("dn 2 2 1\n0 1 + -\n", _COMPOSE_ORDER),
    ("signed 1 0\nbidirected 1 0\n", _COMPOSE_ORDER),
])
def test_compose_rejects(text, message):
    assert run_command(["compose"], text) == (2, "", f"error: {message}\n")


def test_compose_reads_large_decompose_output_in_bulk():
    # each of the three documents spans chunks
    g = random_bidirected(5000, 10000, True, True, 11).graph
    rng = random.Random(5)
    labels = tuple(tuple(rng.choice((PLUS, MINUS)) for _ in range(5)) for _ in g.edges)
    text = serialize(DnSignedGraph(5, g, labels))
    code, out, _ = run_command(["decompose"], text)
    assert code == 0
    assert [len(doc) > 2**16 for doc in re.split(r"\n(?=[a-z])", out)] == [True] * 3
    with _no_line_parser():
        assert run_command(["compose"], out) == (0, text, "")


def test_valid_text_never_reaches_the_line_parser():
    b = random_bidirected(2000, 5000, True, True, 3)
    text = serialize(b)
    stream = run_command(["decompose"], "dn 5 3 2\n0 1 + - - + +\n1 2 - - + + -\n")[1]
    docs = _parse_lines(stream)
    with _no_line_parser():
        for variant in (text, text.replace(" ", "\t"), text.replace("\n", "\r\n"), text + "\n"):
            assert parse(variant) == b
        assert parse_documents(stream) == docs
        assert parse_documents(" \r\n\t\n") == []


def test_random_command_roundtrips():
    argv = ["random", "--vertices", "4", "--edges", "6", "--loops", "--parallel", "--seed", "1"]
    code, out, _ = run_command(argv)
    assert code == 0
    assert serialize(parse(out)) == out
    code2, out2, _ = run_command(argv)
    assert out2 == out


def test_random_command_vertex_limit():
    # random writes only documents that parse takes back
    too_many = MAX_VERTICES + 1
    argv = ["random", "--vertices", str(too_many), "--edges", "1", "--seed", "1"]
    limit = f"vertex count {too_many} exceeds the limit {MAX_VERTICES}"
    assert run_command(argv) == (2, "", f"error: {limit}\n")
    argv = ["random", "--vertices", str(MAX_VERTICES), "--edges", "3", "--loops", "--seed", "1"]
    code, out, _ = run_command(argv)
    assert code == 0
    doc = parse(out)
    assert (doc.graph.vertex_count, doc.graph.edge_count) == (MAX_VERTICES, 3)
    assert serialize(doc) == out


def test_random_command_impossible():
    code, _, err = run_command(
        ["random", "--vertices", "0", "--edges", "1", "--seed", "0"]
    )
    assert code == 2 and "error" in err


def test_export_dot_bidirected_arrows():
    out = export_dot(parse("bidirected 2 1\n0 1 - +\n"))
    assert "digraph" in out
    assert "arrowtail=inv" in out and "arrowhead=normal" in out


def test_export_dot_all_sink_star():
    out = export_dot(parse("bidirected 3 2\n1 0 + +\n2 0 + +\n"))
    assert out.count("arrowtail=normal arrowhead=normal") == 2


def test_export_dot_signed_and_loop():
    out = export_dot(parse("signed 2 2\n0 1 +\n1 1 -\n"))
    assert 'label="+"' in out and 'label="-"' in out
    assert "1 -- 1" in out


def test_export_dot_dn_label():
    out = export_dot(parse("dn 3 2 1\n0 1 + - -\n"))
    assert 'label="+--"' in out


def test_export_dot_deterministic():
    text = "bidirected 3 3\n0 1 - +\n1 2 - +\n2 0 - +\n"
    assert export_dot(parse(text)) == export_dot(parse(text))
    assert run_command(["export-dot"], text) == (0, export_dot(parse(text)), "")


# references for serialize and export_dot: every row formatted, then one join
def _serialize_reference(x):
    g = x.graph
    kinds = {SignedGraph: "signed", BidirectedGraph: "bidirected", Di2SignedGraph: "di2"}
    kind = kinds.get(type(x)) or f"dn {x.n}"
    rows = [f"{kind} {g.vertex_count} {g.edge_count}"]
    rows += [f"{u} {v} {' '.join(map(str, t))}" for (u, v), t in zip(g.edges, _tuples(x))]
    return "\n".join(rows) + "\n"


def _export_dot_reference(x):
    g = x.graph
    arrow = {PLUS: "normal", MINUS: "inv"}
    if isinstance(x, (SignedGraph, DnSignedGraph)):
        attrs = [f'label="{"".join(map(str, t))}"' for t in _tuples(x)]
    else:
        attrs = [f"dir=both arrowtail={arrow[a]} arrowhead={arrow[b]}" for a, b in _tuples(x)]
    graph, edge = ("graph", "--") if isinstance(x, SignedGraph) else ("digraph", "->")
    rows = [graph + " {"] + [f"  {v};" for v in range(g.vertex_count)]
    rows += [f"  {u} {edge} {v} [{a}];" for (u, v), a in zip(g.edges, attrs)]
    return "\n".join(rows) + "\n}\n"


def _tuples(x):
    if isinstance(x, SignedGraph):
        return [(s,) for s in x.sigma]
    return x.beta if isinstance(x, BidirectedGraph) else x.labels


def _every_kind(b, seed):
    rng = random.Random(seed)
    labels = tuple(tuple(rng.choice((PLUS, MINUS)) for _ in range(3)) for _ in b.beta)
    return [b, associated_signed(b), Di2SignedGraph(b.graph, b.beta), DnSignedGraph(3, b.graph, labels)]


_C = cli._BLOCK


@pytest.mark.parametrize("edges", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 1])
def test_output_blocks_match_one_join(edges):
    # serialize writes a header row and export_dot 1 + V rows before the
    # edges, so the block boundaries fall on both sides of the edge counts
    for vertices in (1, 3, _C):
        for x in _every_kind(random_bidirected(vertices, edges, True, True, edges), vertices):
            assert serialize(x) == _serialize_reference(x)
            assert export_dot(x) == _export_dot_reference(x)


def test_output_memory_is_bounded_by_its_length():
    b = random_bidirected(25_000, 50_000, True, True, 12)
    for write in (serialize, export_dot):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        text = write(b)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        assert peak < 3 * len(text), (write.__name__, peak / len(text))


def test_balance_certificate_memory_is_bounded_by_its_lines():
    # the signature and bipartition lines are built a block at a time, not
    # from one string per vertex
    rng = random.Random(5)
    mu = tuple(rng.choice((PLUS, MINUS)) for _ in range(300_000))
    result = BalanceResult(VertexSignature(mu))
    lengths = []

    class Sink:
        def write(self, s):
            lengths.append(len(s))

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    cli._balance_certificate(result, "balanced", Sink())
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    assert lengths[:2] == [len("balanced\n"), len("signature\n") + 2 * len(mu)]
    assert peak < 3 * max(lengths), peak / max(lengths)


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_input_from_path_and_dash():
    src = GOLDEN / "oneneg_triangle.signed"
    want = (GOLDEN / "oneneg_triangle.check-balance.out").read_text()
    assert run_command(["check-balance", str(src)]) == (1, want, "")
    assert run_command(["check-balance", "-"], src.read_text()) == (1, want, "")


def test_missing_input_file(tmp_path):
    missing = tmp_path / "missing.signed"
    code, out, err = run_command(["check-balance", str(missing)], "signed 0 0\n")
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_main_exits_with_the_command_code(capsys, tmp_path):
    src = GOLDEN / "oneneg_triangle.signed"
    with pytest.raises(SystemExit) as e:
        main(["check-balance", str(src)])
    assert e.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "oneneg_triangle.check-balance.out").read_text()
    assert captured.err == ""
    with pytest.raises(SystemExit) as e:
        main(["export-dot", str(tmp_path / "missing")])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno 2] ")


def test_cli_does_not_load_the_oracle():
    src = pathlib.Path(sys.modules["bisign.cli"].__file__).parents[1]
    code = "import sys; import bisign.cli; print('bisign.oracle' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"


def test_main_reads_the_process_stdin():
    # the README example, through a real stdin rather than run_command's text
    src = pathlib.Path(sys.modules["bisign.cli"].__file__).parents[1]
    code = "from bisign.cli import main; main(['uniformize'])"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {code}"],
        input="bidirected 3 3\n0 1 - +\n1 2 - +\n2 0 - +\n",
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "not-uniformizable\nwitness + 1 2 0\n", ""
    )
