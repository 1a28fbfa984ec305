import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisign import (
    MINUS,
    PLUS,
    SignedGraph,
    VertexSignature,
    build_graph,
    cycle_sign,
    is_uniform,
    reorient,
    verify_signature,
)
from bisign.balance import CycleWitness
from bisign.cli import (
    Document,
    ParseError,
    export_dot,
    parse,
    parse_documents,
    run_command,
    serialize,
)
from bisign.core import Sign
from bisign.oracle import random_bidirected

from _strategies import bidirected_graphs, dn_graphs, signed_graphs


def test_parse_bidirected():
    doc = parse("bidirected 2 1\n0 1 + -\n")
    assert doc.kind == "bidirected"
    assert doc.payload.graph.vertex_count == 2
    assert doc.payload.beta == ((PLUS, MINUS),)


def test_parse_signed_triangle():
    doc = parse("signed 3 3\n0 1 +\n1 2 +\n2 0 -\n")
    assert doc.payload.sigma == (PLUS, PLUS, MINUS)


def test_parse_dn():
    doc = parse("dn 3 2 1\n0 1 + - -\n")
    assert doc.kind == "dn"
    assert doc.payload.n == 3
    assert doc.payload.labels == ((PLUS, MINUS, MINUS),)


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
    ],
)
def test_parse_errors_carry_line_numbers(text, line, column):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.column) == (line, column)


def test_serialize_canonical():
    text = "signed 3 3\n0 1 +\n1 2 +\n2 0 -\n"
    assert serialize(parse(text)) == text
    assert serialize(parse("signed 0 0\n")) == "signed 0 0\n"


def test_parse_skips_blank_lines():
    doc = parse("\nsigned 2 1\n\n0 1 +\n\n")
    assert doc.payload.sigma == (PLUS,)


@given(bidirected_graphs())
def test_roundtrip_bidirected_docs(b):
    doc = Document("bidirected", b)
    assert parse(serialize(doc)) == doc


@given(signed_graphs())
def test_roundtrip_signed_docs(s):
    doc = Document("signed", s)
    assert parse(serialize(doc)) == doc


@given(dn_graphs())
def test_roundtrip_dn_docs(d):
    doc = Document("dn", d)
    assert parse(serialize(doc)) == doc


@given(st.integers(0, 2**32))
def test_roundtrip_random_docs(seed):
    b = random_bidirected(6, 9, True, True, seed)
    text = serialize(Document("bidirected", b))
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


def test_convert_bad_direction():
    code, _, err = run_command(["convert", "--to", "di2"], "signed 2 1\n0 1 +\n")
    assert code == 2 and "error" in err


def test_unknown_subcommand_exits_2():
    code, _, _ = run_command(["frobnicate"])
    assert code == 2


def test_usage_error_message_is_returned():
    code, out, err = run_command(["convert"], "signed 0 0\n")
    assert code == 2 and out == ""
    assert err.startswith("usage: bisign convert")
    assert "the following arguments are required: --to" in err


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
    original = parse("bidirected 4 4\n0 1 - +\n1 2 - +\n2 3 - +\n3 0 - +\n").payload
    assert reorient(original, reorient_ids) == uniform_doc.payload
    assert is_uniform(uniform_doc.payload)
    from bisign import associated_signed

    assert associated_signed(uniform_doc.payload) == associated_signed(original)
    assert verify_signature(associated_signed(original), mu, "antibalance")


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

    sb = associated_signed(parse(text).payload)
    assert cycle_sign(sb, CycleWitness(edges, sign)) is sign
    assert sign is PLUS and len(edges) == 3


def test_decompose_compose_roundtrip_via_cli():
    text = "dn 5 3 2\n0 1 + - - + +\n1 2 - - + + -\n"
    code, out, _ = run_command(["decompose"], text)
    assert code == 0
    docs = parse_documents(out)
    assert [d.kind for d in docs] == ["bidirected", "bidirected", "signed"]
    code, back, _ = run_command(["compose"], out)
    assert code == 0 and back == text


def test_random_command_roundtrips():
    argv = ["random", "--vertices", "4", "--edges", "6", "--loops", "--parallel", "--seed", "1"]
    code, out, _ = run_command(argv)
    assert code == 0
    assert serialize(parse(out)) == out
    code2, out2, _ = run_command(argv)
    assert out2 == out


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
