"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload on the default and the held-out seed, traced and
untraced, for one second each, and checks the result line against
``BENCHMARK.json``; a run on either seed also checks its input against the
pinned sha256.  Then checks that a layer the library stops calling through
its traced name is reported as missing, that the independent checks
reject corrupted certificates, and that the benchmark refuses to run in a
copy that holds no source tree.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
import run
import verify
from spans import Tracer, installed

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

YES = "bidirected 3 3\n0 1 + +\n1 2 + +\n2 0 + +\n"
NO = "bidirected 3 3\n0 1 - +\n1 2 - +\n2 0 - +\n"
# a triangle, uniformizable by reorienting edge 1, and one that is not
TRIANGLE = ((0, 1), (1, 2), (2, 0))
FLIP_ONE = ((1, 1), (-1, -1), (1, 1))
ODD = ((-1, 1), (-1, 1), (-1, 1))


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = run.ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_results() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
                done = run_bench(workload, seed, trace)
                where = f"{workload} seed {seed} trace {trace}"
                expect(done.returncode == 0, f"{where} exited {done.returncode}: {done.stderr}")
                result = json.loads(done.stdout.splitlines()[-1])
                expect(
                    set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{where}: result keys {sorted(result)}",
                )
                expect(result["correct"] and result["failed"] == 0, f"{where}: {done.stderr}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == units, f"{where}: metrics {got} != {units}")
                print(f"ok {where}: {result['attempted']} attempted")


def check_missing_layer() -> None:
    from bisign import cli
    from bisign.cli import run_command

    tracer = Tracer()
    with installed(tracer):
        expect(run_command(["uniformize"], YES)[0] == 0, "small uniformizable input")
        expect(run_command(["uniformize"], NO)[0] == 1, "small non-uniformizable input")
    expect(
        run.missing_spans("uniformize_yes", tracer) == ["cli.run_command"],
        "every uniformize layer but the benchmark's own root span is traced",
    )
    tracer = Tracer()
    with installed(tracer):
        traced_serialize = cli.serialize
        cli.serialize = traced_serialize.__wrapped__  # a call site that bypasses the span
        try:
            run_command(["uniformize"], YES)
        finally:
            cli.serialize = traced_serialize
    expect("cli.serialize" in run.missing_spans("uniformize_yes", tracer), "dropped layer found")
    print("ok a layer the library stops calling through its traced name is reported")


def triangle_text(beta) -> str:
    ch = {1: "+", -1: "-"}
    rows = [f"{u} {v} {ch[a]} {ch[b]}\n" for (u, v), (a, b) in zip(TRIANGLE, beta)]
    return "bidirected 3 3\n" + "".join(rows)


def check_rejects_corruption() -> None:
    """Each independent check passes the library's certificate and rejects
    it after one edit."""
    from bisign.core import MINUS, PLUS, BidirectedGraph, build_graph
    from bisign.cli import run_command
    from bisign.convert import associated_signed
    from bisign.balance import is_antibalanced
    from bisign.oracle import uniformizable_by_enumeration
    from bisign.uniform import uniformize

    code, out, _ = run_command(["uniformize"], triangle_text(FLIP_ONE))
    expect(code == 0, "triangle with one reversed edge is uniformizable")
    expect(verify.check_uniformizable(TRIANGLE, FLIP_ONE, 3, out) is None, "yes certificate")
    lines = out.split("\n")
    flips = {int(x) for x in lines[1].split()[1:]} ^ {0}
    lines[1] = " ".join(["reorient", *map(str, sorted(flips))])
    bad = verify.check_uniformizable(TRIANGLE, FLIP_ONE, 3, "\n".join(lines))
    expect(bad is not None, "an edited reorient id is rejected")

    code, out, _ = run_command(["uniformize"], triangle_text(ODD))
    expect(code == 1, "odd positive triangle is not uniformizable")
    expect(verify.check_not_uniformizable(TRIANGLE, ODD, out) is None, "no certificate")
    head, sign, *ids = out.split("\n")[1].split()
    for edit, what in (
        (f"{head} {sign} {' '.join(ids[:-1])}", "a witness with one edge dropped"),
        (f"{head} {'-' if sign == '+' else '+'} {' '.join(ids)}", "a flipped witness sign"),
    ):
        bad = verify.check_not_uniformizable(TRIANGLE, ODD, f"not-uniformizable\n{edit}\n")
        expect(bad is not None, f"{what} is rejected")

    sign_of = {1: PLUS, -1: MINUS}
    for beta in (FLIP_ONE, ODD):
        b = BidirectedGraph(
            build_graph(3, list(TRIANGLE)), tuple((sign_of[x], sign_of[y]) for x, y in beta)
        )
        r, o = uniformize(b), uniformizable_by_enumeration(b)
        a = is_antibalanced(associated_signed(b))
        expect(run.sweep_problem(3, TRIANGLE, beta, r, o, a) is None, "sweep answers agree")
        fakes = [frozenset() if o is None else None]
        if o is not None:
            fakes.append(frozenset(o) ^ {0})
        for fake in fakes:
            bad = run.sweep_problem(3, TRIANGLE, beta, r, fake, a)
            expect(bad is not None, f"a fake oracle answer {fake} is rejected")
    print("ok corrupted certificates and oracle answers are rejected")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=BENCH) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                run.ROOT / path, bare / path, ignore=shutil.ignore_patterns(".selftest-*", "__pycache__")
            )
        done = run_bench("uniformize_yes", inputs.DEFAULT_SEED, 0, cwd=bare)
        expect(done.returncode != 0, "run without a source tree exited 0")
        expect('"metrics"' not in done.stdout, "run without a source tree printed a result")
    print("ok refuses to run without a source tree")


def main() -> int:
    run.load_library()
    check_missing_layer()
    check_rejects_corruption()
    check_refuses_without_source()
    check_results()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
