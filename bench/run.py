"""bisign benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (inputs come from ``inputs.py`` and the seed):

``uniformize_yes``
    ``run_command(["uniformize"], text)`` on a uniformizable bidirected
    multigraph with 50,000 vertices and 100,000 edges.  Every stage runs at
    full size: parse, incidence, the overlay maps, BFS labeling and scan,
    the reorientation self-check, and serializing a graph as large as the
    input.
``uniformize_no``
    The same input with one end sign of the highest-id edge flipped.  The
    BFS and scan still run to the end, then the witness path is taken; the
    self-check and serialize are bypassed.
``sweep_small``
    The criterion-4 cross-check: every labeled multigraph on <= 4 vertices
    and <= 5 edges, with a seeded sample of its bidirections whose size
    follows 4^m, as in the exhaustive sweep, through
    ``uniformize``, ``uniformizable_by_enumeration`` and
    ``is_antibalanced(associated_signed(b))``, which must agree.  The
    proxy for the exhaustive sweep that dominates the test suite.

End-to-end metrics (``--trace 0``).  Every time is scaled to the nominal
host of ``reference.py`` by reference kernels timed beside the measured
operations: before and after each ``run_command`` call, every 128 graphs
of a sweep pass, and in each set-up interpreter.  The unscaled times and
the median host factor (reference time over nominal) are printed above
the result.

``call_s_p50``
    Median seconds per operation: one ``run_command`` call, or on
    ``sweep_small`` one cross-checked bidirection, taken from the median
    scaled pass.  The sample count (calls or passes) is printed as
    ``samples``.
``checks_per_s``
    Operations produced and checked per scaled second; on
    ``sweep_small``, checks per second of the median scaled pass.
``setup_s``
    Median time to import ``bisign`` and ``bisign.cli`` in a fresh
    interpreter.
``peak_mem_mb``
    Peak traced Python heap during one call, measured in an untimed call
    of its own under ``tracemalloc``; on ``sweep_small``, during an untimed
    pass of the library calls alone, without the checks and the digest.

``fail_ratio`` is ``failed / attempted`` in the result line, where
``attempted`` counts every checked ``run_command`` call or cross-checked
bidirection, untimed passes included.  It is printed, not listed as an
end-to-end metric, because it is 0 on a correct program.  A failure is a
wrong exit code, a certificate that fails the checks in ``verify.py``, an
oracle disagreement, or an output whose sha256 differs from the first
call's.

Per-layer metrics (``--trace 1``) come from a run that alternates traced
and untraced operations (``spans.py`` says how spans are recorded).  Each
layer reports its self seconds and its call count per operation, where an
operation is a ``run_command`` call or a sweep pass; a layer the workload
bypasses reads 0.  Then come counts that repeat exactly for a seed (graph
sizes, bytes in and out, certificate sizes, sweep totals), the tracing
overhead as the traced median over the untraced median, and the number of
non-blank lines in ``src/bisign``.  A layer the workload should exercise
that records no calls stops the run with exit code 1.

Lines before the result line give the input and output sha256 and the
samples.  Every output of a run must have the same sha256, so two commits
that behave the same print the same digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import inputs
import reference
import verify
from spans import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLI_WORKLOADS = ("uniformize_yes", "uniformize_no")
WORKLOADS = CLI_WORKLOADS + ("sweep_small",)

SETUP_REPEATS = 15
# import time, then the reference kernel's time in the same interpreter
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bisign, bisign.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import reference as r; "
    "print(t, r.seconds(r.dict_work, r.SETUP_KEYS))"
)
# the sweep times the reference kernel once per this many graphs
SWEEP_REF_EVERY = 128

# per-layer time metric -> span; every layer also reports <span>_calls
LAYERS = (
    ("cli.run_command.self_s", "cli.run_command"),
    ("cli.parse_s", "cli.parse"),
    ("core.build_graph_s", "core.build_graph"),
    ("core.BidirectedGraph_s", "core.BidirectedGraph"),
    ("core.incidence_s", "core.incidence"),
    ("convert.associated_signed_s", "convert.associated_signed"),
    ("convert.negate_signed_s", "convert.negate_signed"),
    ("balance.is_balanced_s", "balance.is_balanced"),
    ("balance.is_antibalanced.self_s", "balance.is_antibalanced"),
    ("uniform.uniformize.self_s", "uniform.uniformize"),
    ("uniform.reorient_s", "uniform.reorient"),
    ("cli.serialize_s", "cli.serialize"),
    ("oracle.uniformizable_by_enumeration_s", "oracle.uniformizable_by_enumeration"),
    ("oracle.enumerate_multigraphs_s", "oracle.enumerate_multigraphs"),
)
DECIDE_SPANS = {
    "core.BidirectedGraph",
    "core.incidence",
    "convert.associated_signed",
    "convert.negate_signed",
    "balance.is_balanced",
    "balance.is_antibalanced",
    "uniform.uniformize",
}
EXPECTED_SPANS = {
    "uniformize_yes": DECIDE_SPANS
    | {"cli.run_command", "cli.parse", "core.build_graph", "uniform.reorient", "cli.serialize"},
    "uniformize_no": DECIDE_SPANS | {"cli.run_command", "cli.parse", "core.build_graph"},
    "sweep_small": DECIDE_SPANS
    | {"uniform.reorient", "oracle.uniformizable_by_enumeration", "oracle.enumerate_multigraphs"},
}
COUNTS = (
    "core.vertices",
    "core.edges",
    "cli.input_bytes",
    "cli.output_bytes",
    "balance.witness_edges",
    "uniform.reorient_edges",
    "sweep.graphs",
    "sweep.bidirections",
    "sweep.uniformizable",
)


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def load_library() -> None:
    """Import bisign from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bisign" / "__init__.py").is_file():
        raise BenchError(f"no bisign source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import bisign.cli

    if Path(bisign.__file__).resolve().parent != SRC / "bisign":
        raise BenchError(f"imported bisign from {bisign.__file__}, not {SRC}")


def check_pin(workload: str, seed: int, digest: str) -> None:
    pinned = inputs.PINNED_SHA256.get((workload, seed))
    if pinned is not None and pinned != digest:
        raise BenchError(
            f"{workload} input for seed {seed} has sha256 {digest}, pinned {pinned}"
        )


def measure_setup() -> tuple[float, float]:
    """Import time of bisign and bisign.cli in fresh interpreters, after one
    unmeasured start that fills the bytecode cache: the median of each
    import scaled by the reference timed in its own interpreter, and the
    unscaled median."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, ref = map(float, done.stdout.split())
        scaled.append(seconds * reference.SETUP_NOMINAL_S / ref)
        raw.append(seconds)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def settle() -> None:
    """Collect garbage, then freeze what survives (the benchmark's own
    inputs), so collections during a timed call see only the call's
    objects, as in a CLI process."""
    gc.collect()
    gc.freeze()


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "bisign").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    metrics = {}
    for metric, span in LAYERS:
        metrics[metric] = (tracer.self_seconds(span) / ops, "s")
        metrics[span + "_calls"] = (tracer.calls[span] / ops, "count")
    return metrics


def missing_spans(workload: str, tracer: Tracer) -> list[str]:
    return sorted(s for s in EXPECTED_SPANS[workload] if tracer.calls[s] == 0)


def run_cli(workload: str, seed: int, seconds: float, trace: bool):
    from bisign.cli import run_command

    yes = workload == "uniformize_yes"
    inst = inputs.bidirected_instance(seed, break_last=not yes)
    check_pin(workload, seed, inst.sha256)
    want_code = 0 if yes else 1
    argv = ["uniformize"]
    info = {"input_sha256": inst.sha256}

    def problem(code: int, out: str, err: str):
        if code != want_code:
            return f"exit code {code}, expected {want_code}: {err.strip()}"
        try:
            if yes:
                return verify.check_uniformizable(inst.pairs, inst.beta, inst.vertex_count, out)
            return verify.check_not_uniformizable(inst.pairs, inst.beta, out)
        except (ValueError, KeyError) as exc:
            return f"malformed output: {exc!r}"

    failures: list[str] = []
    seen: dict[str, object] = {}

    def record(result) -> None:
        """Check the first output in full; later ones must repeat it."""
        code, out, err = result
        digest = hashlib.sha256(out.encode()).hexdigest()
        if not seen:
            seen.update(digest=digest, code=code, bad=problem(code, out, err))
            bad = seen["bad"]
        elif (digest, code) == (seen["digest"], seen["code"]):
            bad = seen["bad"]
        else:
            bad = problem(code, out, err) or "output differs from the first call's"
        if bad:
            failures.append(bad)

    settle()
    if trace:
        first = run_command(argv, inst.text)
        record(first)
        tracer = Tracer()
        traced_call = tracer.wrap("cli.run_command", run_command)
        plain, traced = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or not traced:
            gc.collect()
            t0 = perf_counter()
            result = run_command(argv, inst.text)
            plain.append(perf_counter() - t0)
            record(result)
            with installed(tracer):
                gc.collect()
                t0 = perf_counter()
                result = traced_call(argv, inst.text)
                traced.append(perf_counter() - t0)
            record(result)
        missing = missing_spans(workload, tracer)
        if missing:
            raise BenchError(f"expected spans recorded no calls on {workload}: {missing}")
        out = first[1].split("\n")
        ids = len(out[1].split()) - (1 if yes else 2)
        counts = {
            "core.vertices": inst.vertex_count,
            "core.edges": len(inst.pairs),
            "cli.input_bytes": len(inst.text.encode()),
            "cli.output_bytes": len(first[1].encode()),
            "balance.witness_edges": 0 if yes else ids,
            "uniform.reorient_edges": ids if yes else 0,
        }
        metrics = layer_metrics(tracer, len(traced))
        metrics.update({k: (counts.get(k, 0), "count") for k in COUNTS})
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        attempted = 1 + len(plain) + len(traced)
    else:
        setup_s, info["setup_s_unscaled"] = measure_setup()
        gc.collect()
        tracemalloc.start()
        result = run_command(argv, inst.text)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        record(result)
        del result
        times, refs = [], [reference.cli_seconds(inst.text)]
        start = perf_counter()
        while perf_counter() - start < seconds or not times:
            gc.collect()
            t0 = perf_counter()
            result = run_command(argv, inst.text)
            times.append(perf_counter() - t0)
            record(result)
            del result
            refs.append(reference.cli_seconds(inst.text))
        # each call scaled by the mean of the reference samples either side
        scaled = [
            t * 2 * reference.CLI_NOMINAL_S / (a + b) for t, a, b in zip(times, refs, refs[1:])
        ]
        metrics = {
            "call_s_p50": (statistics.median(scaled), "s"),
            "checks_per_s": (len(scaled) / sum(scaled), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_mem_mb": (peak / 2**20, "MB"),
        }
        info["samples"] = len(times)
        info["call_s_unscaled"] = times
        # host factor > 1: the host ran slower than the nominal one
        info["host_factor"] = statistics.median(refs) / reference.CLI_NOMINAL_S
        attempted = 1 + len(times)
    info["output_sha256"] = seen["digest"]
    return attempted, failures, metrics, info


def sweep_inputs(seed: int):
    """Enumerate the graphs once, check the enumeration, and draw each
    graph's bidirections as Sign tuples and as +1 / -1 tuples."""
    from bisign.core import MINUS, PLUS
    from bisign.oracle import GraphEnumeration, enumerate_multigraphs

    spec = GraphEnumeration(inputs.SWEEP_MAX_VERTICES, inputs.SWEEP_MAX_EDGES)
    pair_signs = list(itertools.product((PLUS, MINUS), repeat=2))
    pair_ints = list(itertools.product((1, -1), repeat=2))
    codes, samples = {}, {}
    for g in enumerate_multigraphs(spec):
        n, edges = g.vertex_count, g.edges
        key = inputs.graph_key(n, edges)
        valid = (
            n <= spec.max_vertices
            and len(edges) <= spec.max_edges
            and list(edges) == sorted(edges)
            and all(0 <= u <= v < n for u, v in edges)
        )
        if not valid or key in codes:
            raise BenchError(f"enumeration yielded an invalid or repeated graph {key}")
        codes[key] = inputs.sweep_codes(seed, key, len(edges))
        samples[(n, edges)] = [
            (
                code,
                tuple(pair_signs[code >> 2 * e & 3] for e in range(len(edges))),
                tuple(pair_ints[code >> 2 * e & 3] for e in range(len(edges))),
            )
            for code in codes[key]
        ]
    if len(codes) != inputs.SWEEP_GRAPHS:
        raise BenchError(f"enumeration yielded {len(codes)} graphs, not {inputs.SWEEP_GRAPHS}")
    return spec, samples, inputs.sweep_sha256(codes)


def sweep_problem(n, pairs, beta, r, o, a):
    """Three-way agreement plus the certificate checks of each answer."""
    if not r.holds == (o is not None) == a.holds:
        return f"disagree: uniformize {r.holds}, oracle {o is not None}, antibalance {a.holds}"
    if r.holds:
        mu = [x.value for x in r.signature.mu]
        if len(mu) != n or r.uniform.graph.edges != pairs:
            return "certificate is not over the input graph"
        uniform = [(x.value, y.value) for x, y in r.uniform.beta]
        return (
            verify.uniform_problem(pairs, beta, r.reorient_set, uniform, mu)
            or verify.same_role_problem(n, pairs, beta, o)
            or verify.antibalance_signature_problem(
                n, pairs, beta, [x.value for x in a.signature.mu]
            )
        )
    return verify.breaks_antibalance(
        pairs, beta, r.witness.edges, r.witness.sign.value
    ) or verify.breaks_antibalance(pairs, beta, a.witness.edges, a.witness.sign.value)


def sweep_line(key, code, r, o, a) -> str:
    """The three answers and their certificates as one transcript line."""

    def ids(edges) -> str:
        return ",".join(map(str, edges))

    def verdict(signature, witness) -> str:
        if signature is not None:
            return "+ " + "".join(str(x) for x in signature.mu)
        return f"- {witness.sign} {ids(witness.edges)}"

    uniform = f"{ids(sorted(r.reorient_set))} " if r.holds else ""
    oracle = "none" if o is None else ids(sorted(o))
    return (
        f"{key} {code} U {uniform}{verdict(r.signature, r.witness)} "
        f"O {oracle} A {verdict(a.signature, a.witness)}\n"
    )


def library_batches(lib, spec, samples):
    """The library calls of a sweep pass: per enumerated graph, yield the
    graph and the answers (uniformize, oracle, antibalance) for each of its
    sampled bidirections."""
    BidirectedGraph = lib.BidirectedGraph
    uniformize = lib.uniformize
    oracle = lib.uniformizable_by_enumeration
    is_antibalanced = lib.is_antibalanced
    associated_signed = lib.associated_signed
    for g in lib.enumerate_multigraphs(spec):
        batch = []
        for _, beta, _ in samples[(g.vertex_count, g.edges)]:
            b = BidirectedGraph(g, beta)
            batch.append((uniformize(b), oracle(b), is_antibalanced(associated_signed(b))))
        yield g, batch


def sweep_pass(lib, spec, samples, failures: list[str]):
    """One pass over every graph; returns (timed seconds of each graph's
    batch, reference seconds, checks, digest, counts).  Only the library
    calls and the enumeration are timed; the reference kernel runs before
    every SWEEP_REF_EVERY-th graph and after the last."""
    digest = hashlib.sha256()
    counts = dict.fromkeys(COUNTS, 0)
    timed, refs = [], []
    checks = 0
    batches = library_batches(lib, spec, samples)
    while True:
        if len(timed) % SWEEP_REF_EVERY == 0:
            refs.append(reference.seconds(reference.dict_work, reference.SWEEP_KEYS))
        t = perf_counter()
        item = next(batches, None)
        timed.append(perf_counter() - t)
        if item is None:
            break
        g, batch = item
        n, pairs = g.vertex_count, g.edges
        key = inputs.graph_key(n, pairs)
        counts["sweep.graphs"] += 1
        counts["core.vertices"] += n
        counts["core.edges"] += len(pairs)
        for (code, _, beta), (r, o, a) in zip(samples[(n, pairs)], batch):
            checks += 1
            bad = sweep_problem(n, pairs, beta, r, o, a)
            if bad:
                failures.append(f"{key} code {code}: {bad}")
            digest.update(sweep_line(key, code, r, o, a).encode())
            if r.holds:
                counts["sweep.uniformizable"] += 1
                counts["uniform.reorient_edges"] += len(r.reorient_set)
            else:
                counts["balance.witness_edges"] += len(r.witness.edges)
    refs.append(reference.seconds(reference.dict_work, reference.SWEEP_KEYS))
    counts["sweep.bidirections"] = checks
    return timed, refs, checks, digest.hexdigest(), counts


def scaled_pass(timed, refs) -> float:
    """A pass's seconds, each run of SWEEP_REF_EVERY graphs scaled by the
    mean of the reference samples either side of it."""
    return sum(
        sum(timed[k * SWEEP_REF_EVERY : (k + 1) * SWEEP_REF_EVERY])
        * 2
        * reference.SWEEP_NOMINAL_S
        / (refs[k] + refs[k + 1])
        for k in range(len(refs) - 1)
    )


def run_sweep(workload: str, seed: int, seconds: float, trace: bool):
    from bisign.core import BidirectedGraph
    from bisign.convert import associated_signed
    from bisign.balance import is_antibalanced
    from bisign.oracle import enumerate_multigraphs, uniformizable_by_enumeration
    from bisign.uniform import uniformize

    spec, samples, input_digest = sweep_inputs(seed)
    check_pin(workload, seed, input_digest)
    lib = SimpleNamespace(
        BidirectedGraph=BidirectedGraph,
        uniformize=uniformize,
        uniformizable_by_enumeration=uniformizable_by_enumeration,
        is_antibalanced=is_antibalanced,
        associated_signed=associated_signed,
        enumerate_multigraphs=enumerate_multigraphs,
    )
    info = {"input_sha256": input_digest}
    failures: list[str] = []
    digests = set()
    attempted = 0

    def one_pass(lib):
        nonlocal attempted
        gc.collect()
        timed, refs, checks, digest, counts = sweep_pass(lib, spec, samples, failures)
        attempted += checks
        digests.add(digest)
        return timed, refs, checks, counts

    settle()
    if trace:
        counts = one_pass(lib)[3]
        tracer = Tracer()
        traced_lib = SimpleNamespace(
            BidirectedGraph=BidirectedGraph,
            uniformize=tracer.wrap("uniform.uniformize", uniformize),
            uniformizable_by_enumeration=tracer.wrap(
                "oracle.uniformizable_by_enumeration", uniformizable_by_enumeration
            ),
            is_antibalanced=tracer.wrap("balance.is_antibalanced", is_antibalanced),
            associated_signed=tracer.wrap("convert.associated_signed", associated_signed),
            enumerate_multigraphs=tracer.wrap_iter(
                "oracle.enumerate_multigraphs", enumerate_multigraphs
            ),
        )
        plain, traced = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or not traced:
            plain.append(sum(one_pass(lib)[0]))
            with installed(tracer):
                traced.append(sum(one_pass(traced_lib)[0]))
        missing = missing_spans(workload, tracer)
        if missing:
            raise BenchError(f"expected spans recorded no calls on {workload}: {missing}")
        metrics = layer_metrics(tracer, len(traced))
        metrics.update({k: (counts[k], "count") for k in COUNTS})
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
    else:
        setup_s, info["setup_s_unscaled"] = measure_setup()
        gc.collect()
        tracemalloc.start()
        for _ in library_batches(lib, spec, samples):
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        passes, scaled, hosts = [], [], []
        start = perf_counter()
        while perf_counter() - start < seconds or not passes:
            timed, refs, checks, _ = one_pass(lib)
            passes.append(sum(timed))
            scaled.append(scaled_pass(timed, refs))
            # host factor > 1: the host ran slower than the nominal one
            hosts.append(statistics.median(refs) / reference.SWEEP_NOMINAL_S)
        median_pass = statistics.median(scaled)
        metrics = {
            "call_s_p50": (median_pass / checks, "s"),
            "checks_per_s": (checks / median_pass, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_mem_mb": (peak / 2**20, "MB"),
        }
        info["samples"] = len(passes)
        info["call_s_unscaled"] = [t / checks for t in passes]
        info["host_factor"] = statistics.median(hosts)
    if len(digests) != 1:
        failures.append(f"sweep passes gave {len(digests)} different digests")
    info["output_sha256"] = sorted(digests)[0]
    return attempted, failures, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_library()
        run = run_cli if args.workload in CLI_WORKLOADS else run_sweep
        attempted, failures, metrics, info = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics["src.nonblank_lines"] = (src_lines(), "count")
    for reason in failures[:20]:
        print(f"FAIL {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {len(failures) / attempted} ratio ({len(failures)}/{attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
