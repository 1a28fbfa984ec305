"""Mutation run: each mutant breaks the library in one place, and the tests
named beside it must catch it.

    python tests/mutants.py

For each mutant, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory and one snippet is replaced there.  The snippet must
occur exactly once in its file, so a refactor that removes or repeats it
fails here, and the table is updated with it.  The named tests then run on
the copy with ``-x -q`` and must fail; an unmutated copy must pass the same
tests.  Nothing is written into the checkout: bytecode and the pytest cache
are off, and hypothesis keeps its database in the copy.  Exits 0 when every
mutant is caught and the unmutated copy passes, 1 otherwise.

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINE_ROWS = "tests/test_cli.py::test_parse_errors_carry_line_numbers"
NEAR_CANONICAL = "tests/test_cli.py::test_bulk_parse_declines_near_canonical"

# (name, file under src/bisign, snippet, replacement, tests that must catch it)
MUTANTS = (
    (
        "is_balanced skips the last non-tree edge",
        "balance.py",
        "for e in nontree:",
        "for e in nontree[:-1]:",
        ["tests/test_acceptance.py::test_criterion_2_proposition1_equivalence"],
    ),
    (
        "the balance witness is signed +",
        "balance.py",
        "CycleWitness((e, *pv, *reversed(pu)), MINUS)",
        "CycleWitness((e, *pv, *reversed(pu)), PLUS)",
        ["tests/test_balance.py::test_agrees_with_oracle_small_exhaustive"],
    ),
    (
        r"\d for [0-9] in the bulk edge-line pattern",
        "cli.py",
        'line = r"[0-9]+[ \\t]+[0-9]+"',
        'line = r"\\d+[ \\t]+\\d+"',
        [
            LINE_ROWS + r"[signed 2 1\n0 \u0661 +\n-2]",
            LINE_ROWS + "[warm-fullwidth]",
            NEAR_CANONICAL + r"[bidirected 3 2\n0 1 + -\n1 \u0662 - +\n-error12]",
        ],
    ),
    (
        "the bulk parser does not check the edge count",
        "cli.py",
        "if len(pairs) != ecount:",
        "if False:",
        [NEAR_CANONICAL],
    ),
    (
        "the checker skips matched lines with an endpoint out of range",
        "cli.py",
        " if max(map(max, pairs), default=0) < vcount else 0",
        "",
        [NEAR_CANONICAL],
    ),
    (
        "the forest scans each vertex's half-edges in reverse",
        "core.py",
        "for h in incidence[u]:",
        "for h in reversed(incidence[u]):",
        ["tests/test_core.py::test_forest_matches_reference_bfs"],
    ),
    (
        "the forest caches the incidence on the graph",
        "core.py",
        "incidence = Graph.incidence.func(self)",
        "incidence = self.incidence",
        ["tests/test_core.py::test_forest_matches_reference_bfs"],
    ),
    (
        "odd antibalance witnesses are signed -",
        "balance.py",
        "CycleWitness(w.edges, PLUS))",
        "CycleWitness(w.edges, MINUS))",
        ["tests/test_balance.py::test_all_positive_triangle_not_antibalanced",
         "tests/test_balance.py::test_agrees_with_oracle_small_exhaustive"],
    ),
    (
        "the balance signature is reversed",
        "balance.py",
        "VertexSignature(tuple(mu))",
        "VertexSignature(tuple(mu[::-1]))",
        ["tests/test_balance.py::test_agrees_with_oracle_small_exhaustive",
         "tests/test_balance.py::test_matches_reference_on_every_small_labeling"],
    ),
    (
        r"the bulk edge lines have no \Z tail",
        "cli.py",
        r"(?:{0}\Z)?",
        r"(?:{0})?",
        [NEAR_CANONICAL + r"[bidirected 3 2\n0 1 + -\n1 2 - +x-error14]"],
    ),
    (
        "the bulk chunk repeat is one line short",
        "cli.py",
        "_EDGES.format(line, chunk)",
        "_EDGES.format(line, chunk - 1)",
        ["tests/test_cli.py::test_bulk_parse_chunk_boundaries"],
    ),
    (
        "the argparser is built per call",
        "cli.py",
        "@lru_cache(maxsize=1)",
        "",
        ["tests/test_cli.py::test_warm_calls_leave_no_cyclic_garbage"],
    ),
    (
        "the argparser build leaves its cycles to the next collection",
        "cli.py",
        "    gc.collect(0)\n",
        "",
        ["tests/test_cli.py::test_first_call_leaves_no_cyclic_garbage"],
    ),
    (
        "run_command leaves the collector paused",
        "cli.py",
        "if collecting:\n            gc.enable()",
        "if collecting:\n            pass",
        ["tests/test_cli.py::test_run_command_restores_the_collector_state"],
    ),
    (
        "the oracle imports bisign.balance",
        "oracle.py",
        "from .core import (",
        "from .balance import is_balanced\nfrom .core import (",
        ["tests/test_oracle.py::test_oracle_imports_only_core"],
    ),
    (
        "verify_signature checks the balance rule in both modes",
        "balance.py",
        'factor = PLUS if mode == "balance" else MINUS',
        "factor = PLUS",
        ["tests/test_balance.py::test_verify_signature_modes",
         "tests/test_balance.py::test_verify_signature_matches_the_formula_exhaustive"],
    ),
    (
        "is_uniform reads only the side-0 ends",
        "uniform.py",
        "zip(chain.from_iterable(b.graph.edges), chain.from_iterable(b.beta))",
        "zip((u for u, _ in b.graph.edges), (a for a, _ in b.beta))",
        ["tests/test_uniform.py::test_is_uniform_cases",
         "tests/test_uniform.py::test_vertex_role_matches_end_signs_exhaustive"],
    ),
    (
        "is_balanced reports every loop as a violation",
        "balance.py",
        "if (sigma[e] is PLUS) == (mu[u] is mu[v]):",
        "if u != v and (sigma[e] is PLUS) == (mu[u] is mu[v]):",
        ["tests/test_balance.py::test_positive_loop_never_violates",
         "tests/test_balance.py::test_agrees_with_oracle_small_exhaustive"],
    ),
    (
        "reorient flips a repeated id twice",
        "uniform.py",
        "for e in frozenset(edges):",
        "for e in list(edges):",
        ["tests/test_uniform.py::test_reorient_flips_both_ends"],
    ),
    (
        "value equality compares every field but the last",
        "core.py",
        "return self._values(self) == self._values(other)",
        "return self._values(self)[:-1] == self._values(other)[:-1]",
        ["tests/test_core.py::test_value_type_contract"],
    ),
    (
        "assigning a field stores the value",
        "core.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        ["tests/test_core.py::test_value_type_contract"],
    ),
    (
        "copy and pickle store the state past the constructor",
        "core.py",
        "self.__init__(*state)",
        "for name, value in zip(self.__match_args__, state):\n"
        "            object.__setattr__(self, name, value)",
        ["tests/test_core.py::test_rebuilding_checks_the_state_like_the_constructor"],
    ),
    (
        "output rows are cut at one block",
        "cli.py",
        'return "".join(iter(lambda: "".join(islice(rows, _BLOCK)), ""))',
        'return "".join(islice(rows, _BLOCK))',
        # more than _BLOCK (4,096) rows
        ["tests/test_cli.py::test_output_blocks_match_one_join[4097]"],
    ),
    (
        "vertex_role calls an all-+ vertex a source",
        "uniform.py",
        "return VertexRole.SINK",
        "return VertexRole.SOURCE",
        # the assertion fails in a worker process and is raised again in the parent
        ["tests/test_acceptance.py::test_criterion_4_theorem2_exhaustive"],
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tree: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory(prefix="bisign-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        copy_tree(base)
        tests = list(dict.fromkeys(t for *_, named in MUTANTS for t in named))
        done = run_tests(base, tests)
        if done.returncode != 0:
            print(f"FAIL unmutated copy: exit {done.returncode}\n{done.stdout}{done.stderr}")
            ok = False
        for i, (name, file, snippet, replacement, named) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{i}"
            copy_tree(tree)
            path = tree / "src" / "bisign" / file
            text = path.read_text()
            if text.count(snippet) != 1:
                print(f"FAIL {name}: snippet occurs {text.count(snippet)} times in {file}")
                ok = False
                continue
            path.write_text(text.replace(snippet, replacement))
            done = run_tests(tree, named)
            # exit 1 is a failed test; anything else (2-5) is a broken run
            if done.returncode == 1:
                print(f"caught {name}")
            else:
                print(f"FAIL {name}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
