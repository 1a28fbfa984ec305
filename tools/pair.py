"""Paired benchmark runs: a base revision against this checkout.

    python tools/pair.py --base REV --workload NAME [--seed N] [--pairs K]
                         [--seconds S] [--label L] [--out-dir DIR]
    python tools/pair.py --base REV --pytest NODEID [--pairs K]
                         [--label L] [--out-dir DIR]

``REV`` is extracted with ``git archive REV | tar -x`` into a temporary
directory, so it needs only the local object store.  Each pair runs
``BENCHMARK.json``'s ``command`` once in the base tree and once in this
checkout (working tree as it is), with ``sys.executable`` for ``python3``;
the side that goes first alternates from pair to pair.

Every run must exit 0, report ``correct`` and print the same
``output_sha256`` as every other run; otherwise nothing is written and the
exit code is 1.  The result goes to ``DIR/BENCH_L.json`` (default: this
checkout's root).  That file holds one row per workload and seed: each
run's metrics, and per metric the two sides' medians and quartiles and the
number of pairs the change won, judged by the metric's ``better`` direction
in ``BENCHMARK.json``.  The row's ``change`` record names the checkout's
commit, whether its tracked files differ from it, and what measured it:
``sys.version``, ``platform.machine()`` and ``os.cpu_count()``.  A row for
another workload or seed already in the file is kept, so one file can
gather several rows against one base.  An ``--out-dir`` that is not a
directory, or a ``BENCH_L.json`` there that compares against another base,
exits 1 before the first run.

With ``--pytest NODEID`` each run is instead
``python -m pytest -q -p no:cacheprovider NODEID`` in the tree, with
``sys.executable`` and ``PYTHONPATH`` set to the tree's ``src``.  Every run
must pass.  Its wall-clock time is the row's one metric, ``wall_s`` (better
lower), and the row's ``workload`` is the node id, with no seed.

After the file, one line per end-to-end metric (or ``wall_s``) goes to stdout:

    peak_mem_mb: base 26.0772 [26.0771, 26.0772] change 24.0128 [24.0127, 24.0129] \
        delta -7.92 % wins 10/10 claim holds

that is, each side's median [q1, q3], the change in the median, and the
pairs the change won.  The claim holds when there are at least ten pairs,
the change won at least nine pairs in ten, and its median is better than
the base's by more than the base's q3 - q1; with fewer pairs it fails.

SIGTERM stops the runner like an exception: the running benchmark is
killed, the base tree's temporary directory is removed, and nothing is
written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"pair: could not extract {rev}")


def run_once(command: list[str], tree: Path, args) -> dict:
    """One benchmark run in ``tree``: its result line plus output digest."""
    cmd = command + ["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digests = [json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("output_sha256 ")]
    if proc.returncode or not lines or len(digests) != 1:
        raise SystemExit(f"pair: run in {tree} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"pair: run in {tree} is not correct:\n{proc.stdout}{proc.stderr}")
    return {"output_sha256": digests[0], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_pytest(command: list[str], tree: Path) -> dict:
    """One test run in ``tree`` against its own ``src``: its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    wall = time.perf_counter() - start
    if proc.returncode:
        raise SystemExit(f"pair: {command[-1]} in {tree} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    return {"summary": proc.stdout.splitlines()[-1], "metrics": {"wall_s": wall}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles and the change's wins over pairs."""
    out = {}
    for name in runs[0]["base"]["metrics"]:
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = -1 if better[name] == "lower" else 1
        out[name] = {
            "better": better[name],
            "base": summary(base),
            "change": summary(change),
            "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(runs),
        }
    return out


def claim_line(name: str, m: dict) -> str:
    """The summary line of one metric's comparison (see the module doc)."""
    base, change = m["base"], m["change"]
    gain = (change["median"] - base["median"]) * (-1 if m["better"] == "lower" else 1)
    holds = (m["pairs"] >= 10 and 10 * m["change_wins"] >= 9 * m["pairs"]
             and gain > base["q3"] - base["q1"])
    return (f"{name}: base {base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}]"
            f" change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]"
            f" delta {100 * (change['median'] / base['median'] - 1):+.2f} %"
            f" wins {m['change_wins']}/{m['pairs']}"
            f" claim {'holds' if holds else 'fails'}")


def terminate(signum, frame):
    # SystemExit unwinds through the TemporaryDirectory cleanup, which a
    # plain SIGTERM would skip
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    what.add_argument("--pytest", metavar="NODEID")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--label", default="pair")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.pytest:
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", args.pytest]
        better["wall_s"] = "lower"
        shown, key, seconds = ["wall_s"], (args.pytest, None), None
    else:
        command = [sys.executable if c == "python3" else c for c in spec["command"]]
        shown = [m["name"] for m in spec["end_to_end"]]
        key, seconds = (args.workload, args.seed), args.seconds
    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    # a bad output file is found before the runs, not after them
    if not args.out_dir.is_dir():
        print(f"pair: {args.out_dir} is not a directory; nothing run", file=sys.stderr)
        return 1
    path = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"base": base_sha, "rows": []}
    if doc["base"] != base_sha:
        print(f"pair: {path} compares against {doc['base']}, not {base_sha}; "
              "nothing run", file=sys.stderr)
        return 1
    runs = []
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        base_tree = Path(tmp)
        extract(base_sha, base_tree)
        for i in range(args.pairs):
            sides = [("base", base_tree), ("change", ROOT)]
            pair = {"first": sides[i % 2][0]}
            for side, tree in sides[i % 2:] + sides[:i % 2]:
                pair[side] = (run_pytest(command, tree) if args.pytest
                              else run_once(command, tree, args))
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
            runs.append(pair)
    # a test run has no output digest
    digests = {r[side].get("output_sha256") for r in runs for side in ("base", "change")}
    if len(digests) != 1:
        print(f"pair: output digests differ: {sorted(digests)}; nothing written",
              file=sys.stderr)
        return 1
    change = {"head": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "python": sys.version, "machine": platform.machine(),
              "cpus": os.cpu_count()}
    row = {"workload": key[0], "seed": key[1], "seconds": seconds,
           "change": change,
           "command": command[1:], "output_sha256": digests.pop(),
           "metrics": compare(runs, better), "runs": runs}
    doc["rows"] = [r for r in doc["rows"]
                   if (r["workload"], r["seed"]) != key]
    doc["rows"].append(row)
    doc["rows"].sort(key=lambda r: (r["workload"], r["seed"]))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    for name in shown:
        print(claim_line(name, row["metrics"][name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
