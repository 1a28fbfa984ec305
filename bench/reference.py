"""Host-speed reference for the benchmark's timings.

The benchmark runs on a shared host whose speed for the same pure-Python
work moves by up to 1.8x within a minute, on a scale of seconds to tens of
seconds (a fixed loop read 0.092-0.164 s within one minute on a 2-vCPU
Xeon VM at 2.0 GHz).  A median over one run cannot remove that drift, so
each run also times fixed reference kernels, interleaved with the
operations it measures, and reports every time scaled to a host on which
the kernels take their nominal time:

    scaled seconds = measured seconds * nominal / reference seconds

The kernels are the benchmark's own code and call nothing in the library,
so a change to the library moves the measured time and not the reference.
They do the kind of work the measured operations do: parsing an edge list,
a breadth-first parity labeling, and building a large dict of tuples and
strings.  In 15-second windows of a 9-minute recording of
``uniformize_no`` calls, the median call time spread 0.31 (quartile
distance over median, across windows) and the scaled time 0.06; in a
6-minute recording of sweep passes, 0.12 and 0.014.

The nominal times are the kernels' medians on the host above, Python 3.11;
only the ratio between runs matters, not the constants.
"""

from __future__ import annotations

import gc
from collections import deque
from time import perf_counter

# seconds on the nominal host for: graph_work on a workload input plus
# dict_work(CLI_KEYS); dict_work(SWEEP_KEYS); dict_work(SETUP_KEYS)
CLI_KEYS, CLI_NOMINAL_S = 150_000, 0.60
SWEEP_KEYS, SWEEP_NOMINAL_S = 6_000, 0.0032
SETUP_KEYS, SETUP_NOMINAL_S = 30_000, 0.023


def dict_work(keys: int) -> int:
    """Fill a dict with ``keys`` scattered int keys mapping to tuples that
    hold a fresh string, then walk it."""
    d = {}
    for i in range(keys):
        d[(i * 2654435761) & 0xFFFFFF] = (i, str(i))
    return sum(len(v[1]) for v in d.values())


def graph_work(text: str) -> int:
    """Parse a ``bidirected`` document into adjacency lists and label every
    vertex by breadth-first search with the parity of its path's end signs;
    returns the number of non-tree edges whose parity disagrees."""
    lines = text.split("\n")
    n = int(lines[0].split()[1])
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for line in lines[1:]:
        if line:
            u, v, a, b = line.split()
            u, v, same = int(u), int(v), a == b
            adj[u].append((v, same))
            adj[v].append((u, same))
    label: list = [None] * n
    bad = 0
    for root in range(n):
        if label[root] is not None:
            continue
        label[root] = False
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, same in adj[x]:
                want = label[x] ^ same
                if label[y] is None:
                    label[y] = want
                    queue.append(y)
                elif label[y] != want:
                    bad += 1
    return bad


def seconds(fn, *args) -> float:
    """Time one kernel call after a collection, as the measured calls are."""
    gc.collect()
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def cli_seconds(text: str) -> float:
    """One reference sample beside a ``run_command`` call on ``text``."""
    return seconds(graph_work, text) + seconds(dict_work, CLI_KEYS)
