"""Machine-speed yardstick: a fixed job shaped like a CLI call's start-up.

It starts a fresh interpreter, imports the standard-library modules the
CLI imports, parses arguments, defines a frozen dataclass, and builds,
walks and serializes a small tree, all without touching the package under test.  The benchmark runs
it after every workload call; the median wall time over a run measures
how fast this machine ran processes during that run.
"""

import argparse
import csv
import io
import json
import random
import re
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Entry:
    key: tuple
    text: str


def main() -> None:
    argparse.ArgumentParser().parse_args()
    n = 3000
    rng = random.Random(0)
    parent = [0] + [rng.randrange(v) for v in range(1, n)]
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        adj[v].append(parent[v])
        adj[parent[v]].append(v)
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                queue.append(w)
    entries = sorted(Entry((d, v), str(v)) for v, d in enumerate(dist))
    words = re.compile(r"[\s,]+").split(" ".join(e.text for e in entries))
    json.dumps({"n": n, "edges": [[parent[v], v] for v in range(1, n)], "words": len(words)})
    csv.writer(io.StringIO()).writerow(words[:10])


if __name__ == "__main__":
    main()
