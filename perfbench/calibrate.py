"""A fixed unit of work that shows how fast the host runs at the moment.

A timed run starts this script in a child process before each of the
program's invocations.  The work never changes, so on a host of steady
speed its least time in a run is steady too; when other tenants slow
the host for a minute or two, it slows with the program.  ``run.py``
scales the run's times by ``REFERENCE_S`` over that least time.

The mix follows the program's: interpreter start-up and a numpy import,
array sorts and scans like the cache kernels', a dict-heavy Python loop
like the predictors', and parsing and walking syntax trees like the
linter's.
"""

import ast

import numpy as np

#: About the least time of this script, spawn to exit, on a quiet
#: 2-vCPU host (the host in README.md).
REFERENCE_S = 0.4

SOURCE = "\n".join(
    f"def f{i}(a, b=3):\n"
    f"    x = [a * k for k in range(b)]\n"
    f"    if x and a > {i}:\n"
    f"        return {{'k': x, 'i': {i}}}\n"
    f"    return sum(x) + {i}\n"
    for i in range(300)
)


def work() -> int:
    return arrays() + loops() + trees()


def trees() -> int:
    nodes = 0
    for _ in range(4):
        tree = ast.parse(SOURCE)
        nodes += sum(isinstance(node, ast.Name) for node in ast.walk(tree))
    return nodes


def arrays() -> int:
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 30, 200_000)
    total = 0
    for _ in range(4):
        sets = (words >> 6) & 4095
        order = np.argsort(sets, kind="stable")
        total += int(np.cumsum(words[order] & 1023)[-1]) + len(np.unique(sets))
    return total


def loops() -> int:
    counts: dict[int, int] = {}
    for i in range(400_000):
        key = (i * 2654435761) & 8191
        counts[key] = counts.get(key, 0) + (i & 7)
    return len(counts)


if __name__ == "__main__":
    work()
