import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from xorcast.gf2 import rref_insert


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


def span_of_rows(rows) -> frozenset[int]:
    """All 2^r vectors spanned by the rows, zero included, by enumeration: the
    reference the span-mask code is checked against."""
    span = {0}
    for row in rows:
        span |= {x ^ row for x in span}
    return frozenset(span)


def fold_rows(vectors) -> tuple[int, ...]:
    """The RREF row tuple of the span of vectors, folded through rref_insert."""
    rows = ()
    for v in vectors:
        rows = rref_insert(rows, v) or rows
    return rows


def random_rows(k: int, rank: int, rng: random.Random) -> tuple[int, ...]:
    """RREF rows of exactly the requested rank, from random nonzero inserts."""
    rows = ()
    while len(rows) < rank:
        rows = rref_insert(rows, rng.randrange(1, 1 << k)) or rows
    return rows


def random_state(k: int, ranks, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """One random_rows tuple per rank, drawn in order."""
    return tuple(random_rows(k, r, rng) for r in ranks)


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter on this checkout's src, with XORCAST_THREADS
    unset; returns its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("XORCAST_THREADS", None)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def run_measuring_peak(code: str) -> tuple[list[str], float]:
    """Run code in a fresh interpreter (run_fresh); returns its stdout words and
    its peak resident memory in MB. Linux carries the spawning process's peak
    into a child's ru_maxrss, so the child reports the peak of its own image
    (VmHWM) where /proc has it."""
    code += ("\nimport resource\n"
             "try:\n"
             "    print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
             "except OSError:\n"
             "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    *words, max_rss_kib = run_fresh(code).split()
    return words, int(max_rss_kib) / 1024
