"""Host-speed reference: a fixed piece of CPU work timed next to each
batch run, so that batch wall times can be put on one host speed.

On a share of a busy host, the speed of the same code drifts by tens of
percent over minutes (CPU steal, contention from other tenants), and a
whole benchmark run can fall inside a slow or a fast phase.  The
reference does the kinds of work the two workloads do, in this process
and with no call into the program, so a change to the program cannot
move it: what the HTML/PDF kernels do (string building, regex matching,
zlib, dict updates) and what the done set does (a 200k-url set built,
pickled, unpickled and probed, which is memory-bound).  Timed around the
same batch runs, the memory-bound part alone tracked the done-set
workload's wall times better than the CPU-bound part, and the sum of
both tracked both workloads.  A batch run's wall time ``w`` with
references ``r`` timed just before and just after it is rescaled to
``w * NOMINAL_S / mean(r)``: the wall time on a host where the
reference takes ``NOMINAL_S`` seconds.
"""

from __future__ import annotations

import pickle
import re
import time
import zlib

# the reference's median time on the host the benchmark was tuned on
# (a one-core share of a 4-vCPU Xeon VM at 2.0 GHz)
NOMINAL_S = 0.5

_TEXT = " ".join(f"word{i % 977} <p class='x{i % 13}'>text {i}</p>"
                 for i in range(20000)).encode()
_TAG = re.compile(rb"<p class='(x\d+)'>([^<]*)</p>")


def reference() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    urls = [f"https://h{i % 1000}.example/p/{i * 7919}" for i in range(60000)]
    done = frozenset(urls)
    hits = sum(1 for u in urls[::3] if u in done)
    tags = len(_TAG.findall(_TEXT))
    packed = len(zlib.compress(_TEXT, 6))
    counts: dict = {}
    for i in range(100000):
        counts[i % 5000] = counts.get(i % 5000, 0) + i
    many = [f"https://h{i % 1000}.example/p/{i * 7919}/{i}" for i in range(200000)]
    copy = pickle.loads(pickle.dumps(frozenset(many)))
    found = sum(1 for u in many[::7] if u in copy)
    elapsed = time.perf_counter() - t0
    assert (hits, tags, len(counts), found) == (20000, 20000, 5000, 28572)
    assert packed > 0
    return elapsed
