"""Host-speed index: a fixed kernel that does not touch maxdep, timed often.

The machines this benchmark runs on share their cores with other tenants, and
their speed drifts by up to 1.7x over minutes: the same round of `tables`
took 1.55 s in one minute and 2.7 s a few minutes later, with CPU time
tracking wall time, so the process runs slower rather than waiting.  A run
cannot average that away.  So the worker times this kernel alongside every
round, and the round's wall and CPU times are reported scaled to the
kernel's reference time:

    scaled = measured * KERNEL_REF_S / (mean kernel wall or CPU time in the round)

On a host as quiet as the one KERNEL_REF_S was taken on, scaled equals
measured.  The raw times are kept in bench/out/result-*.json.

The kernel mixes what the workloads do: interpreted Python (a JSON round trip
of small dicts), a memory-bound numpy sort and vectorized transcendental
math.  It takes about 26 ms.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

# median kernel time on the reference host (2-vCPU KVM guest, Xeon model 207)
KERNEL_REF_S = 0.026

_rnd = random.Random(1)
_BLOB = [{"a": _rnd.random(), "b": [_rnd.random() for _ in range(20)], "c": str(i)} for i in range(400)]
_BIG = np.random.default_rng(1).random(400_000)


def kernel_time() -> tuple[float, float]:
    """Wall and CPU time of one pass of the fixed kernel."""
    c0, t0 = time.process_time(), time.perf_counter()
    json.loads(json.dumps(_BLOB))
    np.sort(_BIG)
    np.exp(-_BIG).sum()
    return time.perf_counter() - t0, time.process_time() - c0


def scale(measured: float, kernel_times: list[float]) -> float:
    """measured, rescaled to the reference host speed."""
    return measured * KERNEL_REF_S * len(kernel_times) / sum(kernel_times)
