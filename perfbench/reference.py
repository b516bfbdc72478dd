"""A fixed reference loop that converts wall time to reference seconds.

Other tenants of a shared host slow every process on a core down together,
for stretches of seconds to minutes.  Dividing a job's wall time by the time
of this loop, measured right before and after the job, cancels that slowdown;
multiplying by REFERENCE_S, the loop's time on an idle core of the machine
the benchmark was tuned on, turns the ratio back into seconds.  The loop mixes
interpreter work, small matrix products and a reduction over an array larger
than the L1 cache, like the fbl jobs it calibrates.
"""

import time

import numpy as np

# best of 3000 runs of the loop on a 2-vCPU Intel Xeon VM
REFERENCE_S = 1.0e-3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_Z = _rng.standard_normal((256, 8, 64))


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    for _ in range(20):
        _A @ _A
    for _ in range(5):
        s += float(np.abs(_Z).sum(axis=1).max())
    return time.perf_counter() - t0


def reference_time() -> float:
    """Wall time of the reference loop, in seconds.

    The loop runs twice and the faster run counts, so that a job that has
    just evicted the loop's arrays from the caches does not inflate it.
    """
    return min(_loop(), _loop())
