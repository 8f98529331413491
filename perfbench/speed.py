"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a shared host whose speed moves under it.  For
interpreter-bound code the host flips between a fast and a slow state, about
1.7x apart, which last for seconds to minutes (seen on a 2-vCPU
"Intel(R) Xeon(R) Processor" VM; thread CPU time moves with wall time, so
the loss is in the core's speed, not in descheduling).  A run of half a
minute cannot average that away, and raw pass times of one workload spread
by 13 to 30 % across seeds.

So every pass times a fixed pure-Python kernel between its ops, and each
time metric is scaled to a reference host speed:

    scaled = raw * (REF_KERNEL_NS / kernel_ns) ** ELASTICITY

`kernel_ns` is the median kernel time over the pass (or over set-up).
`REF_KERNEL_NS` is the kernel's time on that VM in its fast state.
`ELASTICITY` is how strongly a pass's time follows the kernel's as the
host's speed changes, d ln T / d ln kernel_ns.  Fitted per workload across
30 to 140 passes on that VM, it came out between 0.3 and 0.8 (numpy-bound
work slows less than the interpreter), with wide error bars; one value for
all three workloads gave the steadiest medians across seeds.

The kernel runs none of the package's code, so a change to the package
moves scaled figures in the same proportion as raw ones.  Raw figures are
printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

REF_KERNEL_NS = 110_000
ELASTICITY = 0.7
KERNEL_EVERY = 4  # ops between two kernel timings within a pass
WARM_KERNELS = 20


def kernel():
    """A fixed interpreter-bound loop: integer arithmetic and dict stores."""
    table = {}
    x = 12345
    for i in range(400):
        x = (x * 48271 + i) % 2147483647
        table[x & 1023] = i
    return x


def kernel_ns():
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def warm():
    for _ in range(WARM_KERNELS):
        kernel_ns()


def median_kernel_ns(count):
    return statistics.median(kernel_ns() for _ in range(count))


def scale(kernel_time_ns):
    """Factor that takes a raw time to the reference speed."""
    return (REF_KERNEL_NS / kernel_time_ns) ** ELASTICITY
