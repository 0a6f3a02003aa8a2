"""Ramsey-Turan construction lab: sphere geometry, Bollobas-Erdos-type
graph builders, exact clique analytics, and weighted-graph certificates."""

import os

# OpenBLAS reads this when numpy loads it, so it must be set before any rtlab
# module imports numpy.  The shortest timeout sends an idle BLAS worker to
# sleep at once instead of spinning on sched_yield after each threaded call;
# it changes how the worker waits, not the thread count or any arithmetic.
# A value the caller has set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"
