"""How fast the host runs a fixed piece of work right now.

The benchmark's host is shared: the same work can take up to 1.9 times
longer for seconds or minutes at a time (bench/README.md, *Method and
limits*). Each timing is therefore taken between two readings of
``reference()``, and reported in reference seconds: the measured seconds
times ``REF_S`` over the geometric mean of the two readings. A change to
the program does not change ``reference()``, so at a given host speed it
moves reference seconds by the same factor as wall seconds; what a slow
spell of the host adds to both mostly cancels.

The reference mixes the kinds of work the program does: Python control
flow, allocation of small objects, LAPACK on a small matrix, and row
operations on a 514 x 600 tableau (2.5 MB).
"""

from __future__ import annotations

import time

import numpy as np

# a fixed scale, about one reading on an unloaded 2-vCPU Intel Xeon guest
# with one BLAS thread
REF_S = 1.4e-3

# bound at import, before bench/tracing.py wraps numpy.linalg.svd, so that a
# reading taken during a traced run does not count as the program's SVDs
_svd = np.linalg.svd
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(size=(80, 80))
_TABLEAU = _RNG.uniform(1.0, 2.0, size=(514, 600))


def _loop() -> None:
    total, table = 0, {}
    for i in range(3000):
        total += i * i
        table[i & 255] = total


def _allocate() -> None:
    rows = [{"a": i, "b": [i, i + 1], "c": (i,)} for i in range(2000)]
    del rows


def _lapack() -> None:
    _svd(_MATRIX)


def _row_operations() -> None:
    tableau = _TABLEAU.copy()
    for row in (3, 200, 411):
        pivot = tableau[row] / tableau[row, row]
        tableau -= np.outer(tableau[:, row] * 1e-3, pivot)


def _trimmed_mean(kernel, repeats: int) -> float:
    """Mean seconds of one call over the middle half of ``repeats`` calls, so
    that an interrupt does not count."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    middle = times[repeats // 4: repeats - repeats // 4]
    return sum(middle) / len(middle)


def reference() -> float:
    """Geometric mean of the four kernels' times, in seconds; one reading
    takes about 0.2 s."""
    kernels = ((_loop, 100), (_allocate, 40), (_lapack, 40), (_row_operations, 12))
    product = 1.0
    for kernel, repeats in kernels:
        product *= _trimmed_mean(kernel, repeats)
    return product ** (1 / len(kernels))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between readings ``before`` and ``after``, in
    reference seconds."""
    return seconds * REF_S / (before * after) ** 0.5
