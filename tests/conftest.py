"""Let the CLI subprocesses some tests start import qsw from src/, as the suite itself does.

Also the matvecs fixture, which counts sparse matrix-vector products from
outside qsw, the traced_peak fixture, which measures the memory a call
allocates, and a time limit on every test.
"""

import os
import signal
import tracemalloc
from pathlib import Path

import pytest
import scipy.sparse

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# The slowest test takes a few seconds. A refusal that regresses into a
# runaway kernel then fails its own test instead of hanging the suite.
TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail any test that runs longer than TEST_TIME_LIMIT_S seconds of wall time."""

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def matvecs(monkeypatch):
    """A list that grows by one entry per sparse matrix-vector product made while the test runs.

    A product with a block of vectors, as scipy's norm estimators make,
    adds one entry per column. CSR and CSC matrices are both counted, so a
    product with a transpose is seen too.
    """
    calls = []

    def counting(product, columns):
        def counted(matrix, other):
            calls.extend([matrix.shape] * columns(other))
            return product(matrix, other)

        return counted

    for cls in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix):
        monkeypatch.setattr(cls, "_matmul_vector", counting(cls._matmul_vector, lambda vector: 1))
        monkeypatch.setattr(cls, "_matmul_multivector", counting(cls._matmul_multivector, lambda block: block.shape[1]))
    return calls


@pytest.fixture
def traced_peak():
    """A function that calls fn() and returns its result with the peak bytes tracemalloc saw it hold.

    numpy and scipy.sparse arrays are traced, so the peak covers their
    buffers. It is measured from the bytes already held when fn starts.
    """

    def measure(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return measure
