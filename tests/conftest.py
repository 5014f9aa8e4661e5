"""Let the CLI subprocesses some tests start import qsw from src/, as the suite itself does.

Also the matvecs fixture, which counts CSR matrix-vector products from
outside qsw.
"""

import os
from pathlib import Path

import pytest
import scipy.sparse

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def matvecs(monkeypatch):
    """A list that grows by one entry per csr_matrix-vector product made while the test runs."""
    calls = []
    product = scipy.sparse.csr_matrix._matmul_vector

    def counted(matrix, vector):
        calls.append(matrix.shape)
        return product(matrix, vector)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "_matmul_vector", counted)
    return calls
