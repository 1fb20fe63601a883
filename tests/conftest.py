import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run every test at one OpenBLAS thread, the count the CLI computes at,
    so a test's floats do not depend on the host's default thread count."""
    from nextsession.evaluator import blas_thread_limits

    with blas_thread_limits(1):
        yield
