import os

# One BLAS thread, set before numpy loads its BLAS: a search's winner and its
# step counts depend on the summation order, which follows the thread count.
# These are the pins of the benchmark harness.
os.environ.update(
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    BLIS_NUM_THREADS="1",
    VECLIB_MAXIMUM_THREADS="1",
    NUMEXPR_NUM_THREADS="1",
)

import numpy as np
import pytest

from zeropack import ComplexPolynomial


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_poly(rng, n: int, scale: float = 1.0) -> ComplexPolynomial:
    return ComplexPolynomial(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
