import sys
from pathlib import Path

import pytest

from ringlat import make_ring
from ringlat.verify import run_all

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def verify_results():
    """One run of the consistency suite, shared by the tests that read it."""
    return run_all()


@pytest.fixture
def ring8():
    return make_ring(8)


@pytest.fixture
def ring4():
    return make_ring(4)


def omega_for(ring, omega_k_over_t: float) -> float:
    """Drive frequency realizing a given dimensionless omega*K/t."""
    return omega_k_over_t * ring.t / ring.k_factor
