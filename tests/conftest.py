import numpy as np
import pytest
from hypothesis import settings

# Property tests run the same examples on every run, few enough that the
# suite stays deterministic and fast; no example database is written.
settings.register_profile("tier1", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
