import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "gamebox",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("gamebox")


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
