import mpmath
import pytest


@pytest.fixture(autouse=True)
def mp_precision():
    """Every test runs mpmath at 40 digits; a test that needs more opens its
    own ``workdps`` block."""
    with mpmath.workdps(40):
        yield
