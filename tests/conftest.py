import numpy as np
import pytest


@pytest.fixture(scope="session")
def champernowne_positions():
    """digit -> its 1-based positions in 0.123456789101112..., read off the
    concatenated decimal strings of 1..299 999 (over 1e5 of each digit),
    independently of `udortho.udsg`."""
    text = "".join(str(n) for n in range(1, 300_000))
    digits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
    return {t: 1 + np.flatnonzero(digits == t) for t in range(10)}
