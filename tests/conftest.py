import os
import sys

import numpy as np
import pytest

import noisetrans.autodiff as ad

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def f64():
    """Every test starts and ends with float64 as the default tensor dtype."""
    ad.set_default_dtype(np.float64)
    yield
    ad.set_default_dtype(np.float64)
