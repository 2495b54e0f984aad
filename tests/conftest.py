import os
import sys
from pathlib import Path

import numpy as np
import pytest

# The package from this checkout, for the tests and for the `python -m hadcert`
# children they start, so that a bare `pytest` needs no install.
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
