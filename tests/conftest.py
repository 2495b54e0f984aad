import ctypes
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


def _blas_core():
    """The name of the kernel numpy's bundled OpenBLAS picked at run time
    (OPENBLAS_CORETYPE overrides it), or None for another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
        corename = getattr(lib, name, None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


BLAS_CORE = _blas_core()

# The OpenBLAS kernels sum a gemm in different orders, so the frozen float
# bits are recorded per kernel. These kernels gave the bits of the one they
# map to: Cooperlake and SapphireRapids those of SkylakeX in every frozen
# test, and Zen runs on the Haswell kernels.
SAME_BITS = {"Cooperlake": "SkylakeX", "SapphireRapids": "SkylakeX", "Zen": "Haswell"}


@pytest.fixture
def frozen():
    """check(digests, digest): digest equals the one recorded in digests for
    this OpenBLAS kernel. On a kernel with none recorded, the test is skipped
    with the kernel's name; call check after every other assertion."""
    def check(digests, digest):
        want = digests.get(SAME_BITS.get(BLAS_CORE, BLAS_CORE))
        if want is None:
            pytest.skip(f"no digest recorded for the BLAS kernel {BLAS_CORE}")
        assert digest == want

    return check
