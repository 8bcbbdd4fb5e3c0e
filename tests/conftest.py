"""Test-session set-up that must run before numpy is imported.

BLAS runs the small dense products of the tests on one thread: with its
default thread count on a small machine, handing work between threads costs
more than the products themselves.  setdefault keeps a count that the caller
sets explicitly.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("tests/conftest.py must run before numpy is imported")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
