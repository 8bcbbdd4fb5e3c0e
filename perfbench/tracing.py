"""Per-layer spans for the traced run, recorded from outside phasebath.

Each traced public function is replaced, in every phasebath module that
binds it, by a wrapper that times the call.  A span's self time is its
duration minus the durations of the traced spans nested inside it.
`FockDensityMatrix` is traced at `__init__`, which covers construction and
its validation.  Nothing is wrapped outside `Tracer.installed()`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

#: (module, public name) pairs traced, under the layer names of the phasebath modules
TRACED = (
    ("cli", "run"),
    ("states", "fock_density"),
    ("states", "initial_p_function"),
    ("fock", "FockDensityMatrix"),
    ("fock", "displacement_matrix"),
    ("fock", "squeeze_matrix"),
    ("evolution", "evolve_p_closed_form"),
    ("evolution", "evolved_moments"),
    ("descriptors", "evaluate_p"),
    ("descriptors", "rescale_zero_temperature"),
    ("quasiprob", "p_to_q_grid"),
    ("quasiprob", "wigner_from_characteristic"),
    ("quasiprob", "characteristic_function"),
    ("core", "u_series"),
    ("quadrature", "gauss_legendre_nodes"),
    ("lindblad", "integrate"),
    ("lindblad", "moments_from_rho"),
)


#: traced function whose requested node count is summed as `<name>.nodes`
NODE_COUNTED = "quadrature.gauss_legendre_nodes"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[list[float]] = []  # child time of each open span

    def _wrap(self, name: str, fn):
        count_nodes = name == NODE_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_nodes:
                self.counts[f"{name}.nodes"] += int(kwargs["n"] if "n" in kwargs else args[2])
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._open.pop()
                self.calls[name] += 1
                self.self_seconds[name] += duration - children[0]
                if self._open:
                    self._open[-1][0] += duration

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name wherever a loaded phasebath module binds it."""
        restore = []
        modules = [m for n, m in sys.modules.items() if n == "phasebath" or n.startswith("phasebath.")]
        try:
            for module_name, attr in TRACED:
                name = f"{module_name}.{attr}"
                original = getattr(sys.modules[f"phasebath.{module_name}"], attr)
                if isinstance(original, type):
                    init = original.__init__
                    original.__init__ = self._wrap(name, init)
                    restore.append((original, "__init__", init))
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            restore.append((module, key, original))
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)
