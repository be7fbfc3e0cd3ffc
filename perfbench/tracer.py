"""Outside-in call tracing of tomoflow's public functions.

The package imports its functions by name (``from .grid import
sample_bilinear``), so patching ``tomoflow.grid.sample_bilinear`` alone
would miss the calls made from ``tomoflow.flow``. ``install`` therefore
replaces the function object under every name that refers to it in every
loaded tomoflow module. A function that no longer exists is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "tomoflow"

# (module, function) pairs timed by the traced run, one per layer boundary.
TRACED = (
    ("optimize", "register"),
    ("objective", "evaluate_objective"),
    ("objective", "objective_gradient"),
    ("objective", "velocity_norm_sq"),
    ("flow", "build_flow_chain"),
    ("flow", "attach_backprop_field"),
    ("grid", "sample_bilinear"),
    ("grid", "divergence"),
    ("grid", "gradient"),
    ("kernel", "smooth"),
    ("kernel", "make_kernel"),
    ("action", "deform"),
    ("tomo", "ray_transform"),
    ("tomo", "back_projection"),
    ("tomo", "fbp"),
    ("tv", "tv_reconstruct"),
    ("tv", "operator_norm_estimate"),
    ("phantom", "make_phantom"),
    ("phantom", "add_noise"),
    ("metrics", "ssim"),
)


@dataclass
class Span:
    """Accumulated calls and times of one traced function."""

    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0
    first_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


class Tracer:
    """Spans keyed ``module.function``; nested calls charge their parent."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._open: list[list[float]] = []

    def counts(self) -> dict[str, int]:
        return {key: span.calls for key, span in self.spans.items()}

    def _wrap(self, key: str, fn):
        span = self.spans[key] = Span()
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if span.calls == 0:
                    span.first_s = dt
                span.calls += 1
                span.s += dt
                span.child_s += children[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def install(self) -> None:
        """Patch every traced function at every name bound to it."""
        for mod_name, fn_name in TRACED:
            key = f"{mod_name}.{fn_name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(key)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            loaded = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
