"""Call tracing for the per-layer metrics.

The tracer wraps the public functions of each layer from outside the
program: while installed, every binding of a traced function in every
loaded ``nhflat`` module points at a timing wrapper.  Rebinding all of
them matters because the layers import each other's functions by name
(``from nhflat.mat3 import adjugate`` in ``structure``, ``flow`` and
``torsion``), so patching only the defining module would miss most calls.
``polarized_adjugate`` is imported lazily inside ``flow`` at call time and
is therefore reached through the ``mat3`` binding.  Methods are patched on
their class.

For every traced function the tracer counts calls and exceptions that
escape it, and accumulates self time: the span's duration minus the part
covered by traced child spans.  Spans are aggregated in memory; nothing is
written while an operation runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (layer, metric name, class or None, attribute) for every traced callable.
TARGETS = (
    ("mat3", "adjugate", None, "adjugate"),
    ("mat3", "det3", None, "det3"),
    ("mat3", "polarized_adjugate", None, "polarized_adjugate"),
    ("exterior", "form_inner", None, "form_inner"),
    ("exterior", "wedge", None, "wedge"),
    ("exterior", "d", None, "d"),
    ("structure", "NhfStructure", "NhfStructure", "__init__"),
    ("structure", "validate", "NhfStructure", "validate"),
    ("structure", "compute_abr", None, "compute_abr"),
    ("structure", "invariant_three_form", None, "invariant_three_form"),
    ("torsion", "extract_torsion", None, "extract_torsion"),
    ("torsion", "w2_minus_form", None, "w2_minus_form"),
    ("torsion", "w3_form", None, "w3_form"),
    ("torsion", "scalar_curvature", None, "scalar_curvature"),
    ("torsion", "classify", None, "classify"),
    ("flow", "integrate", None, "integrate"),
    ("flow", "flow_rhs", None, "flow_rhs"),
    ("flow", "recover_p", None, "recover_p"),
    ("flow", "g2_residual", None, "g2_residual"),
    ("flow", "Trajectory.to_csv", "Trajectory", "to_csv"),
)

NAMES = tuple(f"{layer}.{name}" for layer, name, _, _ in TARGETS)


def _nhflat_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "nhflat" or name.startswith("nhflat."))
    ]


class Tracer:
    """Per-function call counts, escaped exceptions and self time, plus the
    total time of the operations run through :meth:`run_op`."""

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.errors = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.ops = 0
        self.op_s = 0.0
        # one accumulator of traced-child time per open span
        self._children = []

    def _wrap(self, name, fn):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span = clock() - start
                self.calls[name] += 1
                self.self_s[name] += span - children.pop()
                if children:
                    children[-1] += span

        return traced

    def run_op(self, fn, *args):
        """Run one benchmark operation as the root span and return its result."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.op_s += time.perf_counter() - start
            self.ops += 1
            self._children.pop()

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced callable for the duration of the block.

        All ``nhflat`` modules must already be imported: a module imported
        inside the block would keep the wrappers after it ends."""
        patches = []
        try:
            for layer, name, owner, attr in TARGETS:
                module = importlib.import_module(f"nhflat.{layer}")
                key = f"{layer}.{name}"
                if owner is not None:
                    cls = getattr(module, owner)
                    original = cls.__dict__[attr]
                    patches.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(key, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(key, original)
                for mod in _nhflat_modules():
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, binding, original))
                            setattr(mod, binding, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)
