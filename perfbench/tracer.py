"""Outside-in tracing of liequant: wrap public functions, record spans.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces every
binding of each traced function: the defining module's attribute and
every other ``liequant`` module that imported the function by name
(``thermal`` and ``liealg`` import ``eig_hermitian``, ``cli`` imports
the ``poisson`` integrator and CSV writer, and so on), plus a few class methods.
``Tracer.uninstall`` puts the originals back, so an untraced job runs
the program's own code with no wrapper in the way.

A span is ``(name, parent, start, end, size)``: ``parent`` is the index
of the enclosing span in the same job, or -1; ``size`` is a per-call
work measure (matrix order, algebra dimension, steps, bytes, lines).
Spans stay in memory and are handed back per job by ``take``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Module -> function names to wrap; None means every public function in
# the module's __all__.  matrixcore is limited to its kernels because
# the predicates (as_square, is_hermitian) sit inside every kernel call.
MODULES = {
    "matrixcore": ("eig_hermitian", "expm", "commutator", "anticommutator"),
    "liealg": None,
    "rotations": None,
    "poisson": None,
    "fock": None,
    "fermion": None,
    "su2reps": None,
    "thermal": None,
    "spectra": None,
}

# (module, class, method, span name)
METHODS = (
    ("liealg", "MatrixRealization", "consistency_residual", "liealg.consistency_residual"),
    ("thermal", "GibbsState", "__init__", "thermal.GibbsState"),
    ("thermal", "GibbsState", "value", "thermal.GibbsState.value"),
)


# Work measure of one call, from its arguments and result: matrix order,
# coupled dimension, algebra dimension, modes, steps, CSV bytes, lines.
SIZES = {
    "matrixcore.eig_hermitian": lambda args, result: len(args[0]),
    "su2reps.clebsch_gordan": lambda args, result: result[1].shape[0],
    "liealg.builtin_algebra": lambda args, result: result[0].dim,
    "fermion.build_fermion": lambda args, result: result.n_modes,
    "poisson.integrate_rigid_body": lambda args, result: len(result) - 1,
    "poisson.trajectory_csv": lambda args, result: len(result),
    "spectra.assign_lines": lambda args, result: len(args[0]),
}


class Tracer:
    """Span recorder for one process; spans of a job are taken per job."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                size = size_of(args, result) if size_of and result is not None else 0
                spans[index] = (name, parent, start, end, size)

        return traced

    def install(self, extra=()):
        """Wrap every traced binding; ``extra`` adds (module, attr, span name)."""
        targets = []
        for short, names in MODULES.items():
            mod = sys.modules.get(f"liequant.{short}")
            if mod is None:
                continue
            for attr in names or mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((fn, f"{short}.{attr}"))
        for module, attr, name in extra:
            targets.append((getattr(sys.modules[module], attr), name))
        owners = [m for n, m in sys.modules.items() if n.startswith("liequant.")]
        for fn, name in targets:
            traced = self.wrap(fn, name)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._restore.append((owner, attr, fn))
                        setattr(owner, attr, traced)
        for short, cls_name, method, name in METHODS:
            mod = sys.modules.get(f"liequant.{short}")
            if mod is None:
                continue
            cls = getattr(mod, cls_name)
            fn = vars(cls)[method]
            self._restore.append((cls, method, fn))
            setattr(cls, method, self.wrap(fn, name))

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def take(self):
        """Return and clear the spans recorded since the last call."""
        out = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return out
