"""Span tracing of tomobell's public functions, installed from outside the package.

A traced op process calls :func:`install` after ``tomobell.cli`` is imported.
It wraps each function in :data:`TARGETS` and rebinds the wrapper at every
module attribute that refers to the original, so calls made through
``from .special import erf_complex`` are recorded as well as calls through
``special.erf_complex``.  Each click command callback becomes a
``cli.command`` span.  Spans are kept in memory and handed back to the
benchmark when the op ends; :func:`layer_stats` turns them into per-layer
counts and self times.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: module -> public functions timed as layer spans, named "<module>.<function>".
TARGETS = {
    "special": ["erf_complex", "periodic_trapezoid", "bessel_i0", "gauss_legendre",
                "laguerre", "hermite"],
    "states": ["density_matrix", "schmidt_coefficients", "wigner"],
    "tomography": ["sign_binned_closed_form", "radon_forward", "kernel_reconstruct_density",
                   "tomogram_closed_form", "pair_coherent_integral_series"],
    "bell": ["maximize_chsh", "correlation_pseudospin", "closed_form_correlation"],
    "sampling": ["sample_rejection", "estimate_probs"],
    "cli": ["write_csv", "sha256_file", "write_json"],
}


def _points(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


# Per-span counters taken from a call's arguments, result and the counters
# filled while it ran.  "bytes" of a density matrix are computed from its
# shape (16 * cutoff**4 for complex128), not measured; file "bytes" are
# measured on disk.
_ATTRS = {
    "special.erf_complex": lambda a, res, c: {"points": int(np.size(a[0]))},
    "states.wigner": lambda a, res, c: {"points": _points(*a[1:5])},
    "tomography.radon_forward": lambda a, res, c: {"points": _points(a[1], a[3])},
    "tomography.tomogram_closed_form": lambda a, res, c: {"points": _points(a[1], a[3])},
    "states.density_matrix": lambda a, res, c: {"bytes": 16 * res.cutoff**4},
    "bell.correlation_pseudospin": lambda a, res, c: {"bytes": 16 * a[0].cutoff**4},
    "sampling.sample_rejection":
        lambda a, res, c: {"accepted": round(res.acceptance_rate * c["proposals"])},
    "cli.write_csv": lambda a, res, c: {"bytes": os.path.getsize(a[0])},
    "cli.sha256_file": lambda a, res, c: {"bytes": os.path.getsize(a[0])},
}


class Tracer:
    """In-memory span list: [name, start, end, parent index, op id, counters]."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)
        spans, stack, op = self.spans, self._stack, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters: dict = {}
            args = _count_callable_arg(name, args, counters)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, op, counters])
            stack.append(idx)
            start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if attrs is not None:
                counters.update(attrs(args, res, counters))
            return res

        return traced


def _count_callable_arg(name, args, counters):
    """Wrap the callable passed to the optimizer or sampler to count its use."""
    if name == "bell.maximize_chsh":
        counters["corr_evals"] = 0
        corr = args[0]

        def counted_corr(*a, **k):
            counters["corr_evals"] += 1
            return corr(*a, **k)

        return (counted_corr, *args[1:])
    if name == "sampling.sample_rejection":
        counters["proposals"] = 0
        density = args[0]

        def counted_density(x1, x2):
            # the envelope scan passes a 2-D grid; proposal rounds pass 1-D draws
            if np.ndim(x1) == 1:
                counters["proposals"] += int(np.size(x1))
            return density(x1, x2)

        return (counted_density, *args[1:])
    return args


def install(op: int) -> Tracer:
    """Wrap every target at every tomobell module binding; return the tracer."""
    tracer = Tracer(op)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "tomobell" or n.startswith("tomobell."))]
    for mod_name, names in TARGETS.items():
        home = sys.modules[f"tomobell.{mod_name}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    for command in sys.modules["tomobell.cli"].main.commands.values():
        command.callback = tracer.wrap("cli.command", command.callback)
    return tracer


def layer_stats(span_lists) -> dict[str, dict[str, float]]:
    """Per-span-name totals over several ops: calls, self_s and counters.

    Self time is a span's duration minus the durations of its direct child
    spans.  ``tomography.radon_forward.grid_evals`` counts the Wigner spans
    directly beneath a Radon projection (one per quadrature grid tried).
    """
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op, _counters in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _op, counters) in enumerate(spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            for key, value in counters.items():
                entry[key] += value
            if name == "states.wigner" and parent >= 0 \
                    and spans[parent][0] == "tomography.radon_forward":
                stats["tomography.radon_forward"]["grid_evals"] += 1
    return stats
