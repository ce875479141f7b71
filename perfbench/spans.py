"""Spans at tripow's module boundaries, recorded from outside the program.

tripow's layers call each other through module attributes (``powers`` calls
``decompose`` as ``tripow.powers.decompose``, ``spectral`` calls
``cheb_t_table`` as ``tripow.spectral.cheb_t_table``, and so on).  The
tracer replaces those attributes with wrappers that record a span (name,
start, end, parent, op id) and restores the originals on removal.  A site
whose attribute no longer exists is skipped and reported, so code removed
by a later change does not break the trace.  Spans stay in memory until the
run writes them out.
"""

import functools
import importlib
import json
import time

# Span name -> the module attributes through which callers reach it.
BOUNDARIES = {
    "powers.power_matrix": ["tripow.power_matrix", "tripow.powers.power_matrix", "tripow.cli.power_matrix"],
    "powers.power_verify": ["tripow.power_verify", "tripow.cli.power_verify"],
    "spectral.decompose": ["tripow.powers.decompose", "tripow.cli.decompose"],
    "spectral.transform": ["tripow.spectral.transform_k", "tripow.spectral.transform_t"],
    "spectral.inv_transform": ["tripow.spectral.inv_transform_k", "tripow.spectral.inv_transform_t"],
    "chebyshev.table": ["tripow.spectral.cheb_t_table", "tripow.spectral.cheb_u_table"],
    "families.build_matrix": ["tripow.powers.build_matrix", "tripow.cli.build_matrix"],
    "linalg.mat_pow_binary": ["tripow.powers.mat_pow_binary", "tripow.cli.mat_pow_binary"],
    "linalg.mat_inverse": ["tripow.powers.mat_inverse"],
    "linalg.mat_norm_maxabs": [
        "tripow.powers.mat_norm_maxabs", "tripow.spectral.mat_norm_maxabs", "tripow.cli.mat_norm_maxabs",
    ],
    "cli.main": ["tripow.cli.main"],
}


class Tracer:
    """Boundary wrappers that append spans to an in-memory list."""

    def __init__(self, boundaries=BOUNDARIES):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.op = -1
        self.skipped = []
        self._stack = []
        self._sites = []  # (module, attribute, original, wrapper)
        self._names = list(boundaries)
        for name, targets in boundaries.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.skipped.append(target)
                else:
                    self._sites.append((module, attr, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def totals(self) -> dict:
        """Per span name: [calls, busy_ns, self_ns]; self excludes child spans."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {name: [0, 0, 0] for name in self._names}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return totals

    def op_busy_ns(self, name: str) -> dict:
        """Per op id: summed duration of the spans called name."""
        busy = {}
        for span_name, start, end, _, op in self.spans:
            if span_name == name:
                busy[op] = busy.get(op, 0) + end - start
        return busy

    def write(self, path):
        """One JSON array per line: name, start_ns, end_ns, parent, op."""
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
