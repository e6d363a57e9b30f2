"""Span tracing of swphase from outside the package, for the per-layer metrics.

The tracer replaces module-level functions of each swphase layer with timing
wrappers.  A function imported by name into other modules (for example
`haar_batch`, which `wigner` imports from `group`) is replaced in every
swphase namespace that holds it, so calls are seen whichever module makes
them.  No source file changes.

Spans are aggregated as they close, per span name: calls, total time and self
time (total minus the time covered by child spans).  Counts are taken at the
same boundaries from the arguments and results of the wrapped calls, so they
repeat exactly for a fixed seed.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def swphase_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "swphase" or name.startswith("swphase.")]


def clear_caches():
    """Drop every `lru_cache` of the package, so each pass pays what a fresh process pays."""
    for module in swphase_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", "").startswith("swphase"):
                value.cache_clear()


class Patches:
    """Replace a function in every swphase namespace that references it; undo in reverse."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for module in swphase_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def set_attr(self, owner, key, replacement):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    def undo(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def _requested_samples(fn):
    sig = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        tracer.counts["estimate_samples"] += int(sig.bind(*args, **kwargs).arguments["samples"])

    return hook


def _haar_rows(tracer, args, kwargs, result):
    rows = result.shape[0]
    tracer.counts["group.haar_samples"] += rows
    if tracer.inside("wigner."):
        tracer.counts["wigner.haar_rows"] += rows


def _normal_rows(tracer, args, kwargs, result):
    if tracer.inside("kernel."):
        tracer.counts["kernel.moduli_draws"] += result.shape[0]


def _words(tracer, args, kwargs, result):
    tracer.counts["streams.words"] += result.size


def _kernel_rows(tracer, args, kwargs, result):
    tracer.counts["wigner.kernel_rows"] += result.shape[0]


def _output_bytes(tracer, args, kwargs, result):
    out = args[0].output
    if out != "-":
        tracer.counts["cli.output_bytes"] += os.path.getsize(out)


# (module, function, span name, count hook).  The hook "samples" adds the
# call's `samples` argument to the Monte Carlo samples requested.  A missing
# function is skipped, so the tracer keeps working when a later change removes one.
PROBES = (
    ("_streams", "counter_uniforms", "streams.uniforms", _words),
    ("_streams", "counter_normals", "streams.normals", _normal_rows),
    ("group", "haar_batch", "group.haar_batch", _haar_rows),
    ("group", "weingarten2_check", "group.moment", "samples"),
    ("group", "weingarten4_check", "group.moment", "samples"),
    ("group", "_moment_values", "group.moment", None),
    ("group", "_moment_check", "group.moment", None),
    ("group", "n3_closed_form", "group.closed_form", None),
    ("group", "n8_closed_form", "group.closed_form", None),
    ("group", "nprime_closed_form", "group.closed_form", None),
    ("kernel", "moduli_domain_fraction", "kernel.domain_fraction", None),
    ("wigner", "_delta_batch", "wigner.kernel_batch", _kernel_rows),
    ("wigner", "check_norm", "wigner.symbol", "samples"),
    ("wigner", "check_standardisation", "wigner.symbol", "samples"),
    ("wigner", "check_traciality", "wigner.symbol", "samples"),
    ("wigner", "_symbol_values", "wigner.symbol", None),
    ("wigner", "_symbol_batch", "wigner.symbol", None),
    ("wigner", "reconstruct_state", "wigner.reconstruct", "samples"),
    ("wigner", "qubit_wf", "wigner.wf", None),
    ("wigner", "qutrit_wf", "wigner.wf", None),
    ("wigner", "qutrit_wf_adapted", "wigner.wf", None),
    ("states", "qutrit_bloch_constraints", "states.constraint", None),
    ("states", "rho_from_bloch", "states.build", None),
    ("algebra", "symmetric_structure_constants", "algebra.structure_tensor", None),
    ("cli", "cmd_spectrum", "cli.cmd", None),
    ("cli", "cmd_moduli_sample", "cli.cmd", None),
    ("cli", "cmd_wigner_eval", "cli.cmd", None),
    ("cli", "cmd_reconstruct", "cli.cmd", None),
    ("cli", "cmd_verify", "cli.cmd", None),
    ("cli", "_emit", "cli.serialize", _output_bytes),
)

# Chart construction validates the angles in `__post_init__`; it runs once per
# grid point in `wigner-eval`.
CLASS_PROBES = (
    ("group", "EulerSU3", "__post_init__", "group.chart"),
    ("group", "EulerSU2", "__post_init__", "group.chart"),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # open spans: [name, time covered by children]
        self._patches = Patches()

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def _close(self, name, frame, duration):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter() - t0)

    def wrap(self, name, fn, hook=None):
        clock = time.perf_counter
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - t0)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sw):
        for module_name, attr, name, hook in PROBES:
            fn = getattr(getattr(sw, module_name, None), attr, None)
            if fn is None:
                continue
            if hook == "samples":
                hook = _requested_samples(fn)
            self._patches.replace(fn, self.wrap(name, fn, hook))
        for module_name, cls_name, attr, name in CLASS_PROBES:
            cls = getattr(getattr(sw, module_name, None), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patches.set_attr(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self):
        self._patches.undo()

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far (the names of BENCHMARK.json)."""
        c, tot, own, calls = self.counts, self.total, self.self_time, self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "streams.uniforms_s": tot["streams.uniforms"],
            "streams.normals_self_s": own["streams.normals"],
            "streams.words": c["streams.words"],
            "group.haar_batch_self_s": own["group.haar_batch"],
            "group.haar_samples": c["group.haar_samples"],
            "group.haar_samples_per_estimate": ratio(c["group.haar_samples"], c["estimate_samples"]),
            "group.moment_self_s": own["group.moment"],
            "group.closed_form_s": tot["group.closed_form"],
            "group.closed_form_calls": calls["group.closed_form"],
            "group.chart_s": tot["group.chart"],
            "group.chart_builds": calls["group.chart"],
            "kernel.domain_fraction_self_s": own["kernel.domain_fraction"],
            "kernel.moduli_draws": c["kernel.moduli_draws"],
            "wigner.kernel_batch_s": tot["wigner.kernel_batch"],
            "wigner.kernel_batches_per_sample": ratio(c["wigner.kernel_rows"], c["wigner.haar_rows"]),
            "wigner.symbol_self_s": own["wigner.symbol"],
            "wigner.reconstruct_self_s": own["wigner.reconstruct"],
            "wigner.wf_self_s": own["wigner.wf"],
            "wigner.wf_calls": calls["wigner.wf"],
            "states.constraint_s": tot["states.constraint"],
            "states.constraint_calls_per_state": ratio(calls["states.constraint"], calls["states.build"]),
            "algebra.structure_tensor_s": tot["algebra.structure_tensor"],
            "algebra.structure_tensor_builds": calls["algebra.structure_tensor"],
            "cli.cmd_self_s": own["cli.cmd"],
            "cli.serialize_s": tot["cli.serialize"],
            "cli.output_bytes": c["cli.output_bytes"],
            "trace.spans": sum(calls.values()),
        }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "ratio" if "_per_" in name else "count"

