"""Layer spans for a traced CLI invocation, and their aggregation.

The child side (``run_traced``) wraps each layer's public functions from
outside the program.  Every loaded ``ringbf`` module that holds the original
function object gets the wrapper in its place, so names that a module bound by
value at import (``io_cli`` binds ``solve_threshold``, ``compute_curve`` and
the calibrate functions) are traced as well as module attributes looked up at
call time (the backend kernels behind ``get_backend()``).  Spans are kept in
memory with a link to their parent span and written as JSON when the
invocation ends.  A layer whose function no longer exists is listed as absent
instead of failing the run.

The benchmark side (``summarize``) turns the spans of many invocations into
per-layer call counts, self times and work counts.
"""
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

BACKEND = "<backend>"  # the module get_backend() returns when the call runs

# span name -> (module, function)
LAYERS = {
    "backend.filter_values": (BACKEND, "filter_values"),
    "backend.ensemble_filter": (BACKEND, "ensemble_filter"),
    "analysis.solve_threshold": ("ringbf.analysis", "solve_threshold"),
    "analysis.compute_curve": ("ringbf.analysis", "compute_curve"),
    "calibrate.local_std_map": ("ringbf.calibrate", "local_std_map"),
    "calibrate.fit_polynomial": ("ringbf.calibrate", "fit_polynomial"),
    "calibrate.regress_noise": ("ringbf.calibrate", "regress_noise"),
    "calibrate.format_calibration_report": ("ringbf.calibrate", "format_calibration_report"),
    "ctmodel.synth_phantom_values": ("ringbf.ctmodel", "synth_phantom_values"),
    "filter.filter_image_values": ("ringbf.filter", "filter_image_values"),
    "filter.quantize_to_int16": ("ringbf.filter", "quantize_to_int16"),
    "io_cli.read_image": ("ringbf.io_cli", "read_image"),
    "io_cli.write_image": ("ringbf.io_cli", "write_image"),
    "io_cli.dispatch": ("ringbf.io_cli", "cli_dispatch"),
}


def _image_pair_evals(f, t, v_code, dxs, *args, **kwargs):
    """Pixel-neighbour pairs one ``filter_values`` call evaluates."""
    return int(f.size) * len(dxs)


def _ensemble_pair_evals(vals, *args, **kwargs):
    """Centre-support pairs one ``ensemble_filter`` call evaluates."""
    return int(vals.shape[0]) * (int(vals.shape[1]) - 1)


WORK_COUNTS = {
    "backend.filter_values": _image_pair_evals,
    "backend.ensemble_filter": _ensemble_pair_evals,
}


def _count(work, args, kwargs):
    """The call's work count, or 0 when the signature no longer fits."""
    if work is None:
        return 0
    try:
        return work(*args, **kwargs)
    except (TypeError, AttributeError, IndexError):
        return 0


class Recorder:
    """Spans ``[name, parent index, start, end, work]`` of one process."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0,
                    _count(work, args, kwargs)]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()

        return traced


def _resolve(module_name):
    if module_name != BACKEND:
        return importlib.import_module(module_name)
    try:
        from ringbf._backend import get_backend
    except ImportError:
        return importlib.import_module("ringbf._core_py")
    return get_backend()


def _ringbf_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ringbf" or n.startswith("ringbf."))]


def install(recorder):
    """Wrap every layer function; return the names of layers that are absent."""
    absent = []
    for name, (module_name, attr) in LAYERS.items():
        try:
            original = getattr(_resolve(module_name), attr)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        traced = recorder.wrap(name, original, WORK_COUNTS.get(name))
        for module in _ringbf_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return absent


def run_traced(argv, trace_path):
    """Run ``cli_dispatch(argv)`` with layer spans; write them to ``trace_path``."""
    start = time.perf_counter()
    import ringbf.io_cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    absent = install(recorder)
    try:
        return ringbf.io_cli.cli_dispatch(argv)
    finally:
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump({"import_s": import_s, "absent": absent, "spans": recorder.spans}, fh)


def summarize(traces):
    """Per-layer totals over the traces of many invocations.

    Returns ``{layer: {"calls", "self_s", "total_s", "work"}}`` and the
    solver's ensemble calls per solve.
    A span's self time is its duration minus the durations of its direct
    children, which run inside it one after another.
    """
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
    probes = solves = 0
    for trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, parent, start, end, work) in enumerate(spans):
            layer = totals[name]
            layer["calls"] += 1
            layer["self_s"] += (end - start) - child_s[i]
            layer["total_s"] += end - start
            layer["work"] += work
            if name == "analysis.solve_threshold":
                solves += 1
            elif name == "backend.ensemble_filter" and _under(spans, parent, "analysis.solve_threshold"):
                probes += 1
    return totals, (probes / solves if solves else 0.0)


def _under(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][1]
    return False
