"""Timers and counters around the public functions of each pcurves layer.

``install()`` replaces every public function of a layer module, under
every pcurves module name that holds it, with a wrapper that records
calls, total time and self time (total minus the time of wrapped calls
it made), so calls inside the program are counted too.  Three public
methods are wrapped as well: the spectrum cache lookup, the cover
construction and the query dispatch.  Totals stay in memory until
``take()`` or ``dump()``.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = ("cli", "scenario", "queries", "spectral", "orbits", "curves", "intersections", "covers", "classify")
METHODS = {
    "spectral": ("SpectrumCache.get", "AsymptoticOperator.pulled_back"),
    "queries": ("QueryRegistry.run_one",),
}
SPECTRUM = "spectral.discretized_spectrum"
CROSSING_FLOW = "orbits.crossing_flow"

# The wrappers patch module attributes, so the totals are per process.
_lock = threading.Lock()
_local = threading.local()
_state = {}
_installed = False


def take():
    """Return the totals recorded since the last call and start afresh."""
    with _lock:
        out = dict(_state)
        _state.update(_empty())
    return out


def dump(path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(take(), fh)


def _empty():
    return {"spans": {}, "spectrum_calls": [], "cache_lookups": 0, "cache_hits": 0, "cover_samples": 0}


def _span_name(name, args, kwargs):
    # The two Conley-Zehnder methods are different layers of work.
    if name == "orbits.conley_zehnder":
        method = kwargs.get("method", args[2] if len(args) > 2 else "winding")
        if method == "crossing_flow":
            return CROSSING_FLOW
    return name


def _wrap(name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        children = [0.0]
        stack.append(children)
        spectrum_calls = len(_state["spectrum_calls"])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            _record(_span_name(name, args, kwargs), args, elapsed, children[0], spectrum_calls)

    return traced


def _record(name, args, elapsed, children, spectrum_calls_before):
    with _lock:
        calls, total, self_time = _state["spans"].get(name, (0, 0.0, 0.0))
        _state["spans"][name] = (calls + 1, total + elapsed, self_time + elapsed - children)
        if name == SPECTRUM:
            _state["spectrum_calls"].append((int(args[1]), elapsed))
        elif name == "spectral.SpectrumCache.get":
            _state["cache_lookups"] += 1
            if len(_state["spectrum_calls"]) == spectrum_calls_before:
                _state["cache_hits"] += 1
        elif name == "spectral.AsymptoticOperator.pulled_back" and len(args) > 1 and args[1] > 1:
            _state["cover_samples"] += len(args[0].samples) * args[1]


def install():
    """Wrap the layer functions; idempotent per process."""
    global _installed
    if _installed:
        return
    _installed = True
    _state.update(_empty())
    modules = {layer: importlib.import_module(f"pcurves.{layer}") for layer in LAYERS}
    importlib.import_module("pcurves")
    holders = [m for n, m in sys.modules.items() if n == "pcurves" or n.startswith("pcurves.")]
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced = _wrap(f"{layer}.{attr}", fn)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, traced)
        for qualname in METHODS.get(layer, ()):
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(f"{layer}.{qualname}", getattr(cls, meth)))


def scipy_import_seconds(importtime_log):
    """Cumulative import time of the outermost scipy modules."""
    stack = []  # (depth, name, cumulative_us, children)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = (depth, name.strip(), int(cumulative), [])
        while stack and stack[-1][0] > depth:
            node[3].append(stack.pop())
        stack.append(node)

    def outermost(node):
        if node[1] == "scipy" or node[1].startswith("scipy."):
            return node[2]
        return sum(outermost(child) for child in node[3])

    return sum(outermost(node) for node in stack) / 1e6
