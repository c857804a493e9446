"""Outside-in tracing of gainlab's layers, for the benchmark's traced run.

The tracer wraps the public functions of every layer module from outside
the program: each wrapper replaces the original on every ``gainlab``
module (and module-level dict, such as ``cli.RUNNERS``) that holds a
reference to it, so calls made through ``from .x import f`` bindings are
seen too. ``dynamics.decoupled_stepper`` returns a wrapped ``advance``
closure, and ``ToyShapingProblem.evaluate`` is attributed to ``shaping``
wherever the class lives.

Functions at rollout level and above record spans (name, start, end,
parent). Step-level functions record only a call count and summed time,
to bound the overhead. Every wrapped call also charges its duration to
its caller, so a function's self time is its wrapped time minus that of
its wrapped children, and the self times of all layers partition the
root ``cli.run`` time.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "dynamics", "control", "retarget", "noise", "sysid", "shaping", "stats")

# Called once per physics step (or per command): counted, not spanned.
STEP_LEVEL = {
    "dynamics.step", "dynamics.advance", "dynamics.mass_matrix",
    "dynamics.gravity_torque", "dynamics.coriolis_torque",
    "dynamics.friction_torque", "dynamics.forward_dynamics",
    "control.pd_torque", "control.limit_torque",
    "shaping.map_action", "shaping.expand_alpha",
    "sysid.spectral_mse",
}

# Functions whose result says whether the work was useful (a finite J).
FINITE_RESULT = {"shaping.evaluate"}


def _finite(result) -> bool:
    value = result[0] if isinstance(result, tuple) else result
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


class Tracer:
    """Call counts, summed and self times per wrapped function, plus spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.finite = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # [start, child time, enclosing span id]
        self._next_span = 0

    def wrap(self, key: str, fn):
        span = key not in STEP_LEVEL
        check_finite = key in FINITE_RESULT
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            span_id = parent
            if span:
                span_id = self._next_span
                self._next_span += 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = not check_finite or _finite(result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self.calls[key] += 1
                self.total[key] += dur
                self.self_time[key] += dur - frame[1]
                if ok and check_finite:
                    self.finite[key] += 1
                if stack:
                    stack[-1][1] += dur
                if span:
                    self.spans.append((span_id, key, frame[0], end, parent))

        return wrapper

    def table(self) -> dict:
        return {key: {"calls": self.calls[key], "total_s": self.total[key],
                      "self_s": self.self_time[key], "finite": self.finite[key]}
                for key in sorted(self.calls)}


def _gainlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gainlab" or name.startswith("gainlab."))]


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer's public functions; return the wrapped keys.

    Raises RuntimeError if a layer module is missing or if any gainlab
    module still holds an unwrapped reference afterwards.
    """
    wrapped = {}  # original function -> wrapper
    keys = []
    for layer in LAYERS:
        mod = sys.modules.get(f"gainlab.{layer}")
        if mod is None:
            raise RuntimeError(f"layer module gainlab.{layer} is not imported")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                key = f"{layer}.{name}"
                if key == "dynamics.decoupled_stepper":
                    wrapped[obj] = tracer.wrap(key, _wrap_stepper(tracer, obj))
                else:
                    wrapped[obj] = tracer.wrap(key, obj)
                keys.append(key)

    problem_classes = set()
    for mod in _gainlab_modules():
        cls = vars(mod).get("ToyShapingProblem")
        if inspect.isclass(cls):
            problem_classes.add(cls)
    if not problem_classes:
        raise RuntimeError("ToyShapingProblem not found in any gainlab module")
    for cls in problem_classes:
        cls.evaluate = tracer.wrap("shaping.evaluate", cls.evaluate)
    keys.append("shaping.evaluate")

    for mod in _gainlab_modules():
        for name, obj in list(vars(mod).items()):
            if _is_original(obj, wrapped):
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if _is_original(v, wrapped):
                        obj[k] = wrapped[v]
    left = [f"{mod.__name__}.{name}" for mod in _gainlab_modules()
            for name, obj in vars(mod).items() if _is_original(obj, wrapped)]
    if left:
        raise RuntimeError(f"unwrapped references remain: {', '.join(left)}")
    return sorted(keys)


def _is_original(obj, wrapped: dict) -> bool:
    return inspect.isfunction(obj) and obj in wrapped


def _wrap_stepper(tracer: Tracer, decoupled_stepper):
    @functools.wraps(decoupled_stepper)
    def stepper(plant):
        return tracer.wrap("dynamics.advance", decoupled_stepper(plant))

    return stepper


# ---------------------------------------------------------------------------
# Per-layer metrics

PER_LAYER_UNITS = {
    "dynamics.self_s": "s", "dynamics.steps": "count",
    "dynamics.advance_us": "us", "dynamics.step_us": "us",
    "sysid.self_s": "s", "sysid.cmaes_self_s": "s",
    "shaping.self_s": "s", "shaping.evals": "count", "shaping.finite_ratio": "ratio",
    "shaping.evaluate_ms": "ms", "shaping.map_action_us": "us",
    "retarget.self_s": "s", "retarget.replays": "count", "retarget.replay_ms": "ms",
    "noise.self_s": "s", "noise.calls": "count",
    "control.self_s": "s", "control.pd_torque_calls": "count",
    "stats.self_s": "s", "stats.barnard_s": "s", "stats.mannwhitney_ms": "ms",
    "stats.fit_ms": "ms",
    "cli.self_s": "s", "cli.cells": "count",
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio", "trace.named_share": "ratio",
}


def layer_self(table: dict) -> dict:
    """Self seconds per layer (layers with no calls read 0)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for key, row in table.items():
        out[key.split(".", 1)[0]] += row["self_s"]
    return out


def layer_calls(table: dict) -> dict:
    out = dict.fromkeys(LAYERS, 0)
    for key, row in table.items():
        out[key.split(".", 1)[0]] += row["calls"]
    return out


def per_layer_metrics(table: dict, cells: int, untraced_wall_s: float,
                      named_layers: tuple[str, ...]) -> dict:
    """The per-layer metric values of one traced run (see PER_LAYER_UNITS)."""
    def calls(key):
        return table.get(key, {}).get("calls", 0)

    def total(key):
        return table.get(key, {}).get("total_s", 0.0)

    def mean(key, scale):
        n = calls(key)
        return total(key) / n * scale if n else 0.0

    def ratio(key):
        n = calls(key)
        return table[key]["finite"] / n if n else 0.0

    selfs = layer_self(table)
    wall = total("cli.run")
    values = {
        "dynamics.self_s": selfs["dynamics"],
        "dynamics.steps": calls("dynamics.step") + calls("dynamics.advance"),
        "dynamics.advance_us": mean("dynamics.advance", 1e6),
        "dynamics.step_us": mean("dynamics.step", 1e6),
        "sysid.self_s": selfs["sysid"],
        "sysid.cmaes_self_s": table.get("sysid.cmaes_minimize", {}).get("self_s", 0.0),
        "shaping.self_s": selfs["shaping"],
        "shaping.evals": calls("shaping.evaluate"),
        "shaping.finite_ratio": ratio("shaping.evaluate"),
        "shaping.evaluate_ms": mean("shaping.evaluate", 1e3),
        "shaping.map_action_us": mean("shaping.map_action", 1e6),
        "retarget.self_s": selfs["retarget"],
        "retarget.replays": calls("retarget.replay"),
        "retarget.replay_ms": mean("retarget.replay", 1e3),
        "noise.self_s": selfs["noise"],
        "noise.calls": layer_calls(table)["noise"],
        "control.self_s": selfs["control"],
        "control.pd_torque_calls": calls("control.pd_torque"),
        "stats.self_s": selfs["stats"],
        "stats.barnard_s": total("stats.barnard_exact"),
        "stats.mannwhitney_ms": total("stats.mannwhitney_u") * 1e3,
        "stats.fit_ms": (total("stats.logistic_fit") + total("stats.ols_log_fit")) * 1e3,
        "cli.self_s": selfs["cli"],
        "cli.cells": cells,
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / untraced_wall_s,
        "trace.named_share": sum(selfs[layer] for layer in named_layers) / wall,
    }
    assert set(values) == set(PER_LAYER_UNITS)
    return values
