"""Spans and counts around the public calls into each hardycheck module.

The tracer patches functions from outside: it swaps every binding of a
wrapped function in the loaded ``hardycheck`` modules for a wrapper, so
calls made inside the package (``hardy`` calling ``born_joint_probability``,
for example) are seen too, and ``src/`` is never edited. A span records a
name, an operation id, its parent span, a start and an end; spans stay in
memory until the run ends. Fine-grained calls (one per instance or strategy)
are counted without a span, to keep the overhead low.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

from oracles import P4_STAR

#: (module, public name, "span" or "count", observer of the return value).
TARGETS = (
    ("quantum", "born_joint_probability", "span", None),
    ("quantum", "validate_basis", "span", None),
    ("hardy", "build_hardy_configuration", "span", None),
    ("hardy", "joint_probability_table", "span", None),
    ("hardy", "verify_hardy_predictions", "span", lambda r: {"zero_residual": max(r.p1_zero, r.p2_zero, r.p3_zero)}),
    ("hardy", "no_signalling_check", "span", None),
    ("counterfactuals", "locality_violation_report", "span", None),
    ("counterfactuals", "satisfies_zeros", "count", lambda r: {"true": int(bool(r))}),
    ("counterfactuals", "evaluate_sr", "count", None),
    ("lhv", "hardy_lhv_feasibility", "span", lambda r: {"witnesses": len(r.witnesses), "trace_steps": len(r.trace)}),
    ("lhv", "strategy_satisfies", "count", None),
    ("optimize", "maximize_paradox", "span", lambda r: {"iterations": r.iterations, "gap": abs(r.p4_max - P4_STAR)}),
    ("optimize", "paradox_probability", "span", None),
    ("optimize", "reference_grid_maximum", "span", None),
    ("optimize", "reference_curve", "count", lambda r: {"points": int(r.size)}),
    ("render", "render_report", "span", lambda r: {"bytes": len(r)}),
)

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.span_name = array("q")
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: dict[str, int] = {}
        self.obs_sum: dict[str, float] = {}
        self.obs_max: dict[str, float] = {}
        self.absent: list[str] = []
        self.ops = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_op.append(self.ops)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _observe(self, name: str, observer, result) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        if observer is not None:
            for field, value in observer(result).items():
                key = f"{name}.{field}"
                self.obs_sum[key] = self.obs_sum.get(key, 0) + value
                self.obs_max[key] = max(self.obs_max.get(key, value), value)

    def begin_op(self) -> None:
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()
        self.ops += 1

    def _wrap(self, name: str, fn, kind: str, observer):
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._observe(name, observer, result)
                return result

            return counted
        self.names.append(name)
        name_id = len(self.names) - 1

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, observer, result)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed in ``absent``."""
        modules = [m for n, m in sys.modules.items() if n == "hardycheck" or n.startswith("hardycheck.")]
        for module_name, attr, kind, observer in TARGETS:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules.get(f"hardycheck.{module_name}"), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, kind, observer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- export ------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "op": self.span_op.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            },
            "calls": self.calls,
            "obs_sum": self.obs_sum,
            "obs_max": self.obs_max,
            "absent": self.absent,
            "ops": self.ops,
        }

    def merge(self, other: dict) -> None:
        """Append another process's dump; its ops get ids after this tracer's."""
        remap = []
        for name in other["names"]:
            if name not in self.names:
                self.names.append(name)
            remap.append(self.names.index(name))
        base = len(self.span_name)
        s = other["spans"]
        for i in range(len(s["name"])):
            self.span_name.append(remap[s["name"][i]])
            self.span_op.append(self.ops + s["op"][i])
            self.span_parent.append(base + s["parent"][i] if s["parent"][i] >= 0 else -1)
            self.span_start.append(s["start_ns"][i])
            self.span_end.append(s["end_ns"][i])
        for key, value in other["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + value
        for key, value in other["obs_sum"].items():
            self.obs_sum[key] = self.obs_sum.get(key, 0) + value
        for key, value in other["obs_max"].items():
            self.obs_max[key] = max(self.obs_max.get(key, value), value)
        self.absent = sorted(set(self.absent) | set(other["absent"]))
        self.ops += other["ops"]

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: number of spans, inclusive ns and self ns (minus child spans)."""
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, int]] = {}
        for i in range(n):
            t = out.setdefault(self.names[self.span_name[i]], {"spans": 0, "incl_ns": 0, "self_ns": 0})
            dur = self.span_end[i] - self.span_start[i]
            t["spans"] += 1
            t["incl_ns"] += dur
            t["self_ns"] += dur - child[i]
        return out


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics named after the modules; ``extra`` supplies values measured elsewhere.

    ``*_us``/``*_ms`` are means per call (0 when the workload makes no such
    call), ``*_per_op`` are counts per operation, ``*_ratio``/``*_share``
    are useful outcomes over attempts. A metric whose wrapped name is absent
    from the package is left out, never reported as zero.
    """
    tot = tracer.totals()
    ops = max(tracer.ops, 1)

    def calls(name):
        return tracer.calls.get(name, 0)

    def per_call(name, field, scale):
        t = tot.get(name)
        return t[field] / t["spans"] / scale if t else 0.0

    def obs(key):
        return tracer.obs_sum.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    born, validate = "quantum.born_joint_probability", "quantum.validate_basis"
    build, table = "hardy.build_hardy_configuration", "hardy.joint_probability_table"
    verify, nosig = "hardy.verify_hardy_predictions", "hardy.no_signalling_check"
    solve, objective = "optimize.maximize_paradox", "optimize.paradox_probability"
    grid, curve = "optimize.reference_grid_maximum", "optimize.reference_curve"
    locality = "counterfactuals.locality_violation_report"
    szeros, sr = "counterfactuals.satisfies_zeros", "counterfactuals.evaluate_sr"
    feas, strat, render = "lhv.hardy_lhv_feasibility", "lhv.strategy_satisfies", "render.render_report"
    op_ns = tot.get(OP, {"incl_ns": 0})["incl_ns"]
    metrics = {
        "quantum.born_calls_per_op": ([born], calls(born) / ops),
        "quantum.born_self_us": ([born], per_call(born, "self_ns", 1e3)),
        "quantum.validate_basis_calls_per_op": ([validate], calls(validate) / ops),
        "quantum.born_share": ([born], ratio(tot.get(born, {"incl_ns": 0})["incl_ns"], op_ns)),
        "hardy.build_calls_per_op": ([build], calls(build) / ops),
        "hardy.build_us": ([build], per_call(build, "incl_ns", 1e3)),
        "hardy.table_us": ([table], per_call(table, "incl_ns", 1e3)),
        "hardy.table_self_us": ([table], per_call(table, "self_ns", 1e3)),
        "hardy.verify_us": ([verify], per_call(verify, "incl_ns", 1e3)),
        "hardy.no_signalling_us": ([nosig], per_call(nosig, "incl_ns", 1e3)),
        "hardy.max_zero_residual": ([verify], tracer.obs_max.get(f"{verify}.zero_residual", 0.0)),
        "optimize.solve_ms": ([solve], per_call(solve, "incl_ns", 1e6)),
        "optimize.self_ms": ([solve], per_call(solve, "self_ns", 1e6)),
        "optimize.objective_calls_per_op": ([objective], calls(objective) / ops),
        "optimize.objective_us": ([objective], per_call(objective, "incl_ns", 1e3)),
        "optimize.iterations": ([solve], ratio(obs(f"{solve}.iterations"), calls(solve))),
        "optimize.reference_grid_ms": ([grid], per_call(grid, "incl_ns", 1e6)),
        "optimize.reference_grid_points": ([curve], ratio(obs(f"{curve}.points"), calls(curve))),
        "optimize.oracle_gap_max": ([solve], tracer.obs_max.get(f"{solve}.gap", 0.0)),
        "counterfactuals.locality_report_us": ([locality], per_call(locality, "incl_ns", 1e3)),
        "counterfactuals.instances_scanned_per_op": ([szeros], calls(szeros) / ops),
        "counterfactuals.evaluate_sr_calls_per_op": ([sr], calls(sr) / ops),
        "counterfactuals.admissible_ratio": ([szeros], ratio(obs(f"{szeros}.true"), calls(szeros))),
        "lhv.feasibility_us": ([feas], per_call(feas, "incl_ns", 1e3)),
        "lhv.strategies_scanned_per_op": ([strat], calls(strat) / ops),
        "lhv.witness_ratio": ([feas, strat], ratio(obs(f"{feas}.witnesses"), calls(strat))),
        "lhv.trace_steps_per_op": ([feas], obs(f"{feas}.trace_steps") / ops),
        "render.us": ([render], per_call(render, "incl_ns", 1e3)),
        "render.bytes_per_op": ([render], obs(f"{render}.bytes") / ops),
    }
    absent = set(tracer.absent)
    out = {name: value for name, (needs, value) in metrics.items() if not absent.intersection(needs)}
    out.update(extra)
    return out


def write_trace(path, tracer: Tracer, metrics: dict, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "totals": tracer.totals(), **tracer.dump()}, fh, separators=(",", ":"))
