"""Spans around zetalab's layers, installed from outside the package.

Consumers import names directly (``from .zeta_eval import eta, zeta``), so
wrapping a function only in its defining module would miss most calls.
`Tracer.install` replaces each public function of a layer module in every
loaded zetalab namespace that binds it. A span records its name, its parent
span, start and end, a note taken from the result (the method tag of an
EvalResult, else the length of a list or bytes) and whether a ZetaLabError
escaped. Spans stay in memory; `layer_metrics` reduces them at the end.
Each wrapper returns the object it received, unchanged.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: the layer modules; cli only parses arguments and is left out.
LAYERS = ("specfun", "zeta_eval", "arith", "reflect", "zeros", "harness", "reporting")
#: private functions that other modules import, so they cross a layer boundary.
BOUNDARY_PRIVATES = {"specfun": ("_rgamma",)}
#: zeta's method tags, one per dispatch route.
ROUTES = ("direct-series", "accelerated-eta", "functional-equation")

_NAME, _PARENT, _START, _END, _NOTE, _RAISED = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, error_type):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        by_check_id = name == "harness.run_check"

        def traced(*args, **kwargs):
            label = f"{name}.{args[0] if args else kwargs['check_id']}" if by_check_id else name
            rec = [label, stack[-1] if stack else -1, 0.0, 0.0, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                rec[_RAISED] = True
                raise
            finally:
                rec[_END] = clock()
                stack.pop()
            if hasattr(result, "method"):
                rec[_NOTE] = result.method
            elif isinstance(result, (list, bytes)):
                rec[_NOTE] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every layer's public functions in all zetalab namespaces;
        returns the number of bindings replaced."""
        modules = [m for n, m in list(sys.modules.items()) if n == "zetalab" or n.startswith("zetalab.")]
        error_type = sys.modules["zetalab.errors"].ZetaLabError
        replaced = 0
        for layer in LAYERS:
            mod = sys.modules[f"zetalab.{layer}"]
            for fname in (*mod.__all__, *BOUNDARY_PRIVATES.get(layer, ())):
                fn = getattr(mod, fname)
                if isinstance(fn, type) or not callable(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn, error_type)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                            replaced += 1
        return replaced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of one traced iteration.

        A span's self time is its duration minus its children's; calls run
        on one thread, so children never overlap. Inclusive totals (`.s`,
        `us_per_call`) are over every span of the name, except that zeta's
        per-route figures count only top-level zeta calls, not the zeta(1-s)
        that zeta_reflect makes.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]

        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        fn_self_s: defaultdict = defaultdict(float)
        route_calls: Counter = Counter()
        route_total: defaultdict = defaultdict(float)
        under_zeta = [False] * len(spans)
        escaped: Counter = Counter()
        zeta_in_census = 0
        eta_in_finder = 0
        for i, (name, parent, start, end, note, raised) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            layer = name.split(".", 1)[0]
            fn_self_s[name] += dur - child_time[i]
            self_s[layer] += dur - child_time[i]
            parent_name = spans[parent][_NAME] if parent >= 0 else ""
            if raised and not parent_name.startswith(layer + "."):
                escaped[layer] += 1
            if raised and name == "zeros.count_zeros_rect":
                escaped[name] += 1
            if parent >= 0:
                under_zeta[i] = under_zeta[parent] or parent_name == "zeta_eval.zeta"
            if name == "zeta_eval.zeta":
                if not under_zeta[i]:
                    route_calls[note] += 1
                    route_total[note] += dur
                zeta_in_census += parent_name == "zeros.count_zeros_rect"
            elif name == "zeta_eval.eta":
                eta_in_finder += parent_name == "zeros.find_critical_zeros"

        def per_call_us(count: int, seconds: float) -> float:
            return 1e6 * seconds / count if count else 0.0

        def fn_metrics(name: str) -> dict[str, float]:
            return {
                f"{name}.calls": calls[name],
                f"{name}.us_per_call": per_call_us(calls[name], total[name]),
                f"{name}.s": total[name],
            }

        m: dict[str, float] = {}
        for name in (
            "specfun.gamma",
            "zeta_eval.eta",
            "zeta_eval.zeta_reflect",
            "arith.build_table",
            "arith.primes_upto",
            "reflect.kappa",
            "reflect.nu",
            "reflect.classify_nu",
            "zeros.find_critical_zeros",
            "zeros.count_zeros_rect",
            "zeros.multiplicity",
            "zeros.check_line_zeros",
            "reporting.emit_report",
        ):
            m.update(fn_metrics(name))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        for route in ROUTES:
            m[f"zeta_eval.zeta.calls.{route}"] = route_calls[route]
            m[f"zeta_eval.zeta.us_per_call.{route}"] = per_call_us(route_calls[route], route_total[route])
        m["zeta_eval.errors"] = escaped["zeta_eval"]
        m["zeros.count_zeros_rect.errors"] = escaped["zeros.count_zeros_rect"]
        census_calls = calls["zeros.count_zeros_rect"]
        m["zeros.count_zeros_rect.zeta_calls_per_call"] = zeta_in_census / census_calls if census_calls else 0.0
        zeros_found = sum(rec[_NOTE] or 0 for rec in spans if rec[_NAME] == "zeros.find_critical_zeros")
        m["zeros.eta_calls_per_zero"] = eta_in_finder / zeros_found if zeros_found else 0.0
        for name, seconds in total.items():
            if name.startswith("harness.run_check."):
                m[f"{name}.s"] = seconds
        m["harness.grid_scan.self_s"] = fn_self_s["harness.grid_scan"]
        m["reporting.report_bytes"] = sum(
            rec[_NOTE] or 0 for rec in spans if rec[_NAME] == "reporting.emit_report"
        )
        return m
