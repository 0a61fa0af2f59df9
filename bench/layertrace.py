"""Tracing from outside the program: wrap crystref's public functions in the
running interpreter, and time a few of them on fixed operands.

A wrapped name is replaced in every crystref module that holds it (for
example ``crystref.steinberg.fixed_space`` as well as
``crystref.affine.fixed_space``), and methods are replaced on their class
under every alias (``Scalar.__mul__`` and ``__rmul__``).  Each wrapper counts
calls and adds up total and self time; self time is total time minus the time
spent in wrapped calls made from inside it.  A name that no longer exists is
skipped and its metrics are left out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import traceback

import crystref

# (layer metric prefix, module, class or None, attribute)
WRAPPED = [
    ("scalars.mul", "scalars", "Scalar", "__mul__"),
    ("scalars.inverse", "scalars", "Scalar", "inverse"),
    ("lattices.contains", "lattices", "Lattice", "contains"),
    ("lattices.line_intersection", "lattices", "Lattice", "line_intersection"),
    ("catalog.build_group", "catalog", None, "build_group"),
    ("catalog.enumerate_linear_group", "catalog", None, "enumerate_linear_group"),
    ("affine.fixed_space", "affine", None, "fixed_space"),
    ("affine.compose", "affine", None, "compose"),
    ("hyperplanes.reflection_families", "hyperplanes", None, "reflection_families"),
    ("hyperplanes.point_on_arrangement", "hyperplanes", None, "point_on_arrangement"),
    ("hyperplanes.subspace_on_arrangement", "hyperplanes", None,
     "subspace_on_arrangement"),
    ("hyperplanes.off_arrangement_point", "hyperplanes", None,
     "off_arrangement_point"),
    ("steinberg.verify_element", "steinberg", None, "verify_element"),
    ("steinberg.witness_from_cycle", "steinberg", None, "witness_from_cycle"),
    ("steinberg.witness_from_conditions", "steinberg", None,
     "witness_from_conditions"),
    ("steinberg.sweep", "steinberg", None, "sweep"),
    ("steinberg.check_counterexample", "steinberg", None, "check_counterexample"),
]

# layers whose cost is set-up work; reported as their cold total during set-up
SETUP_LAYERS = {
    "catalog.build_group": "catalog.build_group_ms",
    "catalog.enumerate_linear_group": "catalog.enumerate_linear_group_ms",
    "hyperplanes.reflection_families": "hyperplanes.reflection_families_ms",
    "lattices.line_intersection": "lattices.line_intersection_ms",
}

WITNESS_KEYS = ("steinberg.witness_from_cycle", "steinberg.witness_from_conditions")


class Stat:
    __slots__ = ("calls", "total", "self_time", "fired", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.fired = 0                      # calls that returned non-None
        self.durations = [] if keep_durations else None


class Tracer:
    """Installs and removes the wrappers; owns the statistics they record."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.sweeps: list[tuple[str, float, object]] = []   # (group, s, report)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for key, stat in self.stats.items():
            self.stats[key] = Stat(stat.durations is not None)
        self.sweeps = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "crystref" or name.startswith("crystref.")]
        for key, mod_name, cls_name, attr in WRAPPED:
            module = sys.modules.get(f"crystref.{mod_name}")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                print(f"trace: {key} not found; its metrics are absent",
                      file=sys.stderr)
                continue
            stat = Stat(keep_durations=key == "steinberg.verify_element")
            self.stats[key] = stat
            wrapper = self._wrapper(key, original)
            holders = [owner] if cls_name else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches = []

    def _wrapper(self, key: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        is_sweep = key == "steinberg.sweep"

        def wrapper(*args, **kwargs):
            stat = tracer.stats[key]
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
                if stat.durations is not None:
                    stat.durations.append(elapsed)
            if result is not None:
                stat.fired += 1
            if is_sweep:
                tracer.sweeps.append((args[0].name, elapsed, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrapper_cost_s(self) -> float:
        """The wrappers' own cost over the recorded calls: the extra time a
        wrapped no-op takes over a bare one, times the calls recorded."""
        probe = Tracer()
        probe.stats["noop"] = Stat(keep_durations=False)
        wrapped = probe._wrapper("noop", _noop)
        extra = _per_call_seconds(wrapped) - _per_call_seconds(_noop)
        return extra * sum(s.calls for s in self.stats.values())

    def setup_metrics(self) -> dict:
        return {name: (self.stats[key].total * 1e3, "ms")
                for key, name in SETUP_LAYERS.items() if key in self.stats}

    def phase_metrics(self, row_slugs) -> dict:
        """Per-layer metrics of the timed phase."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}_calls"] = (stat.calls, "count")
            out[f"{key}_self_s"] = (stat.self_time, "s")
        verify = self.stats.get("steinberg.verify_element")
        if verify is not None:
            durations = sorted(verify.durations)
            out["steinberg.verify_element_p50_us"] = (
                _quantile(durations, 0.50) * 1e6, "us")
            out["steinberg.verify_element_p99_us"] = (
                _quantile(durations, 0.99) * 1e6, "us")
        witnesses = [self.stats[k] for k in WITNESS_KEYS if k in self.stats]
        if witnesses:
            out["steinberg.witness_tried"] = (sum(s.calls for s in witnesses), "count")
            out["steinberg.witness_fired"] = (sum(s.fired for s in witnesses), "count")
        check = self.stats.get("steinberg.check_counterexample")
        if check is not None:
            out["steinberg.check_counterexample_ms"] = (check.total * 1e3, "ms")
        out["trace.wrapper_cost_s"] = (self.wrapper_cost_s(), "s")
        if "steinberg.sweep" in self.stats:
            try:
                out.update(self._sweep_metrics(row_slugs))
            except Exception:       # the sweep report no longer has a field
                traceback.print_exc()
                print("trace: sweep metrics absent", file=sys.stderr)
        return out

    def _sweep_metrics(self, row_slugs) -> dict:
        per_row = dict.fromkeys(row_slugs, 0.0)
        totals = dict.fromkeys(("examined", "with_fixed_point", "violation_count",
                                "confirmed_exactly"), 0)
        clean_s = clean_parts = dirty_s = dirty_violations = 0
        for group, elapsed, rep in self.sweeps:
            per_row[slug(group)] = per_row.get(slug(group), 0.0) + elapsed
            for field in totals:
                totals[field] += getattr(rep, field)
            if rep.violation_count:
                dirty_s += elapsed
                dirty_violations += rep.violation_count
            else:
                clean_s += elapsed
                clean_parts += len(crystref.build_group(group)
                                   .elements_of_linear_part())
        out = {f"steinberg.sweep_s.{s}": (v, "s") for s, v in per_row.items()}
        # 0 when the workload made no sweep of that kind
        out["steinberg.sweep_us_per_linear_part"] = (
            clean_s / clean_parts * 1e6 if clean_parts else 0.0, "us")
        out["steinberg.sweep_us_per_violation"] = (
            dirty_s / dirty_violations * 1e6 if dirty_violations else 0.0, "us")
        out["steinberg.examined"] = (totals["examined"], "count")
        out["steinberg.with_fixed_point"] = (totals["with_fixed_point"], "count")
        out["steinberg.violations"] = (totals["violation_count"], "count")
        out["steinberg.confirmed_exactly"] = (totals["confirmed_exactly"], "count")
        return out


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def slug(group_name: str) -> str:
    """Metric-safe row name: "[G(6,6,3)]_1" -> "G6-6-3_1",
    "[G(2,1,2)]^a_4" -> "G2-1-2a_4"."""
    out = group_name
    for old, new in (("[", ""), ("]", ""), ("(", ""), (")", ""), (",", "-"),
                     ("^", "")):
        out = out.replace(old, new)
    return out


# -- fixed-operand probes -----------------------------------------------------

def _noop():
    return None


def _per_call_seconds(fn, target_s: float = 0.03, batches: int = 7) -> float:
    """Median over batches of the per-call time of fn(), each batch about
    target_s long."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    n = max(1, int(target_s / once))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples)


def _probes():
    """(metric name, unit scale, zero-argument callable) per probe."""
    ring6 = crystref.Ring(6)
    a = crystref.parse_scalar(ring6, "2/3 + 5/7*x")
    b = crystref.parse_scalar(ring6, "-3/4 + 1/5*x")
    g663 = crystref.build_group("[G(6,6,3)]_1")
    g213 = crystref.build_group("[G(2,1,3)]^a_3")
    cx = g663.counterexample
    cx_alpha = g213.counterexample
    space = functools.cache(lambda: crystref.fixed_space(cx))
    return [
        ("scalars.mul_us", lambda: a * b),
        ("scalars.inverse_us", lambda: a.inverse()),
        ("lattices.contains_us", lambda: g663.lattice.contains(cx.tran)),
        ("affine.fixed_space_us", lambda: crystref.fixed_space(cx)),
        ("affine.fixed_space_alpha_us", lambda: crystref.fixed_space(cx_alpha)),
        ("affine.compose_us", lambda: crystref.compose(cx, cx)),
        ("hyperplanes.subspace_on_arrangement_us",
         lambda: crystref.subspace_on_arrangement(g663, space())),
        ("hyperplanes.off_arrangement_point_us",
         lambda: crystref.off_arrangement_point(g663, space())),
    ]


def probe_metrics() -> dict:
    """Microsecond timings on fixed operands; a probe whose public function is
    gone is reported on stderr and left out."""
    try:
        probes = _probes()
    except Exception:
        traceback.print_exc()
        return {}
    out = {}
    for name, fn in probes:
        try:
            out[name] = (_per_call_seconds(fn) * 1e6, "us")
        except Exception:
            traceback.print_exc()
            print(f"trace: probe {name} failed; metric absent", file=sys.stderr)
    return out
