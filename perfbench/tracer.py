"""Per-layer tracing of opcalc from outside the program.

``Tracer.install`` wraps each boundary below: a method is replaced on its
class, and a module function is replaced in every module that binds it
by name (``pseries_exp`` lives in ``series`` and is also bound in
``umbral`` and in the package namespace), so no call escapes.  Each
wrapper counts calls and measures self time: its wall time minus the
time spent in wrapped calls it made.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (metric name, module, attribute path)
BOUNDARIES = (
    ("poly.mul", "opcalc.poly", "Poly.__mul__"),
    ("poly.add", "opcalc.poly", "Poly.__add__"),
    ("poly.compose", "opcalc.poly", "Poly.compose"),
    ("poly.parse_poly", "opcalc.poly", "parse_poly"),
    ("series.ss_mul", "opcalc.series", "SSeries.__mul__"),
    ("series.ss_invert", "opcalc.series", "SSeries.invert"),
    ("series.ss_compose", "opcalc.series", "SSeries.compose"),
    ("series.ss_reverse", "opcalc.series", "SSeries.reverse"),
    ("series.ps_mul", "opcalc.series", "PSeries.__mul__"),
    ("series.ps_invert", "opcalc.series", "PSeries.invert"),
    ("series.pseries_exp", "opcalc.series", "pseries_exp"),
    ("operators.table_row", "opcalc.operators", "OpTable.row"),
    ("operators.d_expand", "opcalc.operators", "d_expand"),
    ("operators.shift_invariance_check", "opcalc.operators", "shift_invariance_check"),
    ("expansions.xd_expand", "opcalc.expansions", "xd_expand"),
    ("expansions.xb_expand", "opcalc.expansions", "xb_expand"),
    ("expansions.divided_power_basis", "opcalc.expansions", "divided_power_basis"),
    ("dx.fit_diagonal", "opcalc.dx", "fit_diagonal"),
    ("dx.dx_check", "opcalc.dx", "dx_check"),
    ("dx.dx_construct", "opcalc.dx", "dx_construct"),
    ("dx.dx_apply", "opcalc.dx", "dx_apply"),
    ("umbral.umbral_op_dx", "opcalc.umbral", "umbral_op_dx"),
    ("umbral.delta_inverse", "opcalc.umbral", "delta_inverse"),
    ("umbral.sequences", "opcalc.umbral", "sequences"),
    ("normal_order.normal_order_DjXi", "opcalc.normal_order", "normal_order_DjXi"),
    ("normal_order.reorder_product", "opcalc.normal_order", "reorder_product"),
    ("dsl.parse_operator", "opcalc.dsl", "parse_operator"),
    ("cli.main", "opcalc.cli", "main"),
    ("cli.build_parser", "opcalc.cli", "build_parser"),
)


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Call counts and self time at every boundary, plus kernel counters."""

    def __init__(self):
        self.stats = {name: Stat() for name, _, _ in BOUNDARIES}
        self.mul_terms = 0
        self.coeff_bits_max = 0
        self.row_hits = 0
        self._stack: list = []  # time spent in wrapped children, one slot per open call
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stat, stack = self.stats[name], self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return traced

    def _counted_mul(self, fn):
        def mul(a, b):
            out = fn(a, b)
            if type(b) is type(a):
                self.mul_terms += len(a.coeffs) * len(b.coeffs)
                for c in out.coeffs:
                    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if bits > self.coeff_bits_max:
                        self.coeff_bits_max = bits
            return out

        return mul

    def _counted_row(self, fn):
        def row(table, n):
            if n in table._rows:
                self.row_hits += 1
            return fn(table, n)

        return row

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "opcalc" or name.startswith("opcalc."))]
        for name, modname, path in BOUNDARIES:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                inner = original
                if name == "poly.mul":
                    inner = self._counted_mul(original)
                elif name == "operators.table_row":
                    inner = self._counted_row(original)
                setattr(cls, attr, self._wrap(name, inner))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def metrics(self, pass_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics for a traced pass whose jobs took ``pass_s`` seconds."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
        rows = self.stats["operators.table_row"].calls
        out["poly.mul.terms"] = (self.mul_terms, "count")
        out["poly.coeff_bits_max"] = (self.coeff_bits_max, "count")
        out["operators.table_row.hit_ratio"] = (self.row_hits / rows if rows else 0.0, "ratio")
        attributed = sum(stat.self_s for stat in self.stats.values())
        out["trace.unattributed_s"] = (pass_s - attributed, "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
