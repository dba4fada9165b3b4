"""In-memory call tracing of the library's public functions.

`Tracer.install` replaces every binding of each traced function across the
loaded ``padicglue`` modules (modules copy names with ``from .geometry
import image_of_ball``, so patching only the defining module would miss
calls) and every alias of each traced method on its class (``RationalMap``
binds ``eval`` also as ``__call__``).  `Tracer.restore` puts the original
objects back and checks that it did.

Spanned functions record (name, start, end, parent, op) in a list; counted
methods only bump a counter, because ``KElement`` arithmetic runs millions
of times per run.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (module, qualified name) of every function that gets a span; the metric
# name is the module's short name and the qualified name
SPANNED = (
    ("padicglue.field", "reduce_mod"),
    ("padicglue.algebra", "Poly.recenter"),
    ("padicglue.algebra", "gauss_norm_exp"),
    ("padicglue.algebra", "count_roots_with_min_valuation"),
    ("padicglue.algebra", "poly_gcd"),
    ("padicglue.algebra", "RationalMap.eval"),
    ("padicglue.geometry", "pole_free_on_ball"),
    ("padicglue.geometry", "image_of_ball"),
    ("padicglue.geometry", "sup_norm_exp_on_ball"),
    ("padicglue.geometry", "wdeg"),
    ("padicglue.geometry", "sample_points"),
    ("padicglue.gluing", "plan_gluing"),
    ("padicglue.gluing", "build_F"),
    ("padicglue.gluing", "certify_theorem1"),
    ("padicglue.dynamics", "verify_census"),
    ("padicglue.dynamics", "classify_disk"),
    ("padicglue.dynamics", "hensel_fixed_point"),
    ("padicglue.dynamics", "orbit"),
    ("padicglue.serialize", "result_to_json"),
    ("padicglue.serialize", "result_from_json"),
    ("padicglue.serialize", "read_json"),
    ("padicglue.serialize", "write_json"),
    ("padicglue.cli", "main"),
)

# (module, qualified name, counter): field arithmetic is counted, not spanned.
# __rsub__ and __truediv__ delegate to counted methods, so they are not wrapped.
COUNTED = (
    ("padicglue.field", "KElement.__mul__", "field.KElement.mul.calls"),
    ("padicglue.field", "KElement.__add__", "field.KElement.addsub.calls"),
    ("padicglue.field", "KElement.__sub__", "field.KElement.addsub.calls"),
    ("padicglue.field", "KElement.inverse", "field.KElement.inverse.calls"),
    ("padicglue.field", "KElement.valuation", "field.KElement.valuation.calls"),
)

OP_SPAN = "op"
CERTIFY = "gluing.certify_theorem1"


def metric_name(module: str, qualname: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + qualname


def coord_bits(x) -> int:
    """Largest numerator or denominator bit length of a K element."""
    return max(
        x.a.numerator.bit_length(),
        x.a.denominator.bit_length(),
        x.b.numerator.bit_length(),
        x.b.denominator.bit_length(),
    )


class Tracer:
    OP_SPAN = OP_SPAN

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, op index]
        self.stack = []  # indices of open spans
        self.names = []  # names of open spans, parallel to stack
        self.counts = Counter()
        self.op_index = None
        self._patches = []  # (owner, attribute, original)
        self._hooks = {
            "algebra.Poly.recenter": self._on_recenter,
            "algebra.RationalMap.eval": self._on_value,
            "field.reduce_mod": self._on_reduce_mod,
            "gluing.build_F": self._on_build_F,
            "gluing.certify_theorem1": self._on_certify,
            "dynamics.hensel_fixed_point": self._on_value,
            "dynamics.orbit": self._on_orbit,
            "serialize.read_json": self._on_read_json,
            "serialize.write_json": self._on_write_json,
        }

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _library_modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "padicglue" or name.startswith("padicglue."))
        ]

    def _rebind(self, module_name: str, qualname: str, make_wrapper) -> None:
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owners = [getattr(module, cls_name)]
            original = vars(owners[0])[attr]
        else:
            owners = self._library_modules()
            original = getattr(module, qualname)
        wrapper = make_wrapper(original)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, qualname in SPANNED:
            name = metric_name(module_name, qualname)
            self._rebind(module_name, qualname, lambda fn, n=name: self._span_wrapper(n, fn))
        for module_name, qualname, counter in COUNTED:
            self._rebind(module_name, qualname, lambda fn, c=counter: self._count_wrapper(c, fn))

    def restore(self) -> None:
        """Put every original binding back; raise if one did not stick."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"binding {attr} of {owner!r} was not restored")

    def _span_wrapper(self, name: str, fn):
        spans, stack, names, clock = self.spans, self.stack, self.names, self.clock
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_index]
            spans.append(span)
            stack.append(index)
            names.append(name)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                names.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    # -- ops ------------------------------------------------------------------

    def run_op(self, index: int, fn, *args):
        """Run one op under a root span so every layer span has an op."""
        self.op_index = index
        return self._span_wrapper(OP_SPAN, fn)(*args)

    # -- hooks: counts measured where the work happens -------------------------

    def _bits(self, x) -> None:
        b = coord_bits(x)
        if b > self.counts["field.max_coord_bits"]:
            self.counts["field.max_coord_bits"] = b

    def _on_value(self, args, result) -> None:
        if hasattr(result, "a"):  # a K element, not the POLE marker
            self._bits(result)

    def _on_recenter(self, args, result) -> None:
        d = args[0].degree
        if d > 0:
            self.counts["algebra.Poly.recenter.coeff_ops"] += d * (d + 1) // 2
        if CERTIFY in self.names:
            self.counts["recenter_in_certify"] += 1

    def _on_reduce_mod(self, args, result) -> None:
        self._bits(args[0])

    def _on_build_F(self, args, result) -> None:
        for poly in (result.num, result.den):
            for c in poly.coeffs:
                self._bits(c)

    def _on_certify(self, args, result) -> None:
        self.counts["balls_certified"] += len(result.checks)
        self.counts["gluing.samples_checked"] += sum(len(ch.witnesses) for ch in result.checks)

    def _on_orbit(self, args, result) -> None:
        self.counts["dynamics.orbit.steps"] += len(result) - 1
        for step in result:
            if step.point is not None:
                self._bits(step.point)

    def _on_read_json(self, args, result) -> None:
        self.counts["serialize.bytes_read"] += os.path.getsize(args[0])

    def _on_write_json(self, args, result) -> None:
        self.counts["serialize.bytes_written"] += os.path.getsize(args[0])

    # -- summaries ---------------------------------------------------------------

    def layer_table(self, op_factors) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all recorded spans,
        each span's times scaled by its op's reference-speed factor."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += (end - start) * op_factors[op]
            row["self_s"] += (end - start - child[i]) * op_factors[op]
        return dict(table)

    def span_dump(self) -> dict:
        """Spans for the trace file, with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
