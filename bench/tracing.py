"""Per-layer trace of the specpairs pipeline, installed from outside the package.

A layer is a module of the package.  `Tracer.install` wraps every public
module-level function of the traced modules, rebinds each name that another
module imported directly (such as `report.validate` or `cli.build_report`)
to the same wrapper, and wraps the public methods, constructor and
arithmetic operators of `SpectralPairTable` as the `pairs` layer.  Each call
records a span: name, start, end, parent span and op id.  Spans are kept in
compact arrays and written out when the run ends.

Exact counters ride along: constructions of `Fraction` (by wrapping
`Fraction.__new__`, through which every construction passes on
Python 3.11), of `CyclotomicFactorization` and of `SpectralPairTable`, and
the distinct argument tuples seen by the `localsing` and `milnor` layers.

`laurent` and `fractions` get counters but no spans, so their time is part
of the self time of whichever layer called them.  `__eq__` and `__hash__`
of the tables are not wrapped: the tracer hashes arguments itself, and
comparisons stay in the self time of their caller.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

SPAN_MODULES = ("cli", "model", "localsing", "milnor", "boundary", "bounds", "report")
TIMED_LAYERS = SPAN_MODULES + ("pairs",)
DISTINCT_ARG_LAYERS = ("localsing", "milnor")
TABLE_METHODS = ("__init__", "__add__", "__mul__", "__rmul__")


class Tracer:
    """Spans and counters for one traced pass.  Install, run, uninstall."""

    def __init__(self, op_boundary: str | None = None):
        # A span with this name starts a new op (census rows); otherwise the
        # caller sets `op` before each op.
        self.op_boundary = op_boundary
        self.op = -1
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.constructed = {"fractions": 0, "factorizations": 0}
        self.seen_args: dict[str, set] = {layer: set() for layer in DISTINCT_ARG_LAYERS}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        seen = self.seen_args.get(layer)
        starts_op = name == self.op_boundary
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if seen is not None:
                try:
                    seen.add((name_id, args, tuple(sorted(kwargs.items()))))
                except TypeError:  # unhashable arguments count as distinct
                    seen.add((name_id, id(args)))
            if starts_op:
                tracer.op += 1
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "specpairs" or name.startswith("specpairs.")
        }
        wrappers = {}
        for layer in SPAN_MODULES:
            mod = package[f"specpairs.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._span(f"{layer}.{attr}", obj)
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        table = package["specpairs.pairs"].SpectralPairTable
        for attr, raw in list(vars(table).items()):
            if attr.startswith("_") and attr not in TABLE_METHODS:
                continue
            name = f"pairs.SpectralPairTable.{attr}"
            if isinstance(raw, classmethod):
                self._patch(table, attr, classmethod(self._span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(table, attr, self._span(name, raw))

        constructed = self.constructed
        fraction_new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            constructed["fractions"] += 1
            return fraction_new(cls, *args, **kwargs)

        factorization = package["specpairs.laurent"].CyclotomicFactorization
        factorization_init = factorization.__init__

        def counting_init(obj, *args, **kwargs):
            constructed["factorizations"] += 1
            factorization_init(obj, *args, **kwargs)

        self._patch(Fraction, "__new__", counting_new)
        self._patch(factorization, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summarize(self, ops: int, traced_ns: int, untraced_ns: int) -> dict:
        """Per-layer metrics for `ops` ops whose traced wall time, measured
        outside the wrappers, totals `traced_ns`; `untraced_ns` is the same
        pass with the tracer removed."""
        count = len(self.span_start)
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        self_ns = duration[:]
        root_ns = 0
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                self_ns[parent] -= duration[i]
            else:
                root_ns += duration[i]
        by_name_ns = [0] * len(self.names)
        by_name_calls = [0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            by_name_ns[name_id] += self_ns[i]
            by_name_calls[name_id] += 1
        unattributed_ns = traced_ns - root_ns
        layer_ns = dict.fromkeys(TIMED_LAYERS, 0)
        layer_calls = dict.fromkeys(TIMED_LAYERS, 0)
        name_ns, name_calls = {}, {}
        unreported_spans = 0  # spans of a layer that has no metrics
        for name, ns, calls in zip(self.names, by_name_ns, by_name_calls):
            layer = name.split(".", 1)[0]
            if layer not in layer_ns:
                unreported_spans += calls
                continue
            layer_ns[layer] += ns
            layer_calls[layer] += calls
            name_ns[name] = ns
            name_calls[name] = calls

        def ms_per_op(ns):
            return ns / 1e6 / ops

        def per_op(n):
            return n / ops

        metrics = {}
        for layer in TIMED_LAYERS:
            metrics[f"{layer}.self_ms_per_op"] = (ms_per_op(layer_ns[layer]), "ms/op")
            metrics[f"{layer}.share"] = (layer_ns[layer] / traced_ns, "frac")
        for layer, metric in (
            ("localsing", "distinct_germ_ratio"),
            ("milnor", "distinct_args_ratio"),
        ):
            calls = layer_calls[layer]
            metrics[f"{layer}.calls_per_op"] = (per_op(calls), "calls/op")
            ratio = len(self.seen_args[layer]) / calls if calls else 0.0
            metrics[f"{layer}.{metric}"] = (ratio, "frac")
        metrics["localsing.spectrum_calls_per_op"] = (
            per_op(name_calls["localsing.spectrum"]), "calls/op")
        metrics["milnor.milnor_dim_calls_per_op"] = (
            per_op(name_calls["milnor.milnor_dim"]), "calls/op")
        metrics["bounds.mhat_calls_per_op"] = (per_op(name_calls["bounds.mhat"]), "calls/op")
        metrics["pairs.tables_per_op"] = (
            per_op(name_calls["pairs.SpectralPairTable.__init__"]), "count/op")
        metrics["laurent.factorizations_per_op"] = (
            per_op(self.constructed["factorizations"]), "count/op")
        metrics["fractions.constructed_per_op"] = (
            per_op(self.constructed["fractions"]), "count/op")
        metrics["report.checks_ms_per_op"] = (ms_per_op(name_ns["report.build_report"]), "ms/op")
        metrics["report.serialize_ms_per_op"] = (
            ms_per_op(sum(name_ns[f"report.{f}"]
                          for f in ("report_to_dict", "report_to_json", "render_text"))),
            "ms/op",
        )
        metrics["model.parse_ms_per_op"] = (ms_per_op(name_ns["model.parse_spec"]), "ms/op")
        metrics["model.validate_ms_per_op"] = (ms_per_op(name_ns["model.validate"]), "ms/op")
        metrics["trace.op_ms"] = (ms_per_op(traced_ns), "ms")
        metrics["trace.overhead_frac"] = ((traced_ns - untraced_ns) / traced_ns, "frac")
        metrics["trace.unattributed_share"] = (unattributed_ns / traced_ns, "frac")
        metrics["trace.spans_per_op"] = (per_op(count), "count/op")

        # A consistency check of the reported breakdown: the reported layers'
        # self times plus the unattributed time must give the traced op time.
        # It fails when a span falls in no reported layer, when a span's
        # children cover more than the span, or when the spans cover more
        # than the op time measured outside them.
        balance = {
            "layer_ns_total": sum(layer_ns.values()),
            "unattributed_ns": unattributed_ns,
            "traced_ns": traced_ns,
            "unreported_spans": unreported_spans,
            "negative_self_spans": sum(1 for v in self_ns if v < 0),
        }
        balance["adds_up"] = (
            balance["layer_ns_total"] + unattributed_ns == traced_ns
            and unreported_spans == 0
            and balance["negative_self_spans"] == 0
            and unattributed_ns >= 0
        )
        counters = {
            "spans": count,
            "fractions": self.constructed["fractions"],
            "factorizations": self.constructed["factorizations"],
            "calls": {n: c for n, c in sorted(name_calls.items()) if c},
            "distinct_args": {k: len(v) for k, v in self.seen_args.items()},
        }
        return {"metrics": metrics, "balance": balance, "counters": counters}

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header beside a binary file of the arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("span_name", "span_start", "span_end", "span_parent", "span_op")
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "fields": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as out:
            for f in fields:
                getattr(self, f).tofile(out)
