"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds the public callables of each fqphi layer, in
every fqphi module namespace that holds them (``gfpoly.factor`` and
``totient.factor`` alike) and on the Poly/FieldSpec classes, with wrappers
that time or count each call.  ``uninstall`` puts the originals back.

Two granularities keep memory bounded:

* Coarse boundaries (verify suite, pass, query, ``phi_table``,
  ``represent``) keep one span per call: [name, start, end, parent span].
* Fine boundaries keep only aggregates: calls, self time, and inclusive time
  of the outermost call.  Field element operations are only counted, by
  ``install_field_op_counters`` in a cycle of their own, because a timer
  around a sub-microsecond call measures the timer.

Self time is a call's duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import copy
import inspect
import itertools
import sys
from contextlib import contextmanager
from time import perf_counter

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "elem_pow")

# Fine boundaries: (module, attribute, layer name).
TIMED = (
    ("gfpoly", "gcd", "gfpoly.gcd"),
    ("gfpoly", "powmod", "gfpoly.powmod"),
    ("gfpoly", "factor", "gfpoly.factor"),
    ("gfpoly", "is_irreducible", "gfpoly.is_irreducible"),
    ("totient", "signature", "totient.signature"),
    ("totient", "phi", "totient.phi"),
    ("totient", "sigma", "totient.sigma"),
    ("collision", "same_phi", "collision.same_phi"),
    ("preimage", "degree_bound", "preimage.degree_bound"),
    ("preimage", "preimage_count", "preimage.preimage_count"),
    ("preimage", "count_profile", "preimage.count_profile"),
    ("density", "phi_values_up_to", "density.phi_values_up_to"),
    ("erdos", "intersection_member", "erdos.intersection_member"),
    ("erdos", "intersection_up_to", "erdos.intersection_up_to"),
)
METHODS = (
    ("FieldSpec", "__init__", "gfpoly.FieldSpec.init"),
    ("Poly", "__mul__", "gfpoly.Poly.mul"),
    ("Poly", "__divmod__", "gfpoly.Poly.divmod"),
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []   # open calls: [start, child time]
        self.stats: dict[str, list] = {}     # name -> [calls, self s, incl s]
        self.depth: dict[str, int] = {}      # open calls per name
        self.spans: list[list] = []          # [name, start, end, parent]
        self.open_spans: list[int] = []
        self.field_ops = itertools.count()
        self.monic_items = itertools.count()
        self.extra: dict[str, float] = {}
        self._restore: list[tuple] = []
        self._seen_tables: set = set()
        self._last_bound: tuple[int, int] | None = None

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name: str, coarse: bool):
        frame = [perf_counter(), 0.0, None]
        self.stack.append(frame)
        self.depth[name] = self.depth.get(name, 0) + 1
        if coarse:
            parent = self.open_spans[-1] if self.open_spans else None
            frame[2] = len(self.spans)
            self.spans.append([name, frame[0], None, parent])
            self.open_spans.append(frame[2])
        return frame

    def _exit(self, name: str, frame) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[0]
        if self.stack:
            self.stack[-1][1] += duration
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration - frame[1]
        self.depth[name] -= 1
        if not self.depth[name]:
            rec[2] += duration
        if frame[2] is not None:
            self.spans[frame[2]][2] = end
            self.open_spans.pop()

    def timed(self, name: str, fn, coarse: bool = False, after=None):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(name, coarse)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A coarse span around the benchmark's own call into a layer."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame)

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fqphi" and not mod_name.startswith("fqphi."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, fq) -> None:
        """Wrap every traced callable of the imported fqphi package."""
        nt, gf = fq.numtheory, fq.gfpoly
        for attr, fn in list(vars(nt).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == nt.__name__):
                self._rebind(fn, self.timed(f"numtheory.{attr}", fn))
        for mod_name, attr, name in TIMED:
            fn = getattr(getattr(fq, mod_name), attr)
            after = {"preimage.degree_bound": self._after_degree_bound,
                     "density.phi_values_up_to": self._after_values}.get(name)
            self._rebind(fn, self.timed(name, fn, after=after))
        pre = fq.preimage
        self._rebind(pre.phi_table, self.timed(
            "preimage.phi_table", pre.phi_table, coarse=True,
            after=self._after_phi_table))
        self._rebind(pre.represent, self.timed(
            "preimage.represent", pre.represent, coarse=True,
            after=self._after_represent))
        self._rebind(gf.enumerate_monic,
                     self._counted_gen(gf.enumerate_monic, self.monic_items))
        for cls_name, attr, name in METHODS:
            cls = getattr(gf, cls_name)
            self._patch_method(cls, attr, self.timed(name, cls.__dict__[attr]))

    def install_field_op_counters(self, fq) -> None:
        """Count FieldSpec element operations.  This runs in a cycle of its
        own: tens of millions of counted calls would otherwise inflate the
        self time of every layer above them."""
        tick = self.field_ops.__next__
        spec = fq.gfpoly.FieldSpec
        for attr in FIELD_OPS:
            self._patch_method(spec, attr,
                               self._counted(spec.__dict__[attr], tick))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @staticmethod
    def _counted(fn, tick):
        def wrapper(*args):
            tick()
            return fn(*args)
        return wrapper

    @staticmethod
    def _counted_gen(fn, counter):
        tick = counter.__next__

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tick()
                yield item
        return wrapper

    # -- counters measured where the work happens ---------------------------

    def _add(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def _after_degree_bound(self, args, result) -> None:
        self._last_bound = (args[0], result)

    def _after_values(self, args, result) -> None:
        self._add("density.phi_values_up_to.values", len(result))

    def _after_represent(self, args, result) -> None:
        self._add("represent.found", 1 if result else 0)

    def _after_phi_table(self, args, table) -> None:
        key = (args[0], args[1])
        if key in self._seen_tables:
            self._add("phi_table.hits")
            return
        self._seen_tables.add(key)
        monics = sum(len(polys) for polys in table.values())
        # The caller's bound is the n it just passed to degree_bound; with
        # no such call every tabulated monic counts as useful.
        bound = None
        if self._last_bound is not None and self._last_bound[1] == args[1]:
            bound = self._last_bound[0]
        useful = monics if bound is None else sum(
            len(polys) for value, polys in table.items() if value <= bound)
        self._add("preimage.phi_table.monics", monics)
        self._add("phi_table.useful", useful)

    # -- results ------------------------------------------------------------

    def field_op_calls(self) -> int:
        return _value(self.field_ops)

    def metrics(self, suites) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the timed layers as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def stat(name: str) -> list:
            return self.stats.get(name, [0, 0.0, 0.0])

        def calls_self(name: str) -> None:
            calls, self_s, _ = stat(name)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")

        out["numtheory.is_prime.calls"] = (stat("numtheory.is_prime")[0],
                                           "count")
        out["numtheory.self_s"] = (sum(
            rec[1] for name, rec in self.stats.items()
            if name.startswith("numtheory.")), "s")
        out["gfpoly.FieldSpec.init_s"] = (stat("gfpoly.FieldSpec.init")[2], "s")
        for name in ("gfpoly.Poly.mul", "gfpoly.Poly.divmod", "gfpoly.gcd",
                     "gfpoly.powmod", "gfpoly.factor", "gfpoly.is_irreducible"):
            calls_self(name)
        out["gfpoly.enumerate_monic.items"] = (_value(self.monic_items),
                                               "count")
        for name in ("totient.signature", "totient.phi", "totient.sigma",
                     "collision.same_phi", "preimage.phi_table"):
            calls_self(name)
        tables = stat("preimage.phi_table")[0]
        monics = self.extra.get("preimage.phi_table.monics", 0)
        out["preimage.phi_table.monics"] = (monics, "count")
        out["preimage.phi_table.hit_ratio"] = (
            _ratio(self.extra.get("phi_table.hits", 0), tables), "ratio")
        out["preimage.phi_table.useful_ratio"] = (
            _ratio(self.extra.get("phi_table.useful", 0), monics), "ratio")
        for name in ("preimage.degree_bound", "preimage.represent",
                     "preimage.preimage_count", "preimage.count_profile"):
            calls_self(name)
        out["preimage.represent.found_ratio"] = (_ratio(
            self.extra.get("represent.found", 0),
            stat("preimage.represent")[0]), "ratio")
        calls_self("density.phi_values_up_to")
        out["density.phi_values_up_to.values"] = (
            self.extra.get("density.phi_values_up_to.values", 0), "count")
        calls_self("erdos.intersection_member")
        calls_self("erdos.intersection_up_to")
        for suite in suites:
            first = self.first_span(f"verify.{suite}")
            out[f"verify.{suite}.wall_s"] = (
                first[2] - first[1] if first else 0.0, "s")
        out["preimage.phi_table.erdos_share"] = (self.erdos_share(), "ratio")
        return out

    def first_span(self, name: str):
        return next((span for span in self.spans if span[0] == name), None)

    def erdos_share(self) -> float:
        """Share of the first erdos suite's wall time spent in phi_table
        spans (children included) below it."""
        suite = self.first_span("verify.erdos")
        if suite is None:
            return 0.0
        sid = self.spans.index(suite)
        inside = 0.0
        for name, start, end, parent in self.spans:
            if name == "preimage.phi_table" and self._below(parent, sid):
                inside += end - start
        return inside / (suite[2] - suite[1])

    def _below(self, span_id, ancestor: int) -> bool:
        while span_id is not None:
            if span_id == ancestor:
                return True
            span_id = self.spans[span_id][3]
        return False


def _value(counter) -> int:
    # Read an itertools.count without advancing it.
    return next(copy.copy(counter))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
