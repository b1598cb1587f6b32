"""In-memory span tracing installed from outside the library.

A :class:`Tracer` replaces each public function of the affcopy layer
modules -- including every module attribute that re-imports one, such as
``slowseq.normalize`` -- and the public ``IntervalSet`` methods with timing
wrappers. Each call appends one span ``[name, start, end, parent, case]`` to a
list; nothing is written until the run ends. Hooks on a few functions count
work at the same boundary (parts in and out, endpoint bit lengths, checks
run, rungs tried), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter

SETUP = "setup"

#: The library modules traced, in the order their layers are reported.
LAYERS = ("intervals", "slowseq", "cantor", "avoider", "presets", "mixedradix",
          "expbounds", "propcheck", "cli")

#: ``as_fraction`` runs twice per Interval construction; a span there would cost
#: far more than the work it times and bury every other span.
UNTRACED = frozenset({"intervals.as_fraction"})

#: Kernel op -> span name. These five produce the canonical sets whose part
#: counts and endpoint bit lengths are counted.
KERNEL_OPS = {
    "normalize": "intervals.normalize",
    "union": "intervals.IntervalSet.union",
    "intersect": "intervals.IntervalSet.intersect",
    "difference": "intervals.IntervalSet.difference",
    "union_all": "intervals.union_all",
}
#: Span name -> the name its ``.calls`` and ``.self_s`` metrics go under.
_METRIC_PREFIX = {span: f"intervals.{op}" for op, span in KERNEL_OPS.items()}

#: Waste ratios: metric -> (numerator counter, denominator counter).
_RATIOS = {
    "slowseq.indices_validated_per_head_part": ("slowseq.indices_validated",
                                                "slowseq.head_parts"),
    "avoider.rungs_per_certificate": ("avoider.rungs_tried", "avoider.certificates"),
}

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = tuple(
    [(f"intervals.{op}.{field}", unit, "lower")
     for op in KERNEL_OPS
     for field, unit in (("calls", "count"), ("self_s", "s"),
                         ("parts_in", "count"), ("parts_out", "count"))]
    + [
        ("intervals.self_s", "s", "lower"),
        ("intervals.max_num_bits", "bits", "lower"),
        ("intervals.max_den_bits", "bits", "lower"),
        ("slowseq.decompose_translates.calls", "count", "lower"),
        ("slowseq.decompose_translates.self_s", "s", "lower"),
        ("slowseq.indices_validated_per_head_part", "ratio", "lower"),
        ("slowseq.coverage01.self_s", "s", "lower"),
        ("slowseq.threshold_index.calls", "count", "lower"),
        ("slowseq.build_mu.self_s", "s", "lower"),
        ("cantor.build_cantor.self_s", "s", "lower"),
        ("cantor.verify_cantor.self_s", "s", "lower"),
        ("cantor.truncated_union_cover.self_s", "s", "lower"),
        ("cantor.remnants_built", "count", "lower"),
        ("cantor.checks_run", "count", "higher"),
        ("avoider.build_avoider.self_s", "s", "lower"),
        ("avoider.find_embedding.self_s", "s", "lower"),
        ("avoider.rungs_tried", "count", "lower"),
        ("avoider.rungs_per_certificate", "ratio", "lower"),
        ("avoider.plan_budget.calls", "count", "lower"),
        ("avoider.measure_union_translates.self_s", "s", "lower"),
        ("presets.threshold_sequence_from.self_s", "s", "lower"),
        ("presets.alpha_vector.self_s", "s", "lower"),
        ("mixedradix.make_system.self_s", "s", "lower"),
        ("mixedradix.nested_intersect.self_s", "s", "lower"),
        ("mixedradix.self_s", "s", "lower"),
        ("expbounds.exp_bounds.calls", "count", "lower"),
        ("expbounds.self_s", "s", "lower"),
        ("propcheck.run_kernel_property_suite.self_s", "s", "lower"),
        ("propcheck.checks_run", "count", "higher"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("bench.check.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ])


class NullTracer:
    """The untraced stand-in: spans and counts cost one call and record nothing."""

    case = None

    def span(self, name):
        return nullcontext()

    def count(self, key, amount=1):
        pass


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.record = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.record)
        return False


class Tracer:
    """Records spans and per-phase counters; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.case = SETUP
        self._stack = []
        self._counters = {True: Counter(), False: Counter()}  # keyed by "in set-up"
        self._patches = []

    # -- recording ----------------------------------------------------------

    @property
    def counters(self) -> Counter:
        return self._counters[self.case == SETUP]

    def count(self, key, amount=1):
        self.counters[key] += amount

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record):
        record[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(fn, args, kwargs)
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if after is not None:
                after(tracer.counters, fn, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer functions of ``package`` (the imported affcopy)."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__ and name not in UNTRACED):
                    wrappers[value] = self._wrap(name, value)
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        interval_set = package.intervals.IntervalSet
        for attr, value in list(vars(interval_set).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                self._patch(interval_set, attr,
                            self._wrap(f"intervals.IntervalSet.{attr}", value))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, case in self.spans:
                handle.write(json.dumps([name, start, end, parent, case]) + "\n")


# ---------------------------------------------------------------------------
# hooks: (before, after) per span name
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _materialize_first(fn, args, kwargs):
    """Turn the iterable argument into a list, so its size can be counted."""
    if args:
        return (list(args[0]),) + tuple(args[1:]), kwargs
    (key, value), = kwargs.items()
    return args, {key: list(value)}


def _first_argument(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _kernel_after(op, parts_in):
    def after(counters, fn, args, kwargs, result):
        counters[f"intervals.{op}.parts_in"] += parts_in(args, kwargs)
        counters[f"intervals.{op}.parts_out"] += len(result.parts)
        num = den = 0
        for part in result.parts:
            for x in (part.lo, part.hi):
                num = max(num, abs(x.numerator).bit_length())
                den = max(den, x.denominator.bit_length())
        counters["intervals.max_num_bits"] = max(counters["intervals.max_num_bits"], num)
        counters["intervals.max_den_bits"] = max(counters["intervals.max_den_bits"], den)
    return after


def _binary_parts(args, kwargs):
    other = args[1] if len(args) > 1 else kwargs["other"]
    return len(args[0].parts) + len(other.parts)


def _decompose_after(counters, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    counters["slowseq.indices_validated"] += bound["m_horizon"] - bound["m0"] + 1
    counters["slowseq.head_parts"] += len(result.disjoint_part.parts)


def _build_cantor_after(counters, fn, args, kwargs, result):
    counters["cantor.remnants_built"] += sum(len(lv.remnants) for lv in result.levels)


def _verify_cantor_after(counters, fn, args, kwargs, result):
    counters["cantor.checks_run"] += result.checks_run


def _find_embedding_after(counters, fn, args, kwargs, result):
    counters["avoider.rungs_tried"] += len(result.trace)
    counters["avoider.certificates"] += 1


def _property_suite_after(counters, fn, args, kwargs, result):
    counters["propcheck.checks_run"] += result.checks_run


_HOOKS = {
    KERNEL_OPS["normalize"]: (
        _materialize_first,
        _kernel_after("normalize", lambda a, k: len(_first_argument(a, k)))),
    KERNEL_OPS["union_all"]: (
        _materialize_first,
        _kernel_after("union_all",
                      lambda a, k: sum(len(s.parts) for s in _first_argument(a, k)))),
    KERNEL_OPS["union"]: (None, _kernel_after("union", _binary_parts)),
    KERNEL_OPS["intersect"]: (None, _kernel_after("intersect", _binary_parts)),
    KERNEL_OPS["difference"]: (None, _kernel_after("difference", _binary_parts)),
    "slowseq.decompose_translates": (None, _decompose_after),
    "cantor.build_cantor": (None, _build_cantor_after),
    "cantor.verify_cantor": (None, _verify_cantor_after),
    "avoider.find_embedding": (None, _find_embedding_after),
    "propcheck.run_kernel_property_suite": (None, _property_suite_after),
}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for record in spans:
        if record[3] >= 0:
            children[record[3]].append((record[1], record[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, cases: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER value: one traced set-up plus one average traced case.

    Counts and self times are the set-up's total plus the cases' total divided
    by ``cases``, so two commits compare at equal work whatever their speed.
    Ratios divide totals; bit lengths are maxima.
    """
    totals = {True: defaultdict(float), False: defaultdict(float)}
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        phase = totals[record[4] == SETUP]
        name = _METRIC_PREFIX.get(record[0], record[0])
        phase[name + ".calls"] += 1
        phase[name + ".self_s"] += own
        phase[name.partition(".")[0] + ".self_s"] += own
    for in_setup, counter in tracer._counters.items():
        totals[in_setup].update(counter)
    setup, per_cases = totals[True], totals[False]

    values = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = overhead_ratio
        elif name in _RATIOS:
            num, den = (setup[key] + per_cases[key] for key in _RATIOS[name])
            values[name] = num / den if den else 0.0
        elif name.endswith("_bits"):
            values[name] = max(setup[name], per_cases[name])
        else:
            values[name] = setup[name] + per_cases[name] / cases
    return values
