"""Outside-in tracer: spans around elladic's public functions and methods.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces every public
module-level function of the layer modules with a timing wrapper, and rebinds
the wrapper in every ``elladic.*`` module that holds the same object
(``from .measures import integrate`` copies the binding into ``lfunctions``
and ``cli``, so patching ``measures`` alone would miss those calls).  Public
methods and dunder methods of public classes are wrapped in place.

Self time is a span's duration minus the time covered by its child spans; it
includes the Fraction and integer arithmetic the function does itself.
Private helpers (names starting with ``_``) are not wrapped, so their time
counts to whichever public caller ran them, even across modules (e.g.
``lfunctions`` calling ``measures._fraction_to_padic_abs``).  Properties and
generator bodies are not timed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("padic", "bernoulli", "measures", "transforms", "ncseries", "lfunctions", "cli")
SPAN_FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns", "self_ns")
_SKIP_DUNDERS = {"__repr__", "__setattr__", "__delattr__", "__hash__", "__getattribute__",
                 "__init_subclass__", "__class_getitem__", "__post_init__"}


def _p_terms(args, kwargs):
    """Nonzero cells times multi-indices of a p/f transform call."""
    mu, degree = args[0], args[1]
    level = args[2] if len(args) > 2 else kwargs.get("level")
    total = args[3] if len(args) > 3 else kwargs.get("total", True)
    level = mu.depth if level is None else level
    r = mu.rank
    indices = math.comb(degree + r, r) if total else (degree + 1) ** r
    return indices * sum(1 for v in mu.levels[level] if v)


# name -> (counter name, f(args, kwargs, result) -> amount, combine)
COUNTERS = {
    "measures.MeasureTower.__init__":
        ("measures.cells", lambda a, k, r: sum(len(t) for t in a[3]), "sum"),
    "transforms.p_transform": ("transforms.moment_terms", lambda a, k, r: _p_terms(a, k), "sum"),
    "transforms.f_transform": ("transforms.moment_terms", lambda a, k, r: _p_terms(a, k), "sum"),
    "bernoulli.bernoulli_number": ("bernoulli.max_index", lambda a, k, r: a[0], "max"),
    "ncseries.NcSeries.__mul__": ("ncseries.terms", lambda a, k, r: len(r.coeffs), "sum"),
}


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        # one int64 column per SPAN_FIELDS entry: ~56 bytes a span, where a
        # list of tuples would take ~200 (busy workloads keep ~10^6 spans)
        self.columns = [array("q") for _ in SPAN_FIELDS]
        self.stack = []          # [span id, child ns] of open spans
        self.counts = defaultdict(int)
        self.request = -1
        self._next_id = 0

    # -- installation --------------------------------------------------------

    def install(self, package="elladic"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package or n.startswith(package + ".")) and m is not None]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{name}")
                    for holder in modules:
                        for attr, val in list(vars(holder).items()):
                            if val is obj:
                                setattr(holder, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{layer}.{name}")

    def _wrap_class(self, cls, prefix):
        for name, attr in list(vars(cls).items()):
            dunder = name.startswith("__") and name.endswith("__")
            if (name.startswith("_") and not dunder) or name in _SKIP_DUNDERS:
                continue
            span = f"{prefix}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, span)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, span)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, span))

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        stack, counts = self.stack, self.counts
        sids, parents, requests, names, starts, ends, selfs = self.columns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                sids.append(sid)
                parents.append(parent)
                requests.append(tracer.request)
                names.append(name_id)
                starts.append(t0)
                ends.append(t1)
                selfs.append(dur - frame[1])
            if counter is not None:
                key, fn_count, combine = counter
                amount = fn_count(args, kwargs, result)
                counts[key] = max(counts[key], amount) if combine == "max" else counts[key] + amount
            return result

        return wrapper

    # -- read-out ---------------------------------------------------------------

    def self_times(self, factors):
        """Self time (seconds, each span scaled by its request's factor) and
        call count per span name."""
        total = defaultdict(float)
        calls = defaultdict(int)
        _, _, requests, names, _, _, selfs = self.columns
        for request, name_id, self_ns in zip(requests, names, selfs):
            total[name_id] += self_ns * factors[request]
            calls[name_id] += 1
        return {self.names[i]: (total[i] / 1e9, calls[i]) for i in total}

    @property
    def span_count(self):
        return len(self.columns[0])

    def write(self, path):
        """Gzipped JSON: {"names": [...], "columns": {field: [...]}}; the
        "name" column indexes "names", wall times are raw nanoseconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"names":' + json.dumps(self.names) + ',"columns":{')
            for i, (field, column) in enumerate(zip(SPAN_FIELDS, self.columns)):
                fh.write(("," if i else "") + json.dumps(field) + ":" + json.dumps(column.tolist()))
            fh.write("}}")
