"""Per-layer spans, recorded from outside the library.

``Tracer.install`` replaces every public function of each bftorus layer
module, and the arithmetic methods of ``FieldElement``, with a wrapper
that records a span.  ``from .kernels import snf_rows`` copies a binding
into the importing module, so every ``bftorus.*`` module attribute that
holds a wrapped function object is rebound, not just the defining one.
``uninstall`` puts the originals back, so untraced and traced passes can
alternate in one process.

A span is (name, start, end, parent span, task).  Spans stay in memory,
in compact arrays, until ``reset``; a span's self time is its duration
minus the durations of its children.
Each task runs under a root span named ``bench.task``; its self time,
plus the spans the tracer adds for its own bookkeeping (``trace.*``),
is the benchmark's own time.
"""

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("kernels", "exactmat", "polyring", "ratlin", "numberfield", "ideals",
          "orders", "invariants")
# The kernels layer is implemented in a backend module and re-exported.
_IMPLEMENTED_IN = {"bftorus._kernels_py": "kernels"}
FIELD_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "rsub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "inverse": "inverse",
    "__truediv__": "truediv", "__rtruediv__": "rtruediv", "__pow__": "pow",
}
# Kernels whose largest entry (over the input and every output matrix)
# is recorded; entry growth is what modular normal forms would bound.
ENTRY_BITS = ("kernels.snf_rows", "kernels.hnf_cols")
ROOT = "bench.task"
BITS_SPAN = "trace.bits"
ACCOUNTING_TOLERANCE_S = 1e-6


def _max_bits(obj):
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(x) for x in obj), default=0)
    return 0


class TraceCheckFailed(Exception):
    pass


class Tracer:
    def __init__(self):
        self.names = []          # interned span names
        self._ids = {}
        self._bindings = []      # (owner, attribute, original) to restore
        self.reset()

    def reset(self):
        """Drop every recorded span."""
        self.name = array("l")   # per span: name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")  # index of the parent span, -1 for a root
        self.task = array("l")
        self.error = {}          # span index -> exception class name
        self.bits = {}           # span index -> largest entry bit length
        self.current = -1
        self.current_task = -1

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.task.append(self.current_task)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def _wrap(self, fn, span_name):
        nid = self._id(span_name)
        bits_id = self._id(BITS_SPAN) if span_name in ENTRY_BITS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = perf_counter()
                tracer.current = parent
                tracer.error[idx] = type(exc).__name__
                raise
            tracer.end[idx] = perf_counter()
            tracer.current = parent
            if bits_id is not None:
                # Measured under a span of its own, so that the scan is
                # charged to the tracer, not to the caller's self time.
                b = tracer._open(bits_id)
                tracer.bits[idx] = max(_max_bits(args), _max_bits(out))
                tracer.end[b] = perf_counter()
                tracer.current = parent
            return out

        return wrapper

    def run_task(self, task_id, fn, *args):
        """Call fn(*args) under a root span; returns (output, error, seconds)."""
        self.current_task = task_id
        idx = self._open(self._id(ROOT))
        t0 = self.start[idx]
        try:
            out, err = fn(*args), None
        except Exception as exc:  # a failing task is counted, the run goes on
            out, err = None, exc
        t1 = perf_counter()
        self.end[idx] = t1
        self.current = -1
        return out, err, t1 - t0

    def __len__(self):
        return len(self.start)

    # -- installing the wrappers -----------------------------------------

    def install(self):
        originals = {}  # id(function) -> (function, wrapper)
        for layer in LAYERS:
            module = sys.modules.get(f"bftorus.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = _IMPLEMENTED_IN.get(obj.__module__, obj.__module__)
                if home not in (layer, f"bftorus.{layer}"):
                    continue  # re-exported from another layer
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would close before the work is done
                if id(obj) not in originals:
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, module in list(sys.modules.items()):
            if modname != "bftorus" and not modname.startswith("bftorus."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        field_element = getattr(sys.modules.get("bftorus.numberfield"), "FieldElement", None)
        if field_element is not None:
            wrapped = {}
            for attr, short in FIELD_METHODS.items():
                fn = field_element.__dict__.get(attr)
                if fn is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, f"numberfield.FieldElement.{short}")
                self._bindings.append((field_element, attr, fn))
                setattr(field_element, attr, wrapped[id(fn)])

    def uninstall(self):
        for owner, attr, obj in reversed(self._bindings):
            setattr(owner, attr, obj)
        self._bindings.clear()

    # -- analysis ---------------------------------------------------------

    def pass_stats(self):
        """Counts and self times of the recorded spans, one pass of the list.

        Checks span accounting on the way: every span lies inside its
        parent and after its previous sibling, no self time is negative,
        and per task the self times of all layers plus the benchmark's
        own time add up to the root span's duration.
        """
        name, start, end, parent, task = self.name, self.start, self.end, self.parent, self.task
        names = self.names
        child = [0.0] * len(self)
        last_end = {}
        for i in range(len(self)):
            p = parent[i]
            if p < 0:
                continue
            if not (start[p] <= start[i] and end[i] <= end[p]):
                raise TraceCheckFailed(f"span {names[name[i]]} escapes its parent")
            if start[i] < last_end.get(p, start[p]):
                raise TraceCheckFailed(f"span {names[name[i]]} overlaps a sibling")
            last_end[p] = end[i]
            child[p] += end[i] - start[i]
        wanted = {"orders.enumerate_order_lattice", "invariants.bf_refute"}
        ancestors = [frozenset()] * len(self)  # the wanted spans that enclose span i
        calls, self_s, by_task, root_s = Counter(), Counter(), Counter(), {}
        under, nonintegral, max_bits = Counter(), 0, Counter()
        for i in range(len(self)):
            nm = names[name[i]]
            s = end[i] - start[i] - child[i]
            if s < -ACCOUNTING_TOLERANCE_S:
                raise TraceCheckFailed(f"span {nm} has negative self time")
            calls[nm] += 1
            self_s[nm] += s
            by_task[task[i]] += s
            p = parent[i]
            if p < 0:
                root_s[task[i]] = end[i] - start[i]
                continue
            enclosing = ancestors[p]
            if names[name[p]] in wanted:
                enclosing = enclosing | {names[name[p]]}
            ancestors[i] = enclosing
            for anc in enclosing:
                under[anc, nm] += 1
            if self.error.get(i) == "NonIntegralResult" and nm == "invariants.bf_group":
                nonintegral += 1
            if i in self.bits:
                max_bits[nm] = max(max_bits[nm], self.bits[i])
        for t, dur in root_s.items():
            if abs(by_task[t] - dur) > ACCOUNTING_TOLERANCE_S:
                raise TraceCheckFailed(f"task {t}: self times sum to {by_task[t]}, not {dur}")
        calls.pop(ROOT, None)
        calls.pop(BITS_SPAN, None)
        return {
            "calls": calls,
            "self_s": self_s,
            "solve_calls": under["orders.enumerate_order_lattice", "kernels.solve_upper_cols"],
            "candidates": under["invariants.bf_refute", "invariants.bf_group"],
            "nonintegral": nonintegral,
            "max_bits": max_bits,
        }

    def write(self, path):
        """Write every recorded span as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\ttask\terror\n")
            for i, nid in enumerate(self.name):
                out.write(f"{i}\t{self.names[nid]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                          f"\t{self.parent[i]}\t{self.task[i]}\t{self.error.get(i, '')}\n")
