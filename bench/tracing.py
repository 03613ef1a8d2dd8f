"""Layer spans for the traced run, recorded from outside the package.

`Tracer.install` wraps every public function (and the `__init__`/`__call__`
of every public class) of the layer modules, and rebinds each name, in every
fracspectral module namespace and module-level dict/tuple that refers to the
original.  A span opens only where a call crosses into another layer; calls
inside a layer are counted but not spanned, so a layer's self time is its
span time minus the time of the spans it caused.  numpy's FFT entry points
are wrapped the same way, to count transforms per layer.

Spans are kept in memory as flat integer rows and written out at the end.
"""
import array
import csv
import enum
import gzip
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("grid", "specfun", "spectral", "oracles", "quantum", "checks", "cli")
REQUEST = len(LAYERS)          # layer index of the root span of each request
_FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


def _grid_n(args):
    for a in args:
        for obj in (a, getattr(a, "signal", None)):
            grid = getattr(obj, "grid", None)
            if grid is not None and hasattr(grid, "n"):
                return grid.n
    return 0


class Tracer:
    def __init__(self):
        self.names = []                 # name id -> "layer.function"
        self.calls = []                 # name id -> every call, spanned or not
        self.spanned = []               # name id -> calls that crossed a layer boundary
        self.spans = array.array("q")  # flat rows of 8 ints, see SPAN_FIELDS
        self.self_ns = [0] * (REQUEST + 1)
        self.entries = [0] * (REQUEST + 1)
        self.errors = [0] * (REQUEST + 1)
        self.fft_calls = [0] * (REQUEST + 1)
        self.fft_bytes = [0] * (REQUEST + 1)
        self.grid_n = []                # per request: largest grid quantum was handed
        self.stack = []
        self.request = -1
        self._next_span = 0

    SPAN_FIELDS = ("request", "span", "parent", "layer", "name", "start_ns", "end_ns", "error")

    # --- installation -----------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.spanned.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, layer, name):
        tracer = self
        name_id = self._name_id(name)
        quantum = LAYERS[layer] == "quantum"
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            tracer.calls[name_id] += 1
            stack = tracer.stack
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if quantum:
                tracer.grid_n[-1] = max(tracer.grid_n[-1], _grid_n(args))
            tracer.spanned[name_id] += 1
            span = tracer._next_span
            tracer._next_span += 1
            frame = [layer, span, clock(), 0]
            stack.append(frame)
            failed = 0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                parent = stack[-1]
                tracer.self_ns[layer] += dur - frame[3]
                parent[3] += dur
                tracer.entries[layer] += 1
                tracer.errors[layer] += failed
                tracer.spans.extend((tracer.request, span, parent[1], layer, name_id,
                                     frame[2], end, failed))

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn):
        tracer = self

        def counted(a, *args, **kwargs):
            if tracer.stack:
                layer = tracer.stack[-1][0]
                tracer.fft_calls[layer] += 1
                tracer.fft_bytes[layer] += 16 * np.size(a)
            return fn(a, *args, **kwargs)
        return counted

    def install(self):
        """Wrap the layers of the already-imported fracspectral package."""
        replace = {}
        for layer, short in enumerate(LAYERS):
            mod = importlib.import_module(f"fracspectral.{short}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self._wrap(obj, layer, f"{short}.{name}"))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    for meth in ("__init__", "__call__"):
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(fn, layer, f"{short}.{name}.{meth}"))
        for name in _FFT_NAMES:
            fn = getattr(np.fft, name)
            wrapped = self._wrap_fft(fn)
            replace[id(fn)] = (fn, wrapped)
            setattr(np.fft, name, wrapped)

        def swap(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for modname, mod in list(sys.modules.items()):
            if modname != "fracspectral" and not modname.startswith("fracspectral."):
                continue
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        value[key] = (tuple(swap(v) for v in item) if isinstance(item, tuple)
                                      else swap(item))
                elif swap(value) is not value:
                    setattr(mod, name, swap(value))

    # --- requests ---------------------------------------------------------

    def begin(self, request):
        self.request = request
        self.grid_n.append(0)
        self.stack.append([REQUEST, self._next_span, time.perf_counter_ns(), 0])
        self._next_span += 1

    def end(self):
        frame = self.stack.pop()
        end = time.perf_counter_ns()
        self.self_ns[REQUEST] += end - frame[2] - frame[3]
        self.spans.extend((self.request, frame[1], -1, REQUEST, -1, frame[2], end, 0))

    # --- results ----------------------------------------------------------

    def count(self, *names):
        return sum(c for n, c in zip(self.names, self.calls) if n in names)

    def spanned_named(self, prefix):
        """Layer entries through functions whose name starts with prefix."""
        return sum(c for n, c in zip(self.names, self.spanned) if n.startswith(prefix))

    def write(self, path):
        names = self.names
        layers = LAYERS + ("request",)
        rows = self.spans
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(self.SPAN_FIELDS)
            for k in range(0, len(rows), 8):
                req, span, parent, layer, name, start, end, err = rows[k:k + 8]
                out.writerow((req, span, parent, layers[layer],
                              names[name] if name >= 0 else "request", start, end, err))
