"""Traced job launcher: run one benchmark job with spans around each layer.

Usage:
  python -X importtime ringbench/launcher.py --spans FILE cli <ringflock argv...>
  python -X importtime ringbench/launcher.py --spans FILE oracle <oracle argv...>

Every public function of the layer modules is wrapped, and the wrapper is
bound under every name the package binds the function to: `from .x import y`
copies `y` into each importing module (and the package namespace), so
rebinding only the defining module would miss most calls.  Spans are kept in
memory and written once, as JSON, when the job ends.  Each span is
[name, start, end, parent index, work counts].

The launcher writes MARK to stderr just before it imports ringflock, so the
`-X importtime` lines after it are the package's imports, lazy ones included.
It writes JOB_MARK when the job itself starts; imports after that are lazy,
and their time also falls inside the span that triggered them.
"""

import functools
import inspect
import json
import sys
import threading
import time

MARK = "ringbench: importing ringflock"
JOB_MARK = "ringbench: job start"
LAYERS = ("cli", "model", "spectral", "stability", "wavefield", "sim")


# Work counts a span records, computed from the call's bound arguments `a`.
COUNTS = {
    # Brute-force Hausdorff compares every point of each set with the other, both ways.
    "spectral.hausdorff": lambda a: {"pairs": 2 * len(a["set_a"]) * len(a["set_b"])},
    # Ring size; the dense eigensolve after deflating the coherent pair has size 2n - 2.
    "spectral.dense_spectrum": lambda a: {"n": a["system"].l_x.shape[0]},
    "sim.integrate": lambda a: {
        "agent_steps": max(1, round(a["t_end"] / a["dt"])) * len(a["z0"])},
    "wavefield.modal_evolve": lambda a: {"modes": a["coeffs"].n},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            counts = {}
            if count is not None:
                try:
                    counts = count(signature.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError):
                    pass             # signature changed: record the span without counts
            span = [name, 0.0, 0.0, stack[-1] if stack else None, counts]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package):
        """Wrap each layer's public functions wherever the package binds them."""
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:       # not imported yet: the job may never need it
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] not in ("cli", "oracle"):
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, kind, job_argv = argv[1], argv[2], argv[3:]
    print(MARK, file=sys.stderr, flush=True)
    import ringflock
    import ringflock.cli
    import oracle

    tracer = Tracer()
    tracer.install("ringflock")
    print(JOB_MARK, file=sys.stderr, flush=True)
    try:
        if kind == "cli":
            return ringflock.cli.main(job_argv)
        return tracer.wrap("oracle.main", oracle.main)(job_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
