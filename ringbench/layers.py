"""Per-layer metrics from the traced pass: spans, `-X importtime` and output files.

Each job runs in its own launcher process, so its spans stay together (the
job is their shared id).  Every metric sums over the jobs of the traced pass.
A layer's self time is the duration of its spans minus the part covered by
their child spans.  Rates and work counts are computed, not measured:
  spectral.hausdorff.pairs           2 |A| |B| per call (brute force, both directions)
  spectral.hausdorff.ns_per_pair     hausdorff self time / pairs
  spectral.dense_spectrum.nN_s       mean self time of one dense eigensolve at ring
                                     size N (matrix size 2N - 2 after deflation)
  sim.integrate.agent_steps          RK4 steps x agents per call
  sim.integrate.ns_per_agent_step    integrate self time / agent steps
  wavefield.modal_evolve.modes       calls x ring size
  wavefield.modal_evolve.ns_per_mode modal_evolve self time / modes
  cli.bytes.FILE                     bytes of output file FILE (summed over jobs)
  cli.write_mb_per_s                 cli.bytes_written / cli.self_s, so CSV
                                     formatting counts as part of writing
  sim.front_speed_err                max |fitted - predicted| / |predicted| over the
                                     two branches, from simulate's printed speeds
  trace.overhead_s                   traced pass wall time - untraced pass median
"""

import workloads
from launcher import JOB_MARK, LAYERS, MARK

PREFIX = "import time:"


def split_importtime(stderr):
    """Strip `-X importtime` lines; return (rest of stderr, (total_s, scipy_s, lazy_s)).

    Only imports after the launcher's MARK count: the package's own, plus any
    it makes lazily while the job runs (after JOB_MARK; lazy_s).  total_s sums
    the top-level cumulative times; scipy_s sums the cumulative time of each
    outermost scipy module.
    """
    rest, entries, phase = [], [], 0      # phase: 0 before MARK, 1 eager, 2 lazy
    for line in stderr.splitlines():
        if line in (MARK, JOB_MARK):
            phase = 1 if line == MARK else 2
        elif line.startswith(PREFIX):
            fields = line[len(PREFIX):].split("|")
            if phase and fields[0].strip().isdigit():
                name = fields[2][1:]
                level = (len(name) - len(name.lstrip(" "))) // 2
                entries.append((level, name.strip(), int(fields[1]), phase == 2))
        else:
            rest.append(line)
    total = sum(cum for level, _, cum, _ in entries if level == 0)
    lazy = sum(cum for level, _, cum, late in entries if level == 0 and late)
    # importtime prints a module after its children; walking backwards meets
    # every parent before its children.
    scipy, stack = 0, []
    for level, name, cum, _ in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cum
        stack.append((level, inside or is_scipy))
    return "\n".join(rest), (total / 1e6, scipy / 1e6, lazy / 1e6)


def self_times(spans):
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def collect(results):
    """Sum calls, self time and work counts per function and per layer over all jobs."""
    totals = {}

    def add(key, amount):
        totals[key] = totals.get(key, 0) + amount

    for r in results:
        for span, own in zip(r.spans, self_times(r.spans)):
            name, counts = span[0], span[4]
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                add(f"{key}.calls", 1)
                add(f"{key}.self_s", own)
            for key, amount in counts.items():
                if key == "n":       # split self time by ring size
                    add(f"{name}.n{amount}_s", own)
                    add(f"{name}.n{amount}_calls", 1)
                else:
                    add(f"{name}.{key}", amount)
        for key, seconds in zip(("total_s", "scipy_s", "lazy_s"), r.imports):
            add(f"import.{key}", seconds)
        for file, size in r.files.items():
            add(f"cli.bytes.{file}", size)
            add("cli.bytes_written", size)
    return totals


def per_layer(totals, results, traced_wall, untraced_wall):
    """Metric name -> (value, sample count) for the traced pass."""
    t = dict(totals)
    for n in (64, 256):
        key = f"spectral.dense_spectrum.n{n}"
        t[f"{key}_s"] = _ratio(t.get(f"{key}_s", 0.0), t.get(f"{key}_calls", 0))
    t["spectral.hausdorff.ns_per_pair"] = _ratio(
        t.get("spectral.hausdorff.self_s", 0.0), t.get("spectral.hausdorff.pairs", 0), 1e9)
    t["sim.integrate.ns_per_agent_step"] = _ratio(
        t.get("sim.integrate.self_s", 0.0), t.get("sim.integrate.agent_steps", 0), 1e9)
    t["wavefield.modal_evolve.ns_per_mode"] = _ratio(
        t.get("wavefield.modal_evolve.self_s", 0.0), t.get("wavefield.modal_evolve.modes", 0), 1e9)
    t["cli.write_mb_per_s"] = _ratio(t.get("cli.bytes_written", 0), t.get("cli.self_s", 0.0), 1e-6)
    speeds = [workloads.front_speed_err(workloads.parse(r.stdout))
              for r in results if r.job.argv[:1] == ("simulate",)]
    t["sim.front_speed_err"] = max(speeds, default=0.0)
    t["trace.overhead_s"] = traced_wall - untraced_wall
    t["trace.wall_s"] = traced_wall
    t["trace.spans"] = sum(len(r.spans) for r in results)
    return {name: (value, len(results)) for name, value in t.items()}


def report(t, traced_wall, jobs):
    """Print each layer's share of the traced pass, and the bytes of each output file."""
    # Lazy imports already sit inside the self time of the span that ran them.
    shares = {"import": t.get("import.total_s", 0.0) - t.get("import.lazy_s", 0.0)}
    shares.update({layer: t.get(f"{layer}.self_s", 0.0) for layer in (*LAYERS, "oracle")})
    shares["other (start-up, launcher, tracing)"] = traced_wall - sum(shares.values())
    print(f"traced pass: {jobs} jobs, {traced_wall:.3f} s")
    for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  share {name:<38} {seconds:10.3f} s {100 * seconds / traced_wall:6.1f} %")
    for key in sorted(k for k in t if k.startswith("cli.bytes.")):
        print(f"  file  {key[len('cli.bytes.'):]:<38} {t[key]:>12d} bytes")
