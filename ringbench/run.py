"""ringflock benchmark: fresh-process CLI and oracle jobs, end to end and per layer.

Usage (from the repository root):
  python3 ringbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (job lists in workloads.py; the reason for each is in BENCHMARK.json):
cli-quick, large-ring, simulate, oracle.  One client runs the jobs one at a
time (closed loop), each as a fresh `python -m ringflock ...` or
`python ringbench/oracle.py ...` process, with RINGFLOCK_THREADS unset.

The run first times `setup_s`.  It then repeats passes over the job list
while the next pass is expected to end within S seconds (at least one pass).
With --trace 1 it then runs one more pass through launcher.py under
`python -X importtime`, which wraps each layer's public functions in spans,
and reports the per-layer metrics of BENCHMARK.json instead of the
end-to-end ones.  Every job's exit code and
printed results are checked (workloads.py).  The last stdout line is the
JSON result: {"correct", "attempted", "failed", "metrics"}.

Metric definitions (units in BENCHMARK.json):
  wall_s         median over passes of the wall time of the whole job list
  job_p50_s      median wall time of one job, import included, over all passes
  job_max_s      slowest subcommand: the largest, over subcommands (the oracle
                 job counts as one), of the median time of its jobs over
                 configs and passes
  setup_s        median of SETUP_REPEATS fresh interpreters running `import ringflock.cli`
  peak_rss_mb    largest maximum RSS of any job
  bytes_written  bytes of the files plus stdout the jobs of one pass write
                 (median over passes); stdout is counted so that the oracle
                 workload, which writes no file, has a non-zero value
Job failures are reported as `failed` out of `attempted`, not as a metric.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".ringbench_work"
PY = sys.executable

SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0      # the whole run must end well inside 180 s
JOB_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str
    files: dict                          # file name -> bytes written
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    imports: tuple = ()                  # (total_s, scipy_s, lazy_s) from -X importtime

    @property
    def bytes_written(self):
        return sum(self.files.values()) + len(self.stdout.encode())


def child_env():
    env = dict(os.environ)
    env.pop("RINGFLOCK_THREADS", None)   # the serial path users get by default
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd, env, timeout, stdout, stderr):
    """Run cmd to completion; return (seconds, exit code, max RSS in MB, timed out)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, seconds >= timeout


def run_job(job, env, traced, deadline):
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    spans_path = WORK / "spans.json"
    spans_path.unlink(missing_ok=True)
    if job.kind == "cli":
        argv = [*job.argv, "--config", str(WORK / f"{job.config}.cfg"), "--out", str(out_dir)]
        target = ["-m", "ringflock"]
    else:
        argv = list(job.argv)
        target = [str(HERE / "oracle.py")]
    if traced:
        target = ["-X", "importtime", str(HERE / "launcher.py"), "--spans", str(spans_path), job.kind]
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
    with open(WORK / "stdout", "w+") as out, open(WORK / "stderr", "w+") as err:
        seconds, code, rss, timed_out = spawn([PY, *target, *argv], env, timeout, out, err)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.stat().st_size for p in sorted(out_dir.rglob("*")) if p.is_file()}
    result = JobResult(job, seconds, code, rss, stdout, stderr, files)
    if traced:
        stderr, result.imports = layers.split_importtime(stderr)
        result.stderr = stderr
        if spans_path.is_file():
            result.spans = json.loads(spans_path.read_text())
    result.problems = problems(result, timed_out)
    return result


def problems(result, timed_out):
    found = []
    if timed_out:
        found.append("timed out")
    if result.exit_code != result.job.expect_exit:
        found.append(f"exit code {result.exit_code}, want {result.job.expect_exit}")
    if "Traceback" in result.stderr:
        found.append("traceback on stderr")
    diagnostics = [line for line in result.stderr.splitlines() if line.strip()]
    if result.exit_code == 1 and len(diagnostics) != 1:
        found.append(f"exit 1 with {len(diagnostics)} stderr lines, want one diagnostic")
    lines = workloads.parse(result.stdout)
    found.extend(p for p in (check(lines) for check in result.job.checks) if p)
    return found


def run_pass(jobs, env, traced, deadline):
    start = time.perf_counter()
    results = [run_job(job, env, traced, deadline) for job in jobs]
    return time.perf_counter() - start, results


def check_source(env):
    """Fail unless the jobs import ringflock from this checkout's src/."""
    probe = subprocess.run([PY, "-c", "import ringflock.cli, ringflock; print(ringflock.__file__)"],
                           cwd=WORK, env=env, capture_output=True, text=True, timeout=60)
    origin = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or SRC.resolve() not in origin.parents:
        raise SystemExit(f"ringbench: cannot import ringflock from {SRC}: {probe.stderr.strip()}")


def measure_setup(env):
    """Median time of fresh interpreters importing the CLI module."""
    times = []
    for _ in range(SETUP_REPEATS):
        with open(os.devnull, "w") as sink:
            seconds, code, _, _ = spawn([PY, "-c", "import ringflock.cli"], env, 60.0, sink, sink)
        if code != 0:
            raise SystemExit("ringbench: importing ringflock.cli failed")
        times.append(seconds)
    return statistics.median(times), len(times)


def end_to_end(passes, setup):
    results = [r for _, pass_results in passes for r in pass_results]
    per_command = {}
    for r in results:
        command = r.job.argv[0] if r.job.kind == "cli" else r.job.kind
        per_command.setdefault(command, []).append(r.seconds)
    return {
        "wall_s": (statistics.median(wall for wall, _ in passes), len(passes)),
        "job_p50_s": (statistics.median(r.seconds for r in results), len(results)),
        "job_max_s": (max(statistics.median(v) for v in per_command.values()), len(results)),
        "setup_s": setup,
        "peak_rss_mb": (max(r.rss_mb for r in results), len(results)),
        "bytes_written": (statistics.median(sum(r.bytes_written for r in pass_results)
                                            for _, pass_results in passes), len(passes)),
    }


def environment():
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "RINGFLOCK_THREADS (removed for jobs)": os.environ.get("RINGFLOCK_THREADS", "unset"),
    }
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "missing"
    info.update({name: os.environ.get(name, "unset") for name in THREAD_VARS})
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringflock" / "__init__.py").is_file():
        print(f"ringbench: no ringflock package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.perf_counter() + RUN_BUDGET_S
    print("env " + json.dumps(environment()))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        for name, text in workloads.CONFIGS.items():
            (WORK / f"{name}.cfg").write_text(text)
        env = child_env()
        check_source(env)
        setup = None if args.trace else measure_setup(env)
        jobs = workloads.JOB_LISTS[args.workload](args.seed)

        start = time.perf_counter()
        passes = []
        while not passes or (time.perf_counter() - start
                             + statistics.median(wall for wall, _ in passes) <= args.seconds):
            passes.append(run_pass(jobs, env, False, deadline))
        results = [r for _, pass_results in passes for r in pass_results]
        if args.trace:
            traced_wall, traced = run_pass(jobs, env, True, deadline)
            results += traced
            untraced_wall = statistics.median(wall for wall, _ in passes)
            totals = layers.collect(traced)
            layers.report(totals, traced_wall, len(traced))
            values = layers.per_layer(totals, traced, traced_wall, untraced_wall)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(passes, setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = [r for r in results if r.problems]
    for r in failed:
        print(f"FAILED {r.job.name}: {'; '.join(r.problems)}")
    metrics = {}
    for m in wanted:
        value, samples = values.get(m["name"], (0.0, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>16.6g} {m['unit']:<6} samples={samples}")
    print(f"jobs per pass={len(jobs)} passes={len(passes)} attempted={len(results)} "
          f"failed={len(failed)}")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
