"""sdse-lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload staged_descent --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports ``sdse_lab`` from that
checkout's ``src/`` and nowhere else. With ``--trace 0`` it times set-up in
child processes and then repeats the workload call on fresh seeds for about
``--seconds``, checking every output, and prints the end-to-end metrics. With
``--trace 1`` each iteration runs the call untraced and then traced on the
same seeds, and prints per-layer counts and self times averaged per traced
call, plus the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Spans and a result
record with provenance are written to ``.perfbench_out/``.
"""

import os
import sys

# One BLAS thread, fixed before numpy loads (threadpoolctl is not available).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# SDSE_SEED replaces the CLI's seed list with a single seed; the benchmark
# chooses its own seeds, so the variable is cleared for this run and its children.
SDSE_SEED_CLEARED = os.environ.pop("SDSE_SEED", None) is not None

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 170

from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import sdse_lab
    except ImportError as err:
        raise BenchError(f"cannot import sdse_lab from {SRC}: {err}") from err
    if Path(sdse_lab.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"sdse_lab was imported from {sdse_lab.__file__}, not {SRC}")


def provenance() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "sdse_seed_cleared": SDSE_SEED_CLEARED}


class SpeedClock:
    """Times work together with a fixed canary loop, to factor out the box's speed.

    On a shared 2-core box the CPU alternates, for seconds at a time, between
    speeds about 1.8x apart, so the median call time of a 25 s run mostly says
    which speed prevailed (run-to-run spread above 20%). A canary loop of
    small numpy calls, the same kind of work the program does, is timed right
    before and after each timed piece of work. Work time over canary time is
    steady (about 6% run to run); times are reported as that ratio times
    ``REFERENCE_S``, the canary's time at the uncontended speed of the box the
    benchmark was built on (a 2-core x86-64 VM, Python 3.11), i.e. in seconds
    at that reference speed. The canary is benchmark code, so a change to the
    program cannot move it.
    """

    LOOPS = 8000
    REFERENCE_S = 0.006

    def __init__(self):
        self._vec = np.ones(2)

    def canary(self) -> float:
        vec = self._vec
        start = time.perf_counter()
        acc = 0.0
        for _ in range(self.LOOPS):
            acc += float(vec @ vec)
        return time.perf_counter() - start

    def time(self, fn, *args):
        """(result, wall seconds, mean canary seconds around the call)."""
        before = self.canary()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, (before + self.canary()) / 2

    def scaled(self, samples) -> list[float]:
        """Wall times of (wall, canary) samples at the reference canary speed."""
        return [wall * self.REFERENCE_S / canary for wall, canary in samples]


def time_setup(workload: str, count: int, clock: SpeedClock) -> list[tuple[float, float]]:
    """(wall, canary) from spawning a fresh interpreter to the workload being ready."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    samples = []
    for _ in range(count):
        before = clock.canary()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                wall = time.perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe timed out")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append((wall, (before + clock.canary()) / 2))
    return samples


class Tally:
    """Operations attempted and failed, with the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, checked) -> None:
        self.attempted += checked.ops
        self.failed += min(checked.ops, checked.failed)
        self.problems += checked.problems


def run_calls(wl, rng, seconds: float, min_calls: int, workdir: Path, body):
    """Call ``body(k, seeds, calldir)`` on fresh seeds until ``seconds`` would be exceeded.

    At least ``min_calls`` calls run; the stop test assumes the next call
    lasts as long as the last one.
    """
    start = time.perf_counter()
    last = 0.0
    k = 0
    while k < min_calls or time.perf_counter() - start + last <= seconds:
        seeds = [int(s) for s in rng.choice(2**31, size=wl.seeds_per_call, replace=False)]
        calldir = workdir / f"call{k}"
        calldir.mkdir()
        t0 = time.perf_counter()
        body(k, seeds, calldir)
        last = time.perf_counter() - t0
        shutil.rmtree(calldir)
        k += 1


def lower_quartile(values: list[float]) -> float:
    return float(np.percentile(values, 25))


def spread_line(name: str, samples: list[float]) -> str:
    """Count, minimum, median and the highest percentile with ten samples above it."""
    ordered = sorted(samples)
    text = (f"# {name}: n={len(ordered)} min={ordered[0]:.6g} "
            f"median={statistics.median(ordered):.6g}")
    tail = next((p for p in (99, 90) if len(ordered) * (100 - p) / 100 >= 10), None)
    if tail is not None:
        text += f" p{tail}={ordered[int(len(ordered) * tail / 100)]:.6g}"
    return text


def measure(wl, rng, seconds: float, workdir: Path, tally: Tally, samples: dict) -> dict:
    """End-to-end metrics, tracing off; times are at the reference speed (see SpeedClock).

    Each time is the lower quartile over the run's samples: contention only
    ever slows a call down, so the fast quartile tracks the program's own
    speed more closely than the median does. Set-up probes run half before
    and half after the calls. The raw (wall, canary) pairs are left in
    ``samples`` for the result record.
    """
    clock = SpeedClock()
    setup = time_setup(wl.name, SETUP_SAMPLES // 2, clock)
    wl.setup()
    calls, steps, to_threshold = [], [], []

    def body(k, seeds, calldir):
        try:
            result, wall, canary = clock.time(wl.call, k, seeds, calldir)
        except Exception as err:  # a crashing call is a failed operation, not a crashed run
            tally.add(wl.crashed(seeds, err))
            return
        checked = wl.inspect(result, seeds)
        tally.add(checked)
        calls.append((wall, canary))
        steps.append(checked.steps)
        if k < wl.min_calls:
            to_threshold.extend(checked.to_threshold)

    # At least min_calls calls, so the quality metric always covers the same
    # operations for a given seed and the quartiles have enough samples.
    run_calls(wl, rng, seconds, wl.min_calls, workdir, body)
    if not calls:
        raise BenchError("every workload call crashed")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += time_setup(wl.name, SETUP_SAMPLES - SETUP_SAMPLES // 2, clock)
    walls = clock.scaled(calls)
    setups = clock.scaled(setup)
    samples.update(calls=calls, setup=setup)
    print(spread_line("wall_s raw", [wall for wall, _ in calls]))
    print(spread_line("wall_s", walls))
    print(spread_line("setup_s raw", [wall for wall, _ in setup]))
    print(spread_line("setup_s", setups))
    return {"setup_s": (lower_quartile(setups), "s"),
            "wall_s": (lower_quartile(walls), "s"),
            "steps_per_s": (float(np.percentile([n / w for n, w in zip(steps, walls)], 75)),
                            "1/s"),                  # the fast quartile of rates
            "peak_rss_mb": (peak_mb, "MB"),
            "steps_to_threshold_mean": (statistics.fmean(to_threshold), "steps")}


def measure_traced(wl, rng, seconds: float, workdir: Path, tally: Tally, spans_path: Path) -> dict:
    from tracer import Tracer, metric_unit

    wl.setup()
    clock = SpeedClock()
    tracer = Tracer()
    plain, traced, totals = [], [], {}

    def body(k, seeds, calldir):
        (calldir / "plain").mkdir()
        (calldir / "traced").mkdir()
        try:
            result, wall, canary = clock.time(wl.call, k, seeds, calldir / "plain")
            base = wl.inspect(result, seeds)
            with tracer:
                result, traced_wall, traced_canary = clock.time(wl.call, k, seeds,
                                                                calldir / "traced")
        except Exception as err:  # a crashing call is a failed operation, not a crashed run
            tally.add(wl.crashed(seeds, err))
            return
        plain.append((wall, canary))
        traced.append((traced_wall, traced_canary))
        checked = wl.inspect(result, seeds)
        snap = tracer.snapshot()
        for name, want in checked.expected.items():
            if snap[name] != want:
                checked.fail_all(f"traced count {name} = {snap[name]}, expected {want}")
        if checked.digest != base.digest:
            checked.fail_all("traced and untraced outputs differ")
        tally.add(base)
        tally.add(checked)
        for name, value in snap.items():
            totals[name] = totals.get(name, 0) + value

    run_calls(wl, rng, seconds, 1, workdir, body)
    tracer.write_spans(spans_path)
    n = len(traced)
    if not n:
        raise BenchError("every traced call crashed")
    plain_s = lower_quartile(clock.scaled(plain))
    traced_s = lower_quartile(clock.scaled(traced))
    print(f"# traced_calls={n} spans={len(tracer.spans)} untraced_wall_s={plain_s:.4f} "
          f"traced_wall_s={traced_s:.4f} -> {spans_path.name}")
    metrics = {name: (value / n, metric_unit(name)) for name, value in totals.items()}
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def run_one(args) -> int:
    import_package()
    info = provenance()
    print("# provenance " + json.dumps(info, sort_keys=True))
    wl = WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    samples: dict = {}
    try:
        if args.trace:
            metrics = measure_traced(wl, rng, args.seconds, workdir, tally,
                                     OUT / f"spans-{tag}.csv.gz")
        else:
            metrics = measure(wl, rng, args.seconds, workdir, tally, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# error_rate = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    result = {"correct": tally.failed == 0 and not tally.problems,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, provenance=info, problems=tally.problems,
                  samples=samples)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                            encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * 2)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
