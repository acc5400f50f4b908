"""Cold-process benchmark of the cherpoi CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Each workload is a fixed list of ``cherpoi verify`` invocations. One
iteration runs them one after another, each in a fresh interpreter, against
a fresh, empty ``CHERPOI_CACHE`` shared by that iteration's processes; the
loop is closed (one client, one process at a time). A run of
``calibrate.py`` before and after each process gives the speed its times
are scaled by. ``--trace 0`` makes the workload's minimum number of
iterations, then more while they fit in ``--seconds``, and prints the
end-to-end metrics. ``--trace 1`` alternates two untraced iterations with
two traced ones through ``trace_launcher.py`` and prints the per-layer
metrics.

Every check of every report is compared with ``reference.json``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (both counting checks) and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from trace_launcher import TARGETS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
LAUNCHER = BENCH_DIR / "trace_launcher.py"
CALIBRATE = BENCH_DIR / "calibrate.py"
# Times are reported at the speed at which calibrate.py's loop takes this
# long, about the usual speed of the 2-core VM the bounds were set on.
REFERENCE_CALIBRATION_S = 0.4

# The body of the installed ``cherpoi`` console script: a user's cold start.
ENTRY = "import sys; from cherpoi.verifier_cli import main; sys.exit(main())"
WARMUP = ("verify", "--suite", "fake-degrees", "--n-max", "1")
RUN_BUDGET_S = 170.0  # every run must end within 180 s
SEED = "{seed}"


@dataclass(frozen=True)
class Workload:
    why: str
    processes: tuple[tuple[str, ...], ...]
    # Processes after the first only read the cache the first one filled.
    readers_follow_writer: bool = False
    # A run makes at least this many iterations, so each process has that
    # many samples for its median, whatever --seconds says.
    min_iterations: int = 2


WORKLOADS = {
    "oracle": Workload(
        "brute-force oracle: commutative_oracle and _linalg echelon elimination dominate",
        (
            ("verify", "--suite", "oracle-J", "--n", "2", "--d", "3", "--window", "10,10"),
            ("verify", "--suite", "oracle-J", "--n", "3", "--d", "2", "--window", "8,8", "--total", "8"),
            ("verify", "--suite", "oracle-jbar", "--n", "2", "--d", "2", "--window", "8,8"),
            ("verify", "--suite", "oracle-jbar", "--n", "3", "--d", "2", "--window", "6,6", "--total", "8"),
            ("verify", "--suite", "parity", "--n-max", "3", "--d", "3", "--window", "6,6", "--total", "8"),
            ("verify", "--suite", "coinvariants", "--n-max", "4"),
        ),
    ),
    "macdonald": Workload(
        "cold Kostka-Macdonald build by Gram-Schmidt, then two processes reading its disk cache",
        (
            ("verify", "--suite", "kostka", "--n-max", "5"),
            ("verify", "--suite", "jbar-chain", "--n-max", "5", "--d", "3"),
            ("verify", "--suite", "omega-specialization", "--n-max", "4"),
        ),
        readers_follow_writer=True,
        # One Gram-Schmidt process of about ten seconds makes most of an
        # iteration; on a 2-core shared VM, ten runs of two iterations
        # spread 14 %, of three 8-17 %.
        min_iterations=3,
    ),
    "closed-forms": Workload(
        "many small univariate polynomial operations, the graded-free extractor, start-up cost",
        (
            ("verify", "--suite", "fake-degrees", "--n-max", "10"),
            ("verify", "--suite", "eqpoi", "--n-max", "7", "--k", "4"),
            ("verify", "--suite", "appendix-b", "--n-max", "7", "--k", "4"),
            ("verify", "--suite", "graded-free", "--seed", SEED),
        ),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric groups: each traced span is its own group, except that a
# pooled layer sums its functions. Self-only groups report no call count.
POOLED_LAYERS = ("hilbert_series", "partition_core")
SELF_ONLY = ("verifier_cli.run_suite", "verifier_cli.to_json")


def _layer_groups() -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for _, _, span in TARGETS:
        layer = span.split(".")[0]
        groups.setdefault(layer if layer in POOLED_LAYERS else span, []).append(span)
    return groups


GROUPS = _layer_groups()


def metric_name(group: str) -> str:
    """A metric name starts with a letter: ``_linalg.x`` is reported as ``linalg.x``."""
    return group.lstrip("_")


# Counters kept as the largest value seen (the rest are summed).
MAX_COUNTERS = (
    "exact_poly.mul.max_terms",
    "macdonald.macdonald_P.max_den_terms",
    "commutative_oracle.engine_entries",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for group in GROUPS:
        if group not in SELF_ONLY:
            units[f"{metric_name(group)}.calls"] = "count"
        units[f"{metric_name(group)}.self_s"] = "s"
    units["linalg.echelon_add.accepted_ratio"] = "ratio"
    units["cache.load.hit_ratio"] = "ratio"
    for name in MAX_COUNTERS:
        units[name] = "count"
    units["trace.overhead_s"] = "s"
    units["slowest_check_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# correctness gate


def check_digest(check: dict) -> str:
    """sha256 of a check's compared contents, as the --no-timings report has them."""
    canonical = json.dumps([check.get("left"), check.get("right")], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Score:
    attempted: int
    failed: int
    check_seconds: dict[str, float]
    problems: list[str]


def score_report(expected: list, returncode: int, stdout: str) -> Score:
    """Count the failed checks of one process against its reference.

    ``expected`` is a list of [name, verdict, digest] as recorded. A check
    fails on a non-pass verdict, a content mismatch, or when it is missing or
    not in the reference; a nonzero exit or an unreadable report fails every
    check.
    """
    if returncode != 0:
        return Score(len(expected), len(expected), {}, [f"exit code {returncode}"])
    try:
        checks = json.loads(stdout)["checks"]
        by_name = {c["name"]: c for c in checks}
        seconds = {c["name"]: float(c["wall_ms"]) / 1000.0 for c in checks}
    except (ValueError, KeyError, TypeError) as exc:
        return Score(len(expected), len(expected), {}, [f"unreadable report: {exc!r}"])
    problems = []
    for name, _, digest in expected:
        check = by_name.pop(name, None)
        if check is None:
            problems.append(f"{name}: missing")
        elif check.get("verdict") != "pass":
            problems.append(f"{name}: verdict {check.get('verdict')!r}")
        elif check_digest(check) != digest:
            problems.append(f"{name}: contents differ from the reference")
    problems.extend(f"{name}: not in the reference" for name in by_name)
    return Score(len(expected) + len(by_name), len(problems), seconds, problems)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["processes"]


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ProcResult:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stdout: str


def run_process(cmd: list[str], env: dict, cwd: Path, deadline: float) -> ProcResult:
    """Run one child to completion; rusage is read for that child alone (wait4)."""
    out_path = cwd / "stdout.txt"
    with open(out_path, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_text(errors="replace"),
    )


def child_env(cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CHERPOI_CACHE"] = str(cache)
    # One fixed string-hash seed: every process iterates its sets and dicts
    # of strings in the same order, so every run does the same work.
    env["PYTHONHASHSEED"] = "0"
    return env


def calibrate(work: Path, deadline: float) -> float:
    """Seconds calibrate.py's loop takes now, in a fresh process."""
    cwd = work / "calibration"
    cwd.mkdir(exist_ok=True)
    result = run_process([sys.executable, str(CALIBRATE)], child_env(cwd / "cache"), cwd, deadline)
    if result.returncode != 0:
        raise SystemExit(f"calibrate.py exited {result.returncode}; see {cwd / 'stderr.txt'}")
    return float(result.stdout)


def cache_snapshot(cache: Path) -> dict:
    if not cache.is_dir():
        return {}
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()}


# ---------------------------------------------------------------------------
# traces


def read_trace(prefix: Path) -> dict:
    """Per-span-name calls and self time of one traced process, plus counters.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process are strictly nested (one thread).
    """
    with open(f"{prefix}.json") as fh:
        header = json.load(fh)
    count = header["count"]
    name_ids, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
    with open(f"{prefix}.bin", "rb") as fh:
        for arr in (name_ids, parents, starts, ends):
            arr.fromfile(fh, count)
    return {
        "trace_id": header["trace_id"],
        "spans": span_totals(header["names"], name_ids, parents, starts, ends),
        "counters": header["counters"],
        "missing": header["missing"],
    }


def span_totals(names, name_ids, parents, starts, ends) -> dict[str, list]:
    """name -> [calls, self seconds]."""
    child_time = [0.0] * len(name_ids)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[i] - starts[i]
    totals: dict[str, list] = {}
    for i, nid in enumerate(name_ids):
        entry = totals.setdefault(names[nid], [0, 0.0])
        entry[0] += 1
        entry[1] += ends[i] - starts[i] - child_time[i]
    return totals


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its processes)."""
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    for trace in traces:
        for name, (calls, self_s) in trace["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in trace["counters"].items():
            if key in MAX_COUNTERS:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    out: dict[str, float] = {}
    for group, members in GROUPS.items():
        if group not in SELF_ONLY:
            out[f"{metric_name(group)}.calls"] = sum(spans.get(m, (0, 0.0))[0] for m in members)
        out[f"{metric_name(group)}.self_s"] = sum(spans.get(m, (0, 0.0))[1] for m in members)

    def ratio(num: str, calls: str) -> float:
        base = out[calls]
        return counters.get(num, 0) / base if base else 0.0

    out["linalg.echelon_add.accepted_ratio"] = ratio("_linalg.echelon_add.accepted", "linalg.echelon_add.calls")
    out["cache.load.hit_ratio"] = ratio("_cache.load.hits", "cache.load.calls")
    for name in MAX_COUNTERS:
        out[name] = counters.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# one iteration of a workload


@dataclass(frozen=True)
class Sample:
    """One process of one iteration.

    ``scale`` turns its times into reference-speed seconds: the reference
    calibration time over the mean of the calibrations run just before and
    just after the process.
    """

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    check_seconds: dict[str, float]
    scale: float

    @property
    def setup_s(self) -> float:
        return self.wall_s - sum(self.check_seconds.values())


@dataclass
class Iteration:
    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    def describe(self) -> str:
        checks = [t for s in self.samples for t in s.check_seconds.values()]
        scales = [s.scale for s in self.samples]
        return (
            f"wall {sum(s.wall_s for s in self.samples):.3f} s, cpu {sum(s.cpu_s for s in self.samples):.3f} s, "
            f"setup {median([s.setup_s for s in self.samples]):.4f} s/process, "
            f"peak rss {max(s.maxrss_mb for s in self.samples):.1f} MB, "
            f"slowest check {max(checks, default=0.0):.3f} s, "
            f"scale {min(scales):.3f}..{max(scales):.3f}, failed {self.failed}/{self.attempted} checks"
        )


def run_iteration(name: str, seed: int, work: Path, traced: bool, deadline: float, reference: dict) -> Iteration:
    workload = WORKLOADS[name]
    cache = work / "cache"
    it = Iteration()
    if cache.exists():
        it.problems.append("cache directory was not fresh")
    written: dict = {}
    # calibrations[i] runs just before process i, calibrations[i + 1] just after.
    calibrations = [calibrate(work, deadline)]
    results = []
    for index, template in enumerate(workload.processes):
        key = " ".join(template)
        argv = [seed_arg if seed_arg != SEED else str(seed) for seed_arg in template]
        proc_dir = work / f"p{index}"
        proc_dir.mkdir()
        if traced:
            prefix = proc_dir / "trace"
            cmd = [sys.executable, str(LAUNCHER), str(prefix), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        result = run_process(cmd, child_env(cache), proc_dir, deadline)
        calibrations.append(calibrate(work, deadline))
        expected = reference.get(key, [])
        score = score_report(expected, result.returncode, result.stdout)
        results.append((result, score))
        it.attempted += score.attempted
        it.failed += score.failed
        it.problems.extend(f"[{key}] {p}" for p in score.problems)
        if not expected:
            it.problems.append(f"[{key}] no reference recorded")
        if traced and result.returncode == 0:
            trace = read_trace(prefix)
            it.traces.append(trace)
            hits = trace["counters"].get("_cache.load.hits", 0)
            loads = trace["spans"].get("_cache.load", (0, 0.0))[0]
            if index == 0 and hits:
                it.problems.append(f"[{key}] first process hit the cache {hits} times: not cold")
            if index > 0 and workload.readers_follow_writer and hits != loads:
                it.problems.append(f"[{key}] reader missed the cache: {hits} hits of {loads} loads")
        after = cache_snapshot(cache)
        if index == 0:
            written = after
        elif workload.readers_follow_writer:
            changed = sorted(n for n, stamp in written.items() if after.get(n) != stamp)
            if changed:
                it.problems.append(f"[{key}] reader rewrote or removed cache entries {changed}")
        if time.monotonic() > deadline:
            it.problems.append("run budget exhausted")
            break
    for index, (result, score) in enumerate(results):
        scale = 2 * REFERENCE_CALIBRATION_S / (calibrations[index] + calibrations[index + 1])
        it.samples.append(Sample(result.wall_s, result.cpu_s, result.maxrss_mb, score.check_seconds, scale))
    return it


# ---------------------------------------------------------------------------
# environment and main


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": git_commit(),
        "seed": seed,
    }


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir(parents=True)
    return path


def warm_up(work: Path, deadline: float) -> int:
    """One untimed invocation so .pyc compilation lands outside the timings."""
    proc_dir = fresh_dir(work, "warmup")
    result = run_process([sys.executable, "-c", ENTRY, *WARMUP], child_env(proc_dir / "cache"), proc_dir, deadline)
    return result.returncode


def benchmark(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reference = load_reference()
    if warm_up(work, deadline) != 0:
        raise SystemExit("warm-up invocation failed; see stderr.txt under the work directory")
    done: list[Iteration] = []

    def iterate(traced: bool) -> Iteration:
        it = run_iteration(name, seed, fresh_dir(work, f"i{len(done)}"), traced, deadline, reference)
        done.append(it)
        print(f"iteration {len(done)}{' (traced)' if traced else ''}: {it.describe()}", flush=True)
        for problem in it.problems:
            print(f"  problem: {problem}", flush=True)
        return it

    if trace:
        # Alternate so that slow phases of the machine fall on both sides.
        pairs = [(iterate(False), iterate(True)) for _ in range(2)]
        metrics, problems = traced_metrics([u for u, _ in pairs], [t for _, t in pairs])
        units = per_layer_units()
    else:
        # The workload's minimum, then another iteration only while it
        # should end within --seconds.
        first = time.monotonic()
        iterations = [iterate(False) for _ in range(WORKLOADS[name].min_iterations)]
        while True:
            now = time.monotonic()
            per_iteration = (now - first) / len(iterations)
            if now + per_iteration > min(start + seconds, deadline):
                break
            iterations.append(iterate(False))
        metrics, problems = end_to_end(iterations), []
        units = END_TO_END
    attempted = sum(it.attempted for it in done)
    failed = sum(it.failed for it in done)
    problems += [p for it in done for p in it.problems]
    print(f"checks_failed_ratio: {failed}/{attempted} = {failed / max(1, attempted):.6f} ratio")
    for key, value in metrics.items():
        print(f"{key}: {value} {units[key]}")
    return {
        "correct": not problems and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def complete_samples(iterations: list[Iteration]) -> list[tuple[Sample, ...]]:
    """Per process, its samples from every iteration that ran all processes."""
    size = max(len(it.samples) for it in iterations)
    return list(zip(*(it.samples for it in iterations if len(it.samples) == size)))


def end_to_end(iterations: list[Iteration]) -> dict[str, float]:
    """End-to-end metrics of a run from its iterations' per-process samples.

    Every time is first scaled to reference speed by its own process's
    calibrations. On a shared host the speed of a vCPU drifts by up to 1.6
    times over tens of seconds, and calibrate.py's loop drifts with it (see
    README). Wall and CPU time take each process's median over the
    iterations and sum them over the workload's processes; ``setup_s`` is
    the median over every process of the run.
    """
    per_process = complete_samples(iterations)
    return {
        "wall_s": sum(median([s.wall_s * s.scale for s in samples]) for samples in per_process),
        "cpu_s": sum(median([s.cpu_s * s.scale for s in samples]) for samples in per_process),
        "setup_s": median([s.setup_s * s.scale for it in iterations for s in it.samples]),
        "peak_rss_mb": median([max(s.maxrss_mb for s in samples) for samples in zip(*per_process)]),
    }


def slowest_check(iterations: list[Iteration]) -> float:
    """The largest over checks of a check's median scaled time."""
    checks: dict[tuple[int, str], list[float]] = {}
    for index, samples in enumerate(complete_samples(iterations)):
        for sample in samples:
            for name, seconds in sample.check_seconds.items():
                checks.setdefault((index, name), []).append(seconds * sample.scale)
    return max((median(values) for values in checks.values()), default=0.0)


def traced_metrics(untraced: list[Iteration], traced: list[Iteration]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the traced iterations (which must agree), times as their median."""
    problems = []
    per_run = [layer_metrics(it.traces) for it in traced if len(it.traces) == len(it.samples)]
    if len(per_run) != len(traced) or not per_run:
        return {k: 0 for k in per_layer_units()}, ["a traced iteration lost a trace"]
    missing = sorted({m for it in traced for t in it.traces for m in t["missing"]})
    if missing:
        print(f"targets absent from this cherpoi: {', '.join(missing)}")
    metrics = {}
    for key in per_run[0]:
        values = [run[key] for run in per_run]
        if key.endswith("_s"):
            metrics[key] = median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between traced iterations: {values}")
            metrics[key] = values[0]
    metrics["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(untraced)["wall_s"]
    metrics["slowest_check_s"] = slowest_check(untraced)
    return metrics, problems


def record_reference(seed: int, work: Path):
    """Write reference.json from one iteration of every workload at this commit."""
    processes = {}
    for name, workload in WORKLOADS.items():
        cache = work / name / "cache"
        for index, template in enumerate(workload.processes):
            argv = [a if a != SEED else str(seed) for a in template]
            proc_dir = fresh_dir(work / name, f"p{index}")
            result = run_process([sys.executable, "-c", ENTRY, *argv], child_env(cache), proc_dir, time.monotonic() + 600)
            if result.returncode != 0:
                raise SystemExit(f"{' '.join(argv)} exited {result.returncode}")
            checks = json.loads(result.stdout)["checks"]
            processes[" ".join(template)] = [[c["name"], c["verdict"], check_digest(c)] for c in checks]
            print(f"recorded {len(checks)} checks of {' '.join(argv)}", flush=True)
    doc = {"commit": git_commit(), "seed": seed, "processes": processes}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cherpoi" / "verifier_cli.py").is_file():
        print(f"no cherpoi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            record_reference(args.seed, work)
            return 0
        before = environment(args.seed)
        print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
        print("environment: " + json.dumps(before, sort_keys=True), flush=True)
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
        print(f"loadavg_1m after: {os.getloadavg()[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
