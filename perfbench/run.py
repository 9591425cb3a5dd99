"""cstarframes benchmark: CLI jobs end to end, and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload obstruction --seed 1 --seconds 25 --trace 0

It generates the workload's inputs from the seed (perfbench/gen.py),
then drives the real CLI path in this process, `cstarframes.cli.main`
with stdout captured, in a closed loop: one client, one process, no
extra threads, whole rounds of the workload's jobs until the time is up.
Every output of the first round is checked by perfbench/check.py, which
uses no part of the library; every later round must reproduce the first
round's output bytes exactly.

Timed figures are given at reference speed: a fixed reference kernel
(dict updates, small numpy products, JSON parsing and eigvalsh; no
library code) runs between jobs, and each job's wall time is scaled by REF_S over the kernel's time
around it.  This cancels the slow phases of a shared host, which slow
the kernel and the job alike; see _ref_time.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced rounds (perfbench/tracer.py) and prints the per-layer
metrics, per job, with the tracing overhead.  The last line of stdout is
one JSON object; the lines above it are a readable report.
"""

from __future__ import annotations

import os

# One process and no extra threads: BLAS pools are pinned to one thread
# before numpy loads.  The library's own fan-out stays off (see _env).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_JOBS = 100          # four copies of every job in a 25-job round
SETUP_REPEATS = 8       # half before the timed loop, half after it
REF_S = 1.0e-3          # the reference kernel's unhindered time on a 2-vCPU VM
REF_REPEATS = 3         # kernel runs per reading; the reading is their median
_REF_A = np.arange(9.0).reshape(3, 3) * (1.0 + 0.5j)
_REF_H = np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T
_REF_DOC = json.dumps({"coords": [[[i * 0.1, -i * 0.2] for i in range(8)] for _ in range(12)]})


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_cli():
    if not (SRC / "cstarframes" / "cli.py").is_file():
        _fail(f"no cstarframes sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cstarframes.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        _fail(f"imported cstarframes from {cli.__file__}, not from {SRC}")
    return cli


def _env() -> dict:
    if "CSTAR_FRAMES_THREADS" in os.environ:
        _fail("CSTAR_FRAMES_THREADS is set; the benchmark measures the serial path")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "cstarframes").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "CSTAR_FRAMES_THREADS": "unset",
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


class _RefPoint:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im


def _ref_kernel():
    """Fixed work of the kinds a CLI job does, in no library code.

    Dict updates, small numpy products, JSON parsing into small objects
    and small eigvalsh calls.  Each kind alone tracked the jobs' slow
    phases less well than the mix.
    """
    acc = {}
    for i in range(750):
        acc[i % 17] = acc.get(i % 17, 0.0) + i * 0.5
    total = 0.0
    for _ in range(100):
        total += float(np.abs(_REF_A @ _REF_A.conj().T).max())
    for _ in range(6):
        doc = json.loads(_REF_DOC)
        points = [_RefPoint(re, im) for row in doc["coords"] for re, im in row]
        total += float(np.array([complex(p.re, p.im) for p in points[:16]]).real.sum())
    for _ in range(12):
        total += float(np.linalg.eigvalsh(_REF_H)[-1])
    return acc, total


def _ref_time() -> float:
    """One reading of the machine's current speed: the median of REF_REPEATS kernel runs.

    A shared host slows this process in phases of seconds to minutes, by
    up to 2x, and the unhindered speed itself drifts between phases.  The
    kernel, read just before and just after a job, sees the same phase as
    the job; the job's time scaled by REF_S / (mean of the two readings)
    is its time at reference speed.  The kernel runs no library code, so
    a change to the library moves only the job times.  perfbench/README.md
    gives the spreads with and without the scaling.
    """
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        _ref_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _setup_times(count: int) -> tuple[list[float], list[float]]:
    """Wall times of `count` fresh interpreters importing cstarframes.cli.

    Returns the times at reference speed and the raw times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import cstarframes.cli"]
    scaled, raw = [], []
    for _ in range(count):
        before = _ref_time()
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * REF_S / (before + _ref_time()))
    return scaled, raw


class Runner:
    """Closed-loop client: runs jobs, times them, checks their outputs."""

    def __init__(self, cli, jobs, reference: bool = False):
        self.cli = cli
        self.jobs = jobs
        self.reference = reference  # read the reference kernel around timed jobs
        self.ref_last: float | None = None
        self.refs: list[float] = []
        self.first: dict[int, bytes] = {}
        self.samples: list[list[float]] = [[] for _ in jobs]
        self.scaled: list[list[float]] = [[] for _ in jobs]  # at reference speed
        self.failures: list[str] = []
        self.attempted = 0

    def run_once(self, job):
        """Run one job; return (seconds, exit code, stdout, stderr, output files)."""
        for out in job.outputs:
            Path(out).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(job.argv)
            except Exception:  # a crash is a failed job, not a dead benchmark
                code = -1
                stderr.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        files = [Path(out).read_bytes() if Path(out).exists() else b"" for out in job.outputs]
        return elapsed, code, stdout.getvalue(), stderr.getvalue(), files

    def job(self, i: int, timed: bool = True) -> float:
        job = self.jobs[i]
        before = None
        if timed and self.reference:
            before = self.ref_last if self.ref_last is not None else _ref_time()
        elapsed, code, out, err, files = self.run_once(job)
        if before is not None:
            self.ref_last = _ref_time()
            self.refs.append(self.ref_last)
            self.scaled[i].append(elapsed * 2.0 * REF_S / (before + self.ref_last))
        else:
            self.ref_last = None
        digest = hashlib.sha256(repr((code, out, files)).encode()).digest()
        if i not in self.first:
            problem = check.check(job, code, out, files)
            if problem is None:
                self.first[i] = digest
        elif digest != self.first[i]:
            problem = "output differs from the first run of the same job"
        else:
            problem = None
        if problem is not None and err:
            problem += f" (stderr: {err.strip().splitlines()[-1]})"
        self.attempted += 1
        if timed:
            self.samples[i].append(elapsed)
        if problem is not None:
            self.failures.append(f"{job.argv[0]} job {i}: {problem}")
        return elapsed

    def warm_up(self) -> None:
        """One job of each kind, untimed, so lazy imports and caches settle."""
        seen = set()
        for i, job in enumerate(self.jobs):
            if job.kind not in seen:
                seen.add(job.kind)
                self.job(i, timed=False)

    def one_round(self) -> float:
        """Every job once, in order; returns the summed job time."""
        return sum(self.job(i) for i in range(len(self.jobs)))

    def rounds_for(self, seconds: float, min_jobs: int = 0) -> int:
        """Whole rounds for about `seconds` of wall time and at least `min_jobs` jobs.

        A new round starts only while it would end less than half a round
        past the time, so the measured time centres on `seconds`.
        """
        start = time.perf_counter()
        count = 0
        while True:
            round_start = time.perf_counter()
            self.one_round()
            count += 1
            now = time.perf_counter()
            if (now - start + (now - round_start) / 2 >= seconds
                    and count * len(self.jobs) >= min_jobs):
                return count


def _traced_rounds(runner: Runner, tracer: Tracer, seconds: float):
    """Alternate untraced and traced rounds, so drift hits both alike."""
    start = time.perf_counter()
    count, untraced, traced = 0, 0.0, 0.0
    while True:
        untraced += runner.one_round()
        tracer.install()
        try:
            traced += runner.one_round()
        finally:
            tracer.uninstall()
        count += 1
        now = time.perf_counter()
        if now - start + (now - start) / count / 2 >= seconds:
            return count, untraced, traced


def _rank(values, q: float) -> float:
    """Nearest-rank q-quantile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _end_to_end(runner: Runner, setup: list[float], setup_raw: list[float]) -> tuple[dict, dict]:
    """Gated metrics at reference speed over every timed job, and the raw figures.

    The percentiles are nearest-rank over all timed jobs of the run, at
    least MIN_JOBS, so at least ten lie beyond the 90th.  The raw figures
    are the same statistics of the unscaled wall times, with the
    reference kernel's readings beside them.
    """
    scaled = [t for s in runner.scaled for t in s]
    every = [t for s in runner.samples for t in s]
    gated = {
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "job_p50_ms": (_rank(scaled, 0.5) * 1e3, "ms"),
        "job_p90_ms": (_rank(scaled, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "raw_jobs_per_s": (len(every) / sum(every), "1/s"),
        "raw_job_p50_ms": (_rank(every, 0.5) * 1e3, "ms"),
        "raw_job_p90_ms": (_rank(every, 0.9) * 1e3, "ms"),
        "raw_setup_s": (statistics.median(setup_raw), "s"),
        "ref_p10_ms": (_rank(runner.refs, 0.1) * 1e3, "ms"),
        "ref_p50_ms": (_rank(runner.refs, 0.5) * 1e3, "ms"),
        "ref_p90_ms": (_rank(runner.refs, 0.9) * 1e3, "ms"),
    }
    return gated, raw


def _per_layer(tracer: Tracer, jobs: int, overhead: float) -> dict:
    spans = tracer.span_times()
    c = tracer.counters

    def incl(name):
        return spans.get(name, {}).get("incl_ns", 0) / 1e9 / jobs, "s/job"

    def self_s(name):
        return spans.get(name, {}).get("self_ns", 0) / 1e9 / jobs, "s/job"

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / jobs, "count/job"

    def ccalls(*names):
        return sum(c[n][0] for n in names) / jobs, "count/job"

    def cincl(*names):
        return sum(c[n][1] for n in names) / 1e9 / jobs, "s/job"

    linalg = [n for n in c if n.startswith("linalg.")]
    return {
        "frames.tail_calls": calls("frames.tail"),
        "frames.tail_s": incl("frames.tail"),
        "frames.build_calls": calls("frames.build"),
        "frames.build_s": incl("frames.build"),
        "certify.cond_a_s": incl("certify.cond_a"),
        "certify.cond_b_s": incl("certify.cond_b"),
        "certify.cond_cd_s": incl("certify.cond_cd"),
        "certify.coherence_s": self_s("certify.equivalences"),
        "certify.series_s": incl("certify.series"),
        "seminorms.net_s": incl("seminorms.net"),
        "seminorms.pseudometric_calls": ccalls("seminorms.pseudometric"),
        "seminorms.admissible_s": incl("seminorms.admissible"),
        "counterexample.build_setting_s": incl("counterexample.build_setting"),
        "counterexample.coeff_growth_s": incl("counterexample.coeff_growth"),
        "counterexample.tail_obstruction_s": incl("counterexample.tail_obstruction"),
        "serialization.parse_s": incl("serialization.parse"),
        "serialization.serialize_s": incl("serialization.serialize"),
        "serialization.bytes_in": (tracer.bytes_in / jobs, "B/job"),
        "serialization.bytes_out": (tracer.bytes_out / jobs, "B/job"),
        "modules.inner_product_calls": ccalls("modules.inner_product"),
        "modules.inner_product_s": cincl("modules.inner_product"),
        "modules.vector_norm_calls": ccalls("modules.vector_norm"),
        "modules.vector_norm_s": cincl("modules.vector_norm"),
        "modules.submodule_distance_s": cincl("modules.submodule_distance"),
        "modules.span_family_s": cincl("modules.span_family"),
        "algebra.elements_built": ccalls("algebra.elements_built"),
        "algebra.state_eval_calls": ccalls("algebra.state_eval"),
        "linalg.eigh_calls": ccalls("linalg.eigh", "linalg.eigvalsh"),
        "linalg.svd_calls": ccalls("linalg.svd"),
        "linalg.norm2_calls": (tracer.norm2_calls / jobs, "count/job"),
        "linalg.pinv_calls": ccalls("linalg.pinv"),
        "linalg.s": cincl(*linalg),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def _report(title: str, metrics: dict, job_s: float | None = None) -> None:
    """Readable table; with job_s, each per-job time also as a share of a job."""
    print(title)
    for name, (value, unit) in metrics.items():
        share = f"{value / job_s:8.1%} of a job" if job_s and unit == "s/job" else ""
        print(f"  {name:36s} {value:14.6g} {unit:10s}{share}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = _import_cli()
    env = _env()
    # One vCPU for this process and the set-up interpreters it starts, so
    # the reference kernel reads the speed of the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env["pinned_cpu"] = min(os.sched_getaffinity(0))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, digest = gen.generate(args.workload, args.seed, workdir)
        runner = Runner(cli, jobs, reference=not args.trace)
        if not args.trace:
            _setup_times(1)  # the first import writes bytecode caches
            setup, setup_raw = _setup_times(SETUP_REPEATS // 2)
        runner.warm_up()
        if args.trace:
            tracer = Tracer()
            count, untraced, traced = _traced_rounds(runner, tracer, args.seconds)
            metrics = _per_layer(tracer, count * len(jobs), traced / untraced)
            span_file = WORK / f"trace-{args.workload}.jsonl"
            tracer.write(span_file)
        else:
            count = runner.rounds_for(args.seconds, MIN_JOBS)
            more, more_raw = _setup_times(SETUP_REPEATS - len(setup))
            metrics, raw = _end_to_end(runner, setup + more, setup_raw + more_raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {digest}")
    print("environment " + json.dumps(env, sort_keys=True))
    timed = sum(len(s) for s in runner.samples)
    print(f"closed loop: 1 client, {len(jobs)} jobs a round, {count} rounds, "
          f"{timed} jobs timed (the sample count), {runner.attempted} checked")
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    if args.trace:
        _report(f"per-layer, per job over {count * len(jobs)} traced jobs "
                f"(each traced round follows an untraced one) "
                f"(spans in {span_file.relative_to(ROOT)})", metrics, traced / (count * len(jobs)))
    else:
        _report(f"end to end, at reference speed (kernel {REF_S * 1e3:g} ms), "
                f"over all {timed} timed jobs", metrics)
        _report("raw wall times, and the reference kernel's readings",
                dict(raw, failed_ratio=(failed / runner.attempted, "1")))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
