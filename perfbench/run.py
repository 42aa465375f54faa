"""lapfam benchmark: four seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

One process, one closed-loop client, no threads.  Each job calls
``lapfam.cli.main(argv)`` in-process as ``lapfam spectrum|dimension|gen|verify``
would run, and every output is checked exactly against a reference
computed outside the timed region.  Jobs run in whole passes over the
workload's fixed job list; another pass starts only while it is expected to
end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (totals per
traced pass) plus ``trace_overhead_ratio``.  The last line of standard
output is the result object; the lines before it are a readable summary
and the run's stamp.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import jobs as workloads
from jobs import BenchmarkError
from spans import LAYERS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"
MIN_PASSES = 3
SETUPS_PER_PASS = 2


def import_lapfam() -> SimpleNamespace:
    """Import lapfam from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "lapfam" or m.startswith("lapfam.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import lapfam.cli  # noqa: F401  (what `lapfam <command>` imports)
    except ImportError as exc:
        raise BenchmarkError(f"cannot import lapfam from {SRC}: {exc}") from None
    if not Path(sys.modules["lapfam"].__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"lapfam was imported from outside {SRC}")
    return SimpleNamespace(**{name: sys.modules[f"lapfam.{name}"] for name in LAYERS})


def setup(workload, seed: int, workdir: Path, tiny: bool, mods: SimpleNamespace):
    """Import lapfam and generate the inputs into ``workdir``.

    Returns (seconds taken, inputs).  ``mods`` is rebound to the fresh
    modules, so jobs built earlier call the latest import.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    vars(mods).update(vars(import_lapfam()))
    inputs = workload.inputs(seed, workdir, tiny)
    return time.perf_counter() - start, inputs


class Runner:
    """Runs passes over a job list and keeps every latency and failure."""

    def __init__(self, job_list):
        self.jobs = job_list
        self.next_id = 0
        self.failures: list[str] = []
        self.verify_elapsed: dict[str, float] = {}
        self.by_label: dict[str, list[float]] = {}

    def run_pass(self, tracer: Tracer | None = None) -> list[float]:
        latencies = []
        for job in self.jobs:
            self.next_id += 1
            if tracer is not None:
                tracer.job = self.next_id
            start = time.perf_counter()
            try:
                result, error = job.run(), None
            except Exception as exc:  # a job that raises is a failed job, not a crash
                result, error = None, exc
            latencies.append(time.perf_counter() - start)
            self.by_label.setdefault(job.label, []).append(latencies[-1])
            if tracer is not None:
                tracer.job = None
            try:
                if error is not None:
                    raise error
                extra = job.check(job, result)
            except Exception as exc:
                self.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
                continue
            if tracer is not None:
                for name, elapsed in extra.items():
                    self.verify_elapsed[name] = self.verify_elapsed.get(name, 0.0) + elapsed
        return latencies


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` values
    beyond it (50 when there is none)."""
    return max(
        [p for p in range(50, 100) if count - ceil(p / 100 * count) >= 10], default=50
    )


def measure(runner: Runner, seconds: float, resetup) -> tuple[dict, dict]:
    """Whole passes, at least MIN_PASSES, with SETUPS_PER_PASS set-ups after each.

    On a shared machine the CPU's speed shifts by up to 2x for seconds at a
    time, so a job's latency is its median over the passes, and set-ups
    are spread over the run rather than done back to back.  The latency
    metrics are taken across the job list from those per-job medians.
    """
    per_pass: list[list[float]] = []
    setups: list[float] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        per_pass.append(runner.run_pass())
        now = time.perf_counter()
        setups += [resetup() for _ in range(SETUPS_PER_PASS)]
        if len(per_pass) >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    typical = sorted(statistics.median(times) for times in zip(*per_pass))
    count = len(typical)
    tail_pct = tail_percentile(count)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": count / sum(typical),
        "job_p50_s": statistics.median(typical),
        "job_tail_s": percentile(typical, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - len(runner.failures) / runner.next_id,
    }
    accounting = {
        "passes": len(per_pass),
        "jobs_per_pass": count,
        "samples": count * len(per_pass),
        "tail_percentile": tail_pct,
        "jobs_beyond_tail": count - ceil(tail_pct / 100 * count),
        "setups": len(setups),
        "measured_s": time.perf_counter() - start,
    }
    return metrics, accounting


def measure_traced(runner: Runner, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; per-layer metrics per traced pass."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain += runner.run_pass()
        tracer.install()
        try:
            traced += runner.run_pass(tracer)
        finally:
            tracer.restore()
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    passes = len(traced) // len(runner.jobs)
    metrics = layer_metrics(tracer.spans, passes, runner.verify_elapsed)
    # Traced time over untraced time for the same jobs: 1.0 is no overhead.
    metrics["trace_overhead_ratio"] = sum(traced) / sum(plain)
    accounting = {
        "passes": passes,
        "jobs_per_pass": len(runner.jobs),
        "samples": len(traced),
        "spans": len(tracer.spans),
        "measured_s": time.perf_counter() - start,
    }
    return metrics, accounting


def source_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lapfam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": source_commit(),
        "source_sha256": source_digest(),
        "client": "closed loop, 1 client, 1 process, no threads",
    }


def run(name: str, seed: int, seconds: float, trace: int, tiny: bool = False, spoil: bool = False):
    """One benchmark run; returns (result object, full report)."""
    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    mods = SimpleNamespace()
    try:
        _, inputs = setup(workload, seed, workdir / "inputs", tiny, mods)
        job_list = workload.jobs(inputs, mods)
        if spoil:
            expect = next(job.expect for job in job_list if workload.spoil_key in job.expect)
            value = expect[workload.spoil_key]
            expect[workload.spoil_key] = (not value) if isinstance(value, bool) else value + 1
        runner = Runner(job_list)
        if trace:
            tracer = Tracer()
            metrics, accounting = measure_traced(runner, seconds, tracer)
            tracer.dump(OUT / f"spans-{name}.jsonl")
        else:
            scratch = workdir / "setup"
            metrics, accounting = measure(
                runner, seconds, lambda: setup(workload, seed, scratch, tiny, mods)[0]
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's inputs are still there
            pass
    attempted = runner.next_id
    failed = len(runner.failures)
    accounting.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted)
    report = {
        "stamp": stamp(name, seed, seconds, trace),
        "accounting": accounting,
        "metrics": metrics,
        "failures": runner.failures[:20],
        "job_latencies_s": dict(sorted(runner.by_label.items())),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(result: dict, report: dict, spec: dict) -> None:
    """Print the summary, the stamp, and the result object as the last line."""
    trace = report["stamp"]["trace"]
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    acc = report["accounting"]
    s = report["stamp"]
    print(f"# lapfam perfbench  workload={s['workload']} seed={s['seed']} trace={trace}")
    for name, unit in units.items():
        print(f"#   {name:<44} {result['metrics'][name]:>14.6g} {unit}")
    print(
        f"#   failed_ratio {acc['failed_ratio']:.6g} ({acc['failed']} of {acc['attempted']} jobs); "
        + (
            f"{acc['samples']} latency samples over {acc['passes']} passes of {acc['jobs_per_pass']} "
            f"jobs; a job's latency is its median over passes; tail is p{acc['tail_percentile']} "
            f"with {acc['jobs_beyond_tail']} jobs beyond; setup_s is the median of "
            f"{acc['setups']} set-ups"
            if not trace
            else f"{acc['passes']} traced passes of {acc['jobs_per_pass']} jobs"
        )
    )
    for failure in report["failures"]:
        print(f"#   FAILED {failure}")
    print("# report " + json.dumps({"stamp": s, "accounting": acc}, sort_keys=True))
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out))


def smoke() -> None:
    """Tiny inputs on every workload: every declared metric is emitted, and a
    wrong expected answer is counted as a failure."""
    spec = load_spec()
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = run(name, 1, 0.01, trace, tiny=True)
            missing = {m["name"] for m in declared} - set(result["metrics"])
            assert not missing, f"{name} trace={trace}: metrics not emitted: {sorted(missing)}"
            assert result["correct"], f"{name} trace={trace}: tiny run failed"
        result, report = run(name, 1, 0.01, 0, tiny=True, spoil=True)
        assert report["accounting"]["failed_ratio"] > 0, f"{name}: wrong expectation not caught"
        assert result["metrics"]["ok_ratio"] < 1
        print(f"smoke {name}: ok")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test on tiny inputs")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            smoke()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    emit(result, report, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
