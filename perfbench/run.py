"""tricklefair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a checkout. With --trace 0 it prints the end-to-end
metrics wall_s, setup_s, peak_rss_mb, ops_attempted and ops_failed; with
--trace 1 the per-layer metrics, and it writes every span to
.perfbench_out/spans-<workload>-seed<N>.json. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and the metric definitions.
"""
from __future__ import annotations

import os

# One thread per workload process, also in native libraries.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import spans
import workloads
from workloads import OUT_DIR, ROOT, WORKLOADS

# Cold set-ups timed in fresh interpreters before the passes and again after
# them, so setup_s (their median) samples both ends of the run.
SETUP_PROBES = 4
MIN_PASSES = 3  # untraced passes per run, even when --seconds runs out first
MIN_TRACE_PASSES = 2  # of each kind in a traced run


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer") from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment() -> dict:
    """Machine and code state recorded with every result."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(name: str, seed: int, work: os.PathLike, tag: str) -> list[float]:
    """Seconds of SETUP_PROBES cold set-ups, each timed inside a fresh interpreter."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import workloads; workloads.probe_setup(*sys.argv[2:])"
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"probe-{tag}{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(workloads.BENCH_DIR), name, str(seed), str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir)
    return samples


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, ctx, seed, pass_dir, reference, tracer=None):
    """One timed pass, then its checks.

    Returns (wall seconds, peak RSS in MiB before the checks, failed ops, problems).
    """
    pass_dir.mkdir()
    if tracer is not None:
        tracer.install()
    sink = io.StringIO()  # the CLI's report lines; kept off the benchmark's stdout
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            raw = workload.run(ctx, pass_dir)
        error = None
    except Exception as exc:  # a crashing operation is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        rss = peak_rss_mib()
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            outputs = workload.collect(ctx, pass_dir, raw)
            workloads.check(workload, outputs, seed, reference)
        except Exception as exc:  # unreadable or missing output
            error = f"{type(exc).__name__} while checking: {exc}"
    shutil.rmtree(pass_dir)
    if error is not None:
        return wall, rss, workload.ops_per_pass, {"pass": [error]}
    return wall, rss, len(outputs.problems), outputs.problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = WORKLOADS[name]
    reference = workloads.load_reference()
    work = OUT_DIR / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_samples = measure_setup(name, seed, work, "before")
        tf = workloads.import_package()
        tracer = spans.Tracer(tf) if traced else None
        if tracer is not None:
            tracer.install()
        try:
            ctx = workload.setup(seed, work)
        finally:
            if tracer is not None:
                tracer.uninstall()

        walls = {False: [], True: []}
        traced_spans = []
        attempted = failed = 0
        start = time.perf_counter()
        index = 0
        while True:
            # A traced run alternates untraced and traced passes.
            with_trace = traced and index % 2 == 1
            if with_trace:
                tracer.phase = f"pass{index}"
                first_span = len(tracer.spans)
            wall, rss, pass_failed, problems = run_pass(
                workload, ctx, seed, work / f"pass{index}", reference, tracer if with_trace else None
            )
            walls[with_trace].append(wall)
            if index == 0:
                # The checks load every output into Python objects; only the
                # first reading is free of their memory.
                first_pass_rss = rss
            if with_trace:
                traced_spans.append(tracer.spans[first_span:])
            attempted += workload.ops_per_pass
            failed += pass_failed
            for op, texts in problems.items():
                for text in texts:
                    print(f"FAILED pass {index} {op}: {text}", file=sys.stderr)
            index += 1
            enough = len(walls[False]) >= (MIN_TRACE_PASSES if traced else MIN_PASSES)
            enough = enough and len(walls[True]) >= (MIN_TRACE_PASSES if traced else 0)
            # Stop before a further pass of the same length would overrun --seconds.
            if enough and time.perf_counter() - start + wall > seconds:
                break
        setup_samples += measure_setup(name, seed, work, "after")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    if traced:
        setup_spans = [s for s in tracer.spans if s["phase"] == "setup"]
        per_pass = [spans.layer_metrics(setup_spans + pass_spans, workload.gate1) for pass_spans in traced_spans]
        values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        units = declared_units("per_layer")
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "environment": env, "spans": tracer.spans}, fh)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        iterations = [s["iterations"] for s in traced_spans[0] if s["name"] == "model.solve"]
        if iterations:
            print("solver iterations per solve, first traced pass: " + " ".join(map(str, iterations)))
    else:
        values = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": first_pass_rss,
        }
        units = declared_units("end_to_end")

    print(f"workload {name} seed {seed}: {len(walls[False])} untraced and {len(walls[True])} traced passes")
    for with_trace, label in ((False, "untraced"), (True, "traced")):
        if walls[with_trace]:
            print(f"  {label} pass wall times (s): " + " ".join(f"{w:.3f}" for w in walls[with_trace]))
    for key, unit in units.items():
        print(f"  {key:<30} {values[key]:>16.6g} {unit}")
    print(f"  {'ops_attempted':<30} {attempted:>16d} count")
    print(f"  {'ops_failed':<30} {failed:>16d} count")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget for the passes of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tricklefair").is_dir():
        print(f"error: no tricklefair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    workloads.use_checkout_sources()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
