"""Closed-loop benchmark of the ringbf command line.

    python3 perfbench/run.py --workload image_filter --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  One client runs one CLI invocation at a time, each in a fresh
interpreter through ``perfbench/launcher.py``, and waits for it; there is
never more than one program process.  A *pass* is one run of the workload's
script (see workloads.py).  Passes repeat while another one is expected to
finish within ``--seconds``; there is always at least one.  Every output is
checked.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, as
medians over the passes.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics: layer self times and counts from spans
recorded around each layer's functions (tracing.py), kernel throughput from
in-process calls, and the import cost from ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
say, for people, what was measured.
"""
import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAUNCHER = HERE / "launcher.py"

SETUP_SAMPLES = 7
INVOCATION_TIMEOUT_S = 120.0
IMPORTTIME_SAMPLES = 3
MB = 1e6

Invocation = namedtuple("Invocation", "returncode seconds peak_rss_mb stdout stderr")


def child_env(trace_file=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PERFBENCH_TRACE", None)
    if trace_file is not None:
        env["PERFBENCH_TRACE"] = str(trace_file)
    return env


def invoke(argv, work, trace_file=None):
    """Run one CLI invocation to completion; time it from spawn to reap."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCHER), *argv], cwd=work,
                                stdout=out, stderr=err, env=child_env(trace_file))
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, seconds, usage.ru_maxrss * 1024 / MB,
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def setup_seconds(work):
    """Wall time of a fresh interpreter up to the end of ``import ringbf``."""
    code = "import sys, ringbf; sys.stdout.write('1'); sys.stdout.flush()"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=work,
                            stdout=subprocess.PIPE, env=child_env())
    ready = proc.stdout.read(1)
    seconds = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or ready != b"1":
        raise RuntimeError("import ringbf failed in a fresh interpreter")
    return seconds


class Pass:
    """One run of a workload's script: timings, memory, output and failures."""

    def __init__(self, workload, work, trace_dir=None):
        self.step_s = {}
        self.peak_rss_mb = 0.0
        self.output_bytes = 0
        self.failures = []
        self.traces = []
        for step in workload.steps:
            for name in step.outputs:
                (work / name).unlink(missing_ok=True)
            trace_file = trace_dir / f"{step.name}.json" if trace_dir else None
            inv = invoke(step.argv, work, trace_file)
            self.step_s[step.name] = inv.seconds
            self.peak_rss_mb = max(self.peak_rss_mb, inv.peak_rss_mb)
            self.output_bytes += len(inv.stdout.encode()) + sum(
                (work / name).stat().st_size for name in step.outputs if (work / name).exists())
            if inv.returncode != 0:
                problems = [f"exit code {inv.returncode}: {inv.stderr.strip()[-500:]}"]
            else:
                problems = run_check(step, work, inv.stdout)
            if problems:
                self.failures.append((step.name, problems))
            if trace_file is not None and trace_file.exists():
                self.traces.append(json.loads(trace_file.read_text()))
        self.run_s = sum(self.step_s.values())
        self.attempted = len(workload.steps)


def run_check(step, work, stdout):
    try:
        return step.check(work, stdout)
    except Exception as exc:  # a malformed output must count as a failure, not stop the run
        return [f"check raised {type(exc).__name__}: {exc}"]


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed):
    import scipy

    import ringbf

    backend_name = getattr(ringbf, "backend_name", None)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "backend": backend_name() if backend_name else "numpy (no backend selection)",
        "RINGBF_BACKEND": os.environ.get("RINGBF_BACKEND", "unset"),
    }


def kernel_mpix_s(work, seed):
    """Image-kernel throughput per image side, from kernelbench.py in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "kernelbench.py"), "--seed", str(seed)],
                          cwd=work, env=child_env(), capture_output=True, text=True, check=True)
    *notes, result = proc.stdout.splitlines()
    for line in notes:
        print(f"  {line}")
    return {int(size): value for size, value in json.loads(result).items()}


def importtime_s(work, module):
    """Cumulative import time of ``module`` under ``import ringbf`` (0 if not imported)."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ringbf"],
                              cwd=work, env=child_env(), capture_output=True, text=True, check=True)
        micros = [int(m.group(1)) for m in re.finditer(
            rf"^import time:\s+\d+ \|\s+(\d+) \|\s*{re.escape(module)}$", proc.stderr, re.M)]
        samples.append(micros[0] / 1e6 if micros else 0.0)
    return statistics.median(samples)


def end_to_end(passes, workload, setup_s):
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(p.run_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "output_mb": statistics.median(p.output_bytes for p in passes) / MB,
    }
    for metric, (alias, step) in workload.slots.items():
        metrics[metric] = statistics.median(p.step_s[step] for p in passes)
        print(f"  {alias} = {metric}: {metrics[metric]:.4f} s")
    return metrics


def per_layer(untraced, traced, work, seed):
    import tracing

    layers, probes_per_solve = tracing.summarize(traced.traces)
    absent = sorted({name for t in traced.traces for name in t["absent"]})
    if absent:
        print(f"  absent layers (reported as 0): {', '.join(absent)}")
    metrics = {}
    for name in tracing.LAYERS:
        layer = layers[name]
        metrics[f"{name}.self_s"] = layer["self_s"]
        metrics[f"{name}.calls"] = layer["calls"]
        metrics[f"{name}.pair_evals_per_s"] = layer["work"] / layer["self_s"] if layer["self_s"] > 0 else 0.0
    metrics["analysis.solve_threshold.probes"] = probes_per_solve
    metrics["io_cli.bytes_written"] = traced.output_bytes
    metrics["import.ringbf_s"] = statistics.median(t["import_s"] for t in traced.traces)
    metrics["import.scipy_special_s"] = importtime_s(work, "scipy.special")
    for size, value in kernel_mpix_s(work, seed).items():
        metrics[f"backend.filter_values.mpix_s.{size}"] = value
    metrics["trace.overhead_frac"] = traced.run_s / untraced.run_s - 1.0

    pass_s = traced.run_s
    top = sorted(((v["self_s"], k) for k, v in layers.items()), reverse=True)[:6]
    print(f"  traced pass {traced.run_s:.3f} s, untraced {untraced.run_s:.3f} s; largest self times:")
    for self_s, name in top:
        print(f"    {name:40s} {self_s:8.3f} s  {self_s / pass_s:6.1%} of the traced pass")
    outside_s = traced.run_s - layers["io_cli.dispatch"]["total_s"]
    print(f"    {'outside io_cli.dispatch (start, import, exit)':40s} {outside_s:8.3f} s  "
          f"{outside_s / pass_s:6.1%} of the traced pass")
    return metrics


def report(names_units, metrics):
    """Metrics in BENCHMARK.json order, each with its unit."""
    missing = [name for name, _ in names_units if name not in metrics]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in names_units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringbf" / "io_cli.py").is_file():
        print(f"error: no ringbf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        print("meta " + json.dumps(metadata(args.seed)))
        workload = workloads.WORKLOADS[args.workload](WORK, np.random.default_rng(args.seed))

        if args.trace:
            trace_dir = WORK / "trace"
            trace_dir.mkdir()
            passes = [Pass(workload, WORK), Pass(workload, WORK, trace_dir)]
            metrics = per_layer(passes[0], passes[1], WORK, args.seed)
            names_units = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            setup_s = statistics.median(setup_seconds(WORK) for _ in range(SETUP_SAMPLES))
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(Pass(workload, WORK))
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(passes) > args.seconds:  # the next pass would overrun
                    break
            print(f"{args.workload}: {len(passes)} passes of {len(workload.steps)} invocations")
            metrics = end_to_end(passes, workload, setup_s)
            names_units = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for step, problems in p.failures:
            print(f"FAILED {step}: " + "; ".join(problems))
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} invocations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report(names_units, metrics)}
    for name, m in result["metrics"].items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
