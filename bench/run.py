#!/usr/bin/env python3
"""Benchmark of bathdd: the random-Hamiltonian figure ensembles and the
decision verdicts, timed end to end and, in a separate traced run, per layer.

Run from the root of a checkout:

    python3 bench/run.py                                   # every workload, seed 1
    python3 bench/run.py --workload ensemble_64 --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload decide --seed 7 --trace 1

Each workload is a closed loop with one caller. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
metrics are the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``. Spans and a result file go to ``.bench_out/`` in the checkout.
See bench/README.md for what each workload exercises.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("ensemble_64", "ensemble_small", "decide")
# Fixed per workload so that runs of two commits report the same percentile:
# the highest of p80 / p90 / p98 / p99 with at least ten samples beyond it in a
# 30-second run on the machine that defined the benchmark (2 vCPUs).
TAIL_PERCENTILE = {"ensemble_64": 80, "ensemble_small": 98, "decide": 99}
# Operations in each pass of a traced run: a fixed amount of work, so that
# span counts repeat exactly and self times compare across runs.
TRACE_OPS = {"ensemble_64": 12, "ensemble_small": 250, "decide": 656}
SETUP_PROBES = 5
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
VERDICT_KINDS = ("classify", "suppression_check", "dd_check",
                 "cli_classify", "cli_dd_check", "cli_zeno_check")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import bathdd from this checkout's src/, never from elsewhere."""
    if not (SRC / "bathdd" / "__init__.py").is_file():
        fail(f"no bathdd sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bathdd

    if Path(bathdd.__file__).resolve().parent != SRC / "bathdd":
        fail(f"imported bathdd from {bathdd.__file__}, not from {SRC}")
    return bathdd


# --- environment -------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Thread count in effect in each OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                found[Path(path).name] = int(fn())
                break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        "seed": seed,
    }


# --- the closed loop ---------------------------------------------------------


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    kinds: dict[str, int] = field(default_factory=dict)

    def run(self, op, tracer=None, timed: bool = True) -> None:
        """One call, timed; then its check, untimed. A call that raises or
        disagrees with its oracle is one failed operation. Untimed calls
        count towards attempted and failed only."""
        self.attempted += 1
        scope = tracer.op(op.kind) if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        if timed:
            self.latencies.append(time.perf_counter() - start)
            self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        if isinstance(result, Exception):
            self._fail([f"{op.kind}: raised {type(result).__name__}: {result}"])
            return
        if timed:
            self.work += op.work
        try:
            problems = op.check(result)
        except Exception as exc:  # malformed output counts as a wrong answer
            problems = [f"{op.kind}: check raised {type(exc).__name__}: {exc}"]
        self._fail(problems)

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.messages.extend(problems)


def run_for(workload, seconds: float) -> Tally:
    tally = Tally()
    end = time.perf_counter() + seconds
    for op in workload.ops():
        if time.perf_counter() >= end:
            break
        tally.run(op)
    return tally


def run_count(workload, n_ops: int, tracer=None) -> Tally:
    tally = Tally()
    for _, op in zip(range(n_ops), workload.ops()):
        tally.run(op, tracer)
    return tally


def run_final_checks(workload, tally: Tally) -> None:
    """The workload's one-off checks (fixture series), kept out of the timings."""
    for op in workload.final_checks():
        tally.run(op, timed=False)


# --- set-up time -------------------------------------------------------------


def child_command(workload: str, seed: int, child: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--child", child]


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it is ready for its
    first timed call (import, workload inputs, one warm-up call)."""
    start = time.perf_counter()
    with subprocess.Popen(child_command(workload, seed, "setup"), stdout=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        fail(f"set-up probe of {workload} failed with exit code {proc.returncode}")
    return elapsed


# --- reporting ---------------------------------------------------------------


def end_to_end(name: str, tally: Tally, setup_times: list[float]) -> tuple[dict, list[str]]:
    import numpy as np

    lat_ms = np.array(tally.latencies) * 1e3
    pct = TAIL_PERCENTILE[name]
    beyond = int(np.sum(lat_ms > np.percentile(lat_ms, pct)))
    work_unit = "verdicts" if name == "decide" else "(H, n) evaluations"
    call_unit = "verdict call" if name == "decide" else "sweep call"
    error_rate = tally.failed / tally.attempted
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_per_s": (tally.work / (np.sum(lat_ms) / 1e3), "1/s"),
        "latency_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_ms_tail": (float(np.percentile(lat_ms, pct)), "ms"),
        "success_rate": (1.0 - error_rate, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh-interpreter set-ups: "
                   + ", ".join(f"{t:.3f}" for t in setup_times),
        "throughput_per_s": f"{tally.work} {work_unit} over {np.sum(lat_ms) / 1e3:.2f} s busy",
        "latency_ms_p50": f"one {call_unit}, {lat_ms.size} samples",
        "latency_ms_tail": f"p{pct} of {lat_ms.size} samples, {beyond} beyond it"
                           + ("" if beyond >= 10 else " (fewer than ten: run longer)"),
        "success_rate": f"1 - error_rate; error_rate {error_rate:g} = {tally.failed} failed / "
                        f"{tally.attempted} attempted",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    lines = [f"  {k:<18} {v:>12.6g} {u:<6} {notes[k]}" for k, (v, u) in metrics.items()]
    return metrics, lines


def layer_metrics(name: str, summary: dict, untraced: Tally, traced: Tally, blas1: dict) -> dict:
    from spans import SPANS

    calls, self_s, wall = summary["calls"], summary["self_s"], summary["wall_s"]
    m = {}
    for span in SPANS:
        m[f"{span}.calls"] = (calls[span], "count")
        m[f"{span}.self_s"] = (self_s[span], "s")
        m[f"{span}.share"] = (self_s[span] / wall, "ratio")

    def ratio(num, den):
        return num / den if den else 0.0

    verdicts = sum(traced.kinds.get(k, 0) for k in VERDICT_KINDS)
    evals = 0 if name == "decide" else traced.work
    per_kind = summary["per_op_kind"]
    ap = "spectral.analyze_peripheral"
    m[f"{ap}.per_verdict"] = (ratio(calls[ap], verdicts), "ratio")
    m[f"{ap}.per_dd_check"] = (ratio(per_kind.get(f"{ap}|dd_check", 0), traced.kinds.get("dd_check", 0)), "ratio")
    m[f"{ap}.per_cli_zeno_check"] = (
        ratio(per_kind.get(f"{ap}|cli_zeno_check", 0), traced.kinds.get("cli_zeno_check", 0)), "ratio")
    m["channel.extend_with_identity.per_sweep"] = (
        ratio(calls["channel.extend_with_identity"], calls["harness.sweep"]), "ratio")
    m["linalg.expm.per_eval"] = (ratio(calls["linalg.expm"], evals), "ratio")
    m["zeno.step.matmuls"] = (summary["step_matmuls"], "count")
    m["zeno.step.gflops_computed"] = (
        ratio(summary["step_flops"], self_s["zeno.zeno_evolution"]) / 1e9, "GFLOP/s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (sum(untraced.latencies), "s")
    m["trace.overhead_s"] = (wall - sum(untraced.latencies), "s")
    m["trace.spans"] = (summary["spans"], "count")
    for span in SPANS:
        m[f"{span}.self_s.blas1"] = (blas1["self_s"][span], "s")
    m["zeno.step.gflops_computed.blas1"] = (
        ratio(blas1["step_flops"], blas1["self_s"]["zeno.zeno_evolution"]) / 1e9, "GFLOP/s")
    m["trace.wall_s.blas1"] = (blas1["wall_s"], "s")
    return m


def emit(failed: int, attempted: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def write_result(stem: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(payload, indent=1, default=str))


def print_failures(tally: Tally) -> None:
    for message in tally.messages[:20]:
        print(f"  FAILED {message}")
    if len(tally.messages) > 20:
        print(f"  ... and {len(tally.messages) - 20} more")


# --- modes -------------------------------------------------------------------


def traced_pass(name: str, seed: int, workload, tag: str):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tally = run_count(workload, TRACE_OPS[name], tracer)
    tracer.write(OUT / f"{name}-seed{seed}-{tag}-spans.jsonl")
    return tally, tracer.summary()


def child_main(args) -> None:
    from workloads import WORKLOADS

    import_library()
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.child == "setup":
        print("ready", flush=True)
        return
    tally, summary = traced_pass(args.workload, args.seed, workload, "blas1")
    print(json.dumps({"summary": summary, "blas_threads": _blas_threads(),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "messages": tally.messages}))


def measure_main(args) -> None:
    from workloads import WORKLOADS

    name = args.workload
    import_library()
    setup_times = [probe_setup(name, args.seed) for _ in range(SETUP_PROBES)]
    env = environment(args.seed)
    workload = WORKLOADS[name](args.seed)
    workload.warm_up()
    tally = run_for(workload, args.seconds)
    run_final_checks(workload, tally)
    metrics, lines = end_to_end(name, tally, setup_times)
    print(f"workload {name}: closed loop, 1 caller, {args.seconds:g} s, tracing off")
    print(f"  env {json.dumps(env)}")
    print("\n".join(lines))
    print_failures(tally)
    write_result(f"{name}-seed{args.seed}-trace0", {
        "workload": name, "env": env, "metrics": metrics, "failures": tally.messages,
        "tail_percentile": TAIL_PERCENTILE[name],
        "latencies_ms": [round(t * 1e3, 4) for t in tally.latencies]})
    emit(tally.failed, tally.attempted, metrics)


def trace_main(args) -> None:
    from workloads import WORKLOADS

    name = args.workload
    import_library()
    env = environment(args.seed)
    workload = WORKLOADS[name](args.seed)
    workload.warm_up()
    untraced = run_count(workload, TRACE_OPS[name])
    checks = Tally()
    run_final_checks(workload, checks)
    traced, summary = traced_pass(name, args.seed, workload, "default")

    env_blas1 = {**os.environ, **BLAS1_ENV}
    proc = subprocess.run(child_command(name, args.seed, "blas1"), env=env_blas1, cwd=ROOT,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        fail(f"single-threaded traced run failed:\n{proc.stderr}")
    blas1 = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = layer_metrics(name, summary, untraced, traced, blas1["summary"])
    failed = untraced.failed + checks.failed + traced.failed + blas1["failed"]
    attempted = untraced.attempted + checks.attempted + traced.attempted + blas1["attempted"]
    print(f"workload {name}: traced, {TRACE_OPS[name]} operations per pass")
    print(f"  env {json.dumps(env)}")
    print(f"  single-threaded baseline: blas threads {json.dumps(blas1['blas_threads'])}")
    print(f"  tracing overhead: {metrics['trace.overhead_s'][0]:+.4f} s "
          f"(traced {metrics['trace.wall_s'][0]:.4f} s - untraced {metrics['trace.untraced_wall_s'][0]:.4f} s)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<52} {value:>14.6g} {unit}")
    for tally in (untraced, checks, traced):
        print_failures(tally)
    for message in blas1["messages"][:20]:
        print(f"  FAILED (blas1) {message}")
    write_result(f"{name}-seed{args.seed}-trace1", {
        "workload": name, "env": env, "blas1_threads": blas1["blas_threads"],
        "metrics": metrics, "ops": summary["ops"], "per_op_kind": summary["per_op_kind"]})
    emit(failed, attempted, metrics)


def all_main(args) -> None:
    """Every workload, each in a fresh process, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        return
    keys = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"{'metric':<18}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES) + "  unit")
    for key in keys:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][key]["unit"]
        print(f"{key:<18}" + "".join(f"{results[n]['metrics'][key]['value']:>16.6g}" for n in WORKLOAD_NAMES)
              + f"  {unit}")
    print(f"{'failed/attempted':<18}" + "".join(
        f"{results[n]['failed']:>9}/{results[n]['attempted']:<6}" for n in WORKLOAD_NAMES))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "blas1"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        all_main(args)
    elif args.child:
        child_main(args)
    elif args.trace:
        trace_main(args)
    else:
        measure_main(args)


if __name__ == "__main__":
    main()
