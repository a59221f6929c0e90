"""Benchmark of the nethom command-line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of big_graph, many_classes, enumeration, resampling, or ``all``.
Each op is one fresh ``python -m nethom <command>`` process run against the
repository's own ``src/``, one child at a time, in a closed loop: the next op
starts when the previous one has exited, and ops start until S seconds have
passed. Every op's output is checked (see ``check_*`` below and the byte
comparison against the warm-up op).

--trace 0 reports the end-to-end metrics: setup_s (median of SETUP_REPEATS
set-ups, each generating the inputs and running one untimed warm-up op),
wall_s_p50, cpu_s_p50 (user + sys of the op's child, from os.wait4) and
peak_rss_mib (the child's ru_maxrss). The three times are medians in
reference-host seconds: a perfbench/calib.py process times a fixed loop before
the first set-up and after every set-up and op, and each time is divided by
the mean of the two loop times on either side of it, times CAL_REF_S. This
cancels the drift in host speed of a shared VM; the unscaled medians are in
the record line. --trace 1 sets up once, then runs
perfbench/trace.py in a separate process for the per-layer metrics and times
``python -c "import nethom.cli"`` for process.startup_s.

The second-to-last stdout line is a JSON record of the run: workload
properties, every sample (calibration loops too), sample counts, the unscaled
medians, fail_ratio, errors, the environment
and the load average. The last line is the result object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The driver process never imports numpy or nethom: a child's ru_maxrss starts
from the RSS of the process that spawned it, so the spawner stays small and
its own peak is recorded as driver_peak_rss_mib.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Paths below are relative to ROOT, the working directory of the driver and of
# every child: a child's argv and environment then do not depend on where the
# checkout lives or on the seed. (The child's peak RSS was seen to move by
# 5 MiB with nothing but the length of the paths on its command line.)
SRC = "src"
WORK = ".perfbench_work"

SETUP_REPEATS = 3
# median calibration sample (perfbench/calib.py) on the host where the benchmark
# was made, a 2-vCPU VM; the end-to-end times are scaled to a host this fast
CAL_REF_S = 0.15
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
REL_TOL = 1e-12
BASELINE_SAMPLES = 150
ORACLE_PROFILE = "3,4,4"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def op_argv(workload: str, work: str, seed: int) -> list[str]:
    """The nethom command line of one op, without --out."""
    graph = os.path.join(work, "graph.edges")
    coloring = os.path.join(work, "coloring.tsv")
    if workload == "enumeration":
        return ["oracle-check", "--graph", graph, "--profile", ORACLE_PROFILE]
    if workload == "resampling":
        return ["baseline", "--graph", graph, "--coloring", coloring,
                "--samples", str(BASELINE_SAMPLES), "--seed", str(seed)]
    return ["analyze", "--graph", graph, "--coloring", coloring]


WORKLOADS = ("big_graph", "many_classes", "enumeration", "resampling")


# --- output checks -----------------------------------------------------------

def _close(got, want: float) -> bool:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _in_range(value, lo: float, hi: float) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and lo <= value <= hi


def _check_profile(report: dict, expected: dict, observed: list) -> list[str]:
    """Class sizes and homophilic counts against the generator's recount."""
    profile = report["profile"]
    got = {label: [size, count]
           for label, size, count in zip(profile["classes"], profile["sizes"], observed)}
    if len(profile["classes"]) != len(expected["classes"]) or got != expected["classes"]:
        return ["class sizes or observed counts differ from the generator's recount"]
    return []


def check_analyze(report: dict, expected: dict, seed: int) -> list[str]:
    props = expected["properties"]
    n, m = props["n"], props["m"]
    errors = []
    graph = report["graph"]
    if (graph["n"], graph["m"]) != (n, m):
        errors.append(f"n, m = {graph['n']}, {graph['m']}; want {n}, {m}")
    errors += _check_profile(report, expected, report["observed"])
    for size, got in zip(report["profile"]["sizes"], report["expected"]):
        want = float(Fraction(m * size * (size - 1), n * (n - 1)))
        if not _close(got, want):
            errors.append(f"expected count {got} for class size {size}; want {want}")
            break
    if not _close(graph["gamma"], expected["gamma"]):
        errors.append(f"gamma {graph['gamma']}; want {expected['gamma']}")
    indices = report["indices"]
    signed = {"a": indices["a"], "r": indices["r"],
              **{f"j_theta.{k}": v for k, v in indices["j_theta"].items()}}
    for key, value in signed.items():
        if not _in_range(value, -1.0, 1.0):
            errors.append(f"index {key} = {value!r} is not in [-1, 1]")
    if not _in_range(indices["h"], 0.0, 1.0):
        errors.append(f"index h = {indices['h']!r} is not in [0, 1]")
    return errors


def check_baseline(report: dict, expected: dict, seed: int) -> list[str]:
    errors = []
    if report["samples"] != BASELINE_SAMPLES or len(report["per_sample"]) != BASELINE_SAMPLES:
        errors.append(f"samples = {report['samples']}; want {BASELINE_SAMPLES}")
    if report["seeds"] != list(range(seed, seed + BASELINE_SAMPLES)):
        errors.append("seed list is not seed, seed + 1, ...")
    errors += _check_profile(report, expected, report["observed_input"])
    return errors


def check_oracle(report: dict, expected: dict, seed: int) -> list[str]:
    errors = []
    failing = [c["name"] for c in report["checks"] if c["status"] != "PASS"]
    if len(report["checks"]) != 6 or failing:
        errors.append(f"oracle checks not all PASS: {failing}")
    instance = report["instance"]
    if instance["colorings"] != expected["colorings"]:
        errors.append(f"colorings = {instance['colorings']}; want {expected['colorings']}")
    if instance["profile"] != expected["profile"]:
        errors.append(f"profile = {instance['profile']}")
    return errors


CHECKS = {
    "big_graph": check_analyze,
    "many_classes": check_analyze,
    "enumeration": check_oracle,
    "resampling": check_baseline,
}

_TIMING = re.compile(r',\n  "timing": \{[^{}]*\}')


def without_timing(text: str) -> str:
    """The report text with analyze's wall-clock ``timing`` block cut out."""
    return _TIMING.sub("", text)


def check_report(workload: str, text: str, expected: dict, seed: int) -> list[str]:
    try:
        report = json.loads(text)
        return CHECKS[workload](report, expected, seed)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


# --- child processes -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # an installed CLI runs from cached bytecode; the warm-up op writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], stdout_path: str | None = None, timeout: float = OP_TIMEOUT_S) -> dict:
    """Run one child to completion; wall time from spawn to exit plus its rusage."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err_path = os.path.join(WORK, "last_stderr.txt")
    try:
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")[-2000:]
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "stderr": stderr,
    }


def run_nethom(argv: list[str], out_path: str) -> tuple[dict, str]:
    res = spawn([sys.executable, "-m", "nethom", *argv, "--out", out_path])
    text = ""
    if res["rc"] == 0 and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
    return res, text


def generate(workload: str, seed: int, work: str) -> dict:
    res = spawn([sys.executable, "perfbench/gen.py", "--workload", workload,
                 "--seed", str(seed), "--out", work])
    if res["rc"] != 0:
        raise RuntimeError(f"input generator failed: {res['stderr']}")
    with open(os.path.join(work, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def set_up(workload: str, seed: int, work: str, state: dict) -> float:
    """Generate the inputs and run the untimed warm-up op; returns seconds taken.

    The first warm-up's output becomes ``state["reference"]`` and is checked in
    full; each later set-up must reproduce it byte for byte.
    """
    t0 = time.perf_counter()
    expected = generate(workload, seed, work)
    res, text = run_nethom(op_argv(workload, work, seed), os.path.join(work, "warmup.json"))
    elapsed = time.perf_counter() - t0
    if res["rc"] != 0:
        state["errors"].append(f"warm-up op exited {res['rc']}: {res['stderr']}")
    elif "reference" not in state:
        state["expected"] = expected
        state["reference"] = without_timing(text)
        problems = check_report(workload, text, expected, seed)
        state["reference_ok"] = not problems
        state["errors"] += problems
    elif without_timing(text) != state["reference"] or expected != state["expected"]:
        state["errors"].append("a repeated set-up produced different inputs or output")
    return elapsed


def op_failed(res: dict, text: str, state: dict) -> bool:
    """An op fails on a nonzero exit, on output that differs from the warm-up
    op's (timing dropped), or when the warm-up output failed its checks."""
    if res["rc"] != 0:
        state["errors"].append(f"op exited {res['rc']}: {res['stderr']}")
        return True
    if without_timing(text) != state.get("reference"):
        state["errors"].append("op output differs from the warm-up op's output")
        return True
    return not state.get("reference_ok", False)


# --- environment record ------------------------------------------------------

def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(work: str) -> dict:
    probe = os.path.join(work, "versions.json")
    spawn([sys.executable, "-c",
           "import json, sys, numpy; json.dump({'python': sys.version.split()[0], "
           "'numpy': numpy.__version__}, sys.stdout)"], stdout_path=probe)
    with open(probe, encoding="utf-8") as fh:
        versions = json.load(fh)
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "platform": platform.platform(),
        "thread_vars": {name: env.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
    }


# --- one workload --------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Calibration:
    """The perfbench/calib.py process of one run: ``sample()`` returns the wall
    seconds of one fixed calibration loop, a measure of host speed now. The
    process is idle between samples and is ended by ``close()``."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "perfbench/calib.py"], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration loop exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def close(self) -> None:
        try:
            self.proc.stdin.close()  # end of input: the loop exits
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self.proc.stdout.close()


def host_scaled(times: list[float], cals: list[float]) -> list[float]:
    """times[i] divided by the mean of cals[i] and cals[i + 1], times CAL_REF_S."""
    return [t * CAL_REF_S * 2 / (cals[i] + cals[i + 1]) for i, t in enumerate(times)]


def timed_run(workload: str, seed: int, seconds: float, work: str, state: dict) -> dict:
    """Set up SETUP_REPEATS times, then run ops until ``seconds`` have passed.

    A calibration sample precedes the first set-up and follows every set-up
    and every op. Each set-up and op time is reported in reference-host
    seconds: divided by the mean of the calibration samples on either side of
    it, times CAL_REF_S. The metrics are medians of these scaled times.
    """
    cal = Calibration()
    try:
        cal.sample()
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(set_up(workload, seed, work, state))
            cal.sample()
        argv = op_argv(workload, work, seed)
        out_path = os.path.join(work, "op.json")
        samples, failed = [], 0
        deadline = time.perf_counter() + seconds
        while True:
            res, text = run_nethom(argv, out_path)
            failed += op_failed(res, text, state)
            samples.append(res)
            cal.sample()
            if time.perf_counter() >= deadline:
                break
    finally:
        cal.close()
    median = statistics.median
    wall = [r["wall_s"] for r in samples]
    cpu = [r["cpu_s"] for r in samples]
    setup_cals, op_cals = cal.samples[:SETUP_REPEATS + 1], cal.samples[SETUP_REPEATS:]
    state["samples"] = {
        "calib_s": cal.samples,
        "setup_s": setups,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": [r["peak_rss_mib"] for r in samples],
    }
    state["sample_counts"] = {"calib_s": len(cal.samples), "setup_s": len(setups),
                              "wall_s_p50": len(samples), "cpu_s_p50": len(samples),
                              "peak_rss_mib": len(samples)}
    state["attempted"], state["failed"] = len(samples), failed
    state["unscaled"] = {"setup_s": median(setups), "wall_s_p50": median(wall),
                         "cpu_s_p50": median(cpu), "calib_s_p50": median(cal.samples)}
    return {
        "setup_s": _metric(median(host_scaled(setups, setup_cals)), "s"),
        "wall_s_p50": _metric(median(host_scaled(wall, op_cals)), "s"),
        "cpu_s_p50": _metric(median(host_scaled(cpu, op_cals)), "s"),
        "peak_rss_mib": _metric(median(state["samples"]["peak_rss_mib"]), "MiB"),
    }


# share of cli.main that each workload was designed to put on one layer;
# build_index_report counts with the index functions it calls
DESIGN_SHARES = {
    "big_graph": (("graphs.load_edge_list", "colorings.load_coloring"), 0.70),
    "many_classes": (("moments.covariance_structure",), 0.60),
    "enumeration": (("oracle.exact_tail",), 0.50),
    "resampling": (("colorings.random_coloring", "colorings.homophilic_counts",
                    "indices.build_index_report"), 0.50),
}


def traced_run(workload: str, seed: int, seconds: float, work: str, state: dict) -> dict:
    set_up(workload, seed, work, state)
    plain, traced = os.path.join(work, "plain.json"), os.path.join(work, "traced.json")
    trace_out = os.path.join(work, "trace.json")
    res = spawn([sys.executable, "perfbench/trace.py", "--seconds", str(seconds),
                 "--out-plain", plain, "--out-traced", traced, "--",
                 *op_argv(workload, work, seed)], stdout_path=trace_out)
    if res["rc"] != 0:
        raise RuntimeError(f"traced run failed: {res['stderr']}")
    with open(trace_out, encoding="utf-8") as fh:
        trace = json.load(fh)
    failed = sum(code != 0 for code in trace["exit_codes"])
    for path in (plain, traced):
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        if without_timing(text) != state.get("reference"):
            state["errors"].append(f"in-process output {os.path.basename(path)} differs")
            failed += 1
    startup = [spawn([sys.executable, "-c", "import nethom.cli"])["wall_s"]
               for _ in range(STARTUP_REPEATS)]

    total = trace["total_s"]
    funcs = trace["functions"]
    metrics = {}
    for name, stat in funcs.items():
        metrics[f"{name}.calls"] = _metric(stat["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(stat["self_s"], "s")
    load = funcs["graphs.load_edge_list"]
    metrics["graphs.load_edge_list.edges_per_s"] = _metric(
        load["items"] / load["self_s"] if load["self_s"] > 0 else 0.0, "1/s")
    enum = funcs["oracle.enumerate_colorings"]
    metrics["oracle.enumerate_colorings.colorings_per_s"] = _metric(
        enum["items"] / enum["self_s"] if enum["self_s"] > 0 else 0.0, "1/s")
    metrics["cli.main.total_s"] = _metric(total, "s")
    metrics["cli.self_s"] = _metric(trace["cli_self_s"], "s")
    metrics["process.startup_s"] = _metric(statistics.median(startup), "s")
    metrics["trace.overhead_s"] = _metric(trace["overhead_s"], "s")

    layers: dict[str, float] = {"cli": trace["cli_self_s"]}
    for name, stat in funcs.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + stat["self_s"]
    names, floor = DESIGN_SHARES[workload]
    hot = sum(funcs[n]["total_s"] for n in names) / total
    state["trace"] = {
        "pairs": trace["pairs"],
        "plain_s": trace["plain_s"],
        "traced_s": trace["traced_s"],
        "layer_share": {layer: t / total for layer, t in layers.items()},
        "function_share": {n: s["self_s"] / total for n, s in funcs.items() if s["calls"]},
        "design_share": {"functions": list(names), "share": hot, "at_least": floor,
                         "met": hot >= floor},
        "startup_s": startup,
    }
    state["attempted"], state["failed"] = len(trace["exit_codes"]), failed
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    state: dict = {"errors": []}
    load_before = os.getloadavg()
    env = environment(work)
    metrics = (traced_run if trace else timed_run)(workload, seed, seconds, work, state)
    record = {
        "workload": workload,
        "seed": seed,
        "mode": "traced" if trace else "timed",
        "properties": state["expected"]["properties"] if "expected" in state else None,
        "sample_counts": state.get("sample_counts"),
        "unscaled": state.get("unscaled"),
        "samples": state.get("samples"),
        "trace": state.get("trace"),
        "fail_ratio": state["failed"] / state["attempted"],
        "errors": state["errors"][:10],
        "env": env,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "driver_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "correct": not state["errors"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": metrics,
    }
    if result["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the nethom CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, SRC, "nethom", "cli.py")):
        print(f"error: no nethom sources under {os.path.join(ROOT, SRC)}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.chdir(ROOT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        record, results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(record), flush=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # one result for all workloads, metric names prefixed with the workload
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            print(f"{name:14s} {metric:48s} {value['value']:.6g} {value['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
