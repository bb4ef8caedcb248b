"""modtwist benchmark: one command for every end-to-end and per-layer metric.

Usage (from the repository root):

    python3 bench/run.py --workload enumerate --seed 1 --seconds 40 --trace 0

Workloads: enumerate, pendant_stream, fresh_queries (see bench/README.md).
Each run is a closed loop with one caller and no threads; the processes it
starts run one at a time.

--trace 0 is the timed run.  It reports the end-to-end metrics of the
workload and times only the calls into modtwist's public functions; output
checks run between ops, outside the timed region.

--trace 1 is the traced run.  It runs the timed run's pass once with every
layer's public functions wrapped by the span tracer (bench_trace.py), and
untraced passes before and after it, and reports the per-layer metrics
together with trace.overhead_frac = traced op time / untraced op time - 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the full record:
seed, input digest, provenance, sample counts and failures.  The exit code
is 0 only when every output check passed; it is 2 when the package source
cannot be found next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from bench_trace import ENUMERATION_CASES, Tracer, enumeration_metric

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9  # fresh interpreters per run for setup_s
MIN_REPEATS = 3  # every input is timed in at least this many processes
CLI_TRIES = 2  # calls of each cold CLI argument list per timed run
PROBES_PER_GAP = 10  # host speed probes before each process, cold call and setup sample
# the upper quartile of the probe times that reported times are scaled to:
# about its usual value on the reference machine (2-core shared VM, Python 3.11)
NOMINAL_PROBE_S = 0.25e-3
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ["enumerate", "pendant_stream", "fresh_queries"]

# end-to-end metric name -> unit, reported by every workload; BENCHMARK.json
# lists the same names and units
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "cli_cold_p50_ms": "ms",
    "cli_cold_p75_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# per-layer metrics of the traced run, in the order BENCHMARK.json lists them
PER_LAYER = [
    *(enumeration_metric(*case) for case in ENUMERATION_CASES),
    "necklace.monodromy.calls",
    "necklace.monodromy.self_s",
    "necklace.pendants.calls",
    "necklace.pendants.self_s",
    "psl2.mul.calls",
    *(f"factorization.{name}.{stat}"
      for name in ("exists_2factorization", "canonical_2factorizations",
                   "strong_class_labels", "decide_strong_equivalence")
      for stat in ("calls", "self_s")),
    "factorization.hurwitz_move.calls",
    "factorization.moves_per_decision",
    "factorization.distinct_ratio",
    "psl2.classify.distinct_ratio",
    "psl2.classify.calls",
    "psl2.normal_form.calls",
    "psl2.normal_form.self_s",
    "psl2.classify.self_s",
    "psl2.cutting_conjugator.self_s",
    "diagrams.para_symmetries.calls",
    "diagrams.para_symmetries.self_s",
    "diagrams.recognize.self_s",
    "factorization.count_classes.self_s",
    "factorization.decide_weak_equivalence.self_s",
    "factorization.factorization_reality.self_s",
    "obstructions.finite_quotient_test.calls",
    "obstructions.finite_quotient_test.self_s",
    "skeleton.from_twists.calls",
    "skeleton.from_twists.self_s",
    "mcurve.flat_diagram.self_s",
    "mcurve.monodromy_class.self_s",
    "mcurve.classes_sharing_real_part.self_s",
    "cli.interpreter_ms",
    "cli.import_ms",
    "cli.main_ms",
    "trace.overhead_frac",
]


def per_layer_units() -> dict[str, str]:
    """PER_LAYER with the unit each name's suffix implies."""
    suffix_units = {"_s": "s", "_ms": "ms", "calls": "count", "decision": "count"}
    return {
        name: next((u for suffix, u in suffix_units.items() if name.endswith(suffix)), "ratio")
        for name in PER_LAYER
    }


# -- small helpers -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a nonempty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until `import modtwist` returns."""
    spawned = time.time_ns()
    done = run_child(["-c", "import modtwist, time; print(time.time_ns())"])
    if done.returncode != 0:
        raise RuntimeError(f"import modtwist failed: {done.stderr.strip()}")
    return (int(done.stdout.split()[-1]) - spawned) / 1e9


def provenance() -> dict:
    import numpy

    commit = None
    try:
        # the ceiling stops git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "modtwist").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


# -- the op loop -----------------------------------------------------------------


class Loop:
    """Runs ops in a closed loop, timing each op and checking its output untimed."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.failures: list[str] = []

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def op(self, item) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = self.workload.run_op(item)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            error = f"{item!r}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        self.spans.append((start, end))
        if error is None:
            try:
                problems = self.workload.check_op(item, out)
            except Exception as exc:
                problems = [f"{item!r}: check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            self.failures.append("; ".join(problems))


# -- cold command-line calls ---------------------------------------------------------

# one call per subcommand, for the interpreter/import/main split
CLI_SPLIT_CALLS = [
    ["classify", "R^3 L R^2"],
    ["factorize", "L^4"],
    ["factorize", "L^4", "--check-obstructions"],
    ["necklace", "stats", "OOOOOSSSSS", "--k", "2", "--w", "2"],
    ["necklace", "enumerate", "--k", "1", "--w", "0"],
    ["mcurve", ".ud.", "--directed"],
]
SPLIT_CODE = (
    "import sys, time\n"
    "t0 = time.time_ns()\n"
    "import modtwist.cli\n"
    "t1 = time.time_ns()\n"
    "rc = modtwist.cli.main(sys.argv[1:])\n"
    "t2 = time.time_ns()\n"
    "sys.stderr.write(f'\\nsplit {t0} {t1} {t2}\\n')\n"
    "sys.exit(rc)\n"
)


def check_cli(argv: list[str], done: subprocess.CompletedProcess) -> list[str]:
    """Exit code 0, one valid JSON document, equal to the in-process answer."""
    from modtwist import cli

    if done.returncode != 0:
        return [f"{argv}: exit code {done.returncode}: {done.stderr.strip()}"]
    try:
        cold = json.loads(done.stdout)
    except ValueError:
        return [f"{argv}: stdout is not JSON: {done.stdout[:200]!r}"]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main(list(argv))
    warm = json.loads(buffer.getvalue())
    if argv[:2] == ["necklace", "enumerate"]:
        # the one field that is not deterministic
        cold.pop("elapsed", None)
        warm.pop("elapsed", None)
    if rc != 0 or cold != warm:
        return [f"{argv}: cold answer {cold} differs from in-process {warm}"]
    return []


def cold_call(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """(wall seconds, result) of one `python -m modtwist.cli` call, spawn to
    exit.  Every call is a fresh interpreter, so a repeated call is as cold
    as the first."""
    start = time.perf_counter()
    done = run_child(["-m", "modtwist.cli", *argv])
    return time.perf_counter() - start, done


def split_calls(failures: list[str]) -> dict[str, float]:
    """Median interpreter start, import and main milliseconds of one cold call."""
    parts: dict[str, list[float]] = {"interpreter_ms": [], "import_ms": [], "main_ms": []}
    for argv in CLI_SPLIT_CALLS:
        spawned = time.time_ns()
        done = run_child(["-c", SPLIT_CODE, *argv])
        problems = check_cli(argv, done)
        failures.extend(problems)
        if problems:
            continue
        t0, t1, t2 = (int(x) for x in done.stderr.split()[-3:])
        parts["interpreter_ms"].append((t0 - spawned) / 1e6)
        parts["import_ms"].append((t1 - t0) / 1e6)
        parts["main_ms"].append((t2 - t1) / 1e6)
    return {f"cli.{k}": statistics.median(v) if v else 0.0 for k, v in parts.items()}


# -- timed and traced runs ------------------------------------------------------------


def repetition(workload, items: list) -> dict:
    """One repetition process: a fork of the harness, which has imported the
    package but never run an op, so every pass starts as cold as a fresh
    interpreter after `import modtwist`, and a second try never times a
    warm cache.  On `pendant_stream`, a cache sees the monodromies repeat
    within the pass, as in the enumeration, but never a repeated word.  The
    child runs the pass and sends its result back through a pipe."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(child_pass(workload, items)).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            ready, _, _ = select.select([pipe], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise RuntimeError(f"repetition process ran over {CHILD_TIMEOUT_S} s")
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"repetition process failed with status {status}")
    return json.loads(data)


def child_pass(workload, items: list) -> dict:
    """The body of one repetition process: the pass, checked op by op."""
    loop = Loop(workload)
    for item in items:
        loop.op(item)
    return {
        "latencies": loop.latencies,
        "failures": loop.failures,
        "peak_rss_mb": own_peak_rss_mb(),
    }


def own_peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM) in MB.

    Not ru_maxrss: on Linux a process keeps its parent's peak RSS as its own
    across fork and exec, so ru_maxrss would read the harness's peak
    whenever that is higher.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # the value is in kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def host_probes() -> list[float]:
    """PROBES_PER_GAP timings of a fixed pure-Python kernel (about 0.2 ms
    each on the reference machine): tuple hashing, dict stores and integer
    arithmetic, the kind of work the package does, without touching it."""
    times = []
    for _ in range(PROBES_PER_GAP):
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        acc = 0
        for i in range(1000):
            table[i, i % 13] = acc
            acc = (acc * 31 + i) % 1000003
        times.append(time.perf_counter() - start)
    return times


def timed_run(workload, seed: int, seconds: float, record: dict) -> tuple[dict, int, list]:
    """The untraced run: the end-to-end metrics on one workload.

    On a shared virtual machine (tuned on a 2-core one) the cores run up to
    2x slower while neighbouring guests are busy.  The speed changes every
    few tens of milliseconds, and how much time is spent slow drifts over
    minutes.  So:

    * Repetition processes run the pass one after another until `seconds`
      have gone and there have been MIN_REPEATS of them; a process that
      would end past `seconds` (at the median pass time) is not started.
      Each is a fork of the harness, which has never run an op (see
      `repetition`).
    * Each cold CLI argument list is called CLI_TRIES times, and setup_s is
      sampled SETUP_SAMPLES times.  Both fall due evenly over the run,
      between the processes.  The cold calls' outputs are checked against
      in-process answers only after the last process, so that no process
      inherits what those answers leave in the package's caches.
    * Every input and every argument list counts at its best time.
    * Even a best time follows the run's share of slow speeds, most of all
      for the cold calls, which get few tries.  So before
      each process, cold call and setup sample the harness times a fixed
      kernel (`host_probes`), and every reported time is scaled by
      NOMINAL_PROBE_S / the upper quartile of the run's probe times: the
      time on a host where that quartile is NOMINAL_PROBE_S.  The record
      keeps the times as measured.
    """
    from bench_workloads import cli_calls

    items = [item for item in workload.inputs(seed) if item not in workload.traced_only]
    calls = cli_calls(workload, seed)
    record["inputs"] = {"count": len(items), "sha256": digest(items), "cli_sha256": digest(calls)}
    cli_order = [i for _ in range(CLI_TRIES) for i in range(len(calls))]
    best = [math.inf] * len(items)
    cli_best = [math.inf] * len(calls)
    cold_outputs: list[tuple[list[str], subprocess.CompletedProcess]] = []
    setup: list[float] = []
    failures: list[str] = []
    pass_seconds: list[float] = []
    peak_rss = 0.0
    probes: list[float] = []
    start = time.perf_counter()
    while True:
        progress = (time.perf_counter() - start) / seconds if seconds else math.inf
        while len(cold_outputs) < len(cli_order) * min(progress, 1):
            i = cli_order[len(cold_outputs)]
            probes += host_probes()
            elapsed, done = cold_call(calls[i])
            cli_best[i] = min(cli_best[i], elapsed)
            cold_outputs.append((calls[i], done))
        while len(setup) < SETUP_SAMPLES * min(progress, 1):
            probes += host_probes()
            setup.append(measure_setup())
        now = time.perf_counter()
        if len(pass_seconds) >= MIN_REPEATS and (
            now + statistics.median(pass_seconds) > start + seconds
        ):
            break
        probes += host_probes()
        out = repetition(workload, items)
        pass_seconds.append(time.perf_counter() - now)
        best = [min(b, elapsed) for b, elapsed in zip(best, out["latencies"])]
        failures += out["failures"]
        peak_rss = max(peak_rss, out["peak_rss_mb"])
    for argv, done in cold_outputs:
        failures.extend(check_cli(argv, done))
    probes.sort()
    probe_s = probes[len(probes) * 3 // 4]
    measured = {
        "ops_per_s": len(items) / sum(best),
        "op_p50_ms": percentile(best, 0.50) * 1e3,
        "op_p99_ms": percentile(best, 0.99) * 1e3,
        "cli_cold_p50_ms": percentile(cli_best, 0.50) * 1e3,
        "cli_cold_p75_ms": percentile(cli_best, 0.75) * 1e3,
        "setup_s": statistics.median(setup),
    }
    # times scale with the probe, rates against it
    scale = NOMINAL_PROBE_S / probe_s
    metrics = {
        name: value / scale if name == "ops_per_s" else value * scale
        for name, value in measured.items()
    }
    metrics["peak_rss_mb"] = peak_rss
    record["host"] = {"probe_ms": probe_s * 1e3, "probes": len(probes), "measured": measured}
    record["samples"] = {
        "timed_inputs": len(items),
        "processes": len(pass_seconds),
        "ops": len(items) * len(pass_seconds),
        "cli_argument_lists": len(calls),
        "cli_calls": len(cli_order),
        "setup_s": len(setup),
    }
    return metrics, len(items) * len(pass_seconds) + len(cli_order), failures


def traced_run(workload, seed: int, record: dict) -> tuple[dict, int, list]:
    """The traced run: per-layer metrics, never mixed with the timed run.

    It traces the timed run's pass, so the counts repeat exactly for one
    seed.  Untraced passes before and after the traced one give the
    overhead.  They take the workload's second and third passes, which on
    the two streams hold inputs the traced pass does not see.
    """
    items = workload.inputs(seed, passes=3)
    n = len(items) // 3
    traced_items, before, after = items[:n], items[n : 2 * n], items[2 * n :]
    record["inputs"] = {"count": len(traced_items), "sha256": digest(traced_items)}
    untraced = Loop(workload)
    for item in before:
        untraced.op(item)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Loop(workload, tracer)
        for item in traced_items:
            traced.op(item)
    finally:
        tracer.uninstall()
    for item in after:
        untraced.op(item)
    untraced_per_op = sum(untraced.latencies) / len(untraced.latencies)
    traced_per_op = sum(traced.latencies) / len(traced.latencies)
    layers = tracer.summary()
    layers["trace.overhead_frac"] = traced_per_op / untraced_per_op - 1
    failures = untraced.failures + traced.failures
    layers.update(split_calls(failures))
    record["samples"] = {
        "traced_ops": len(traced.latencies),
        "untraced_ops": len(untraced.latencies),
        "spans": tracer.span_count(),
        "cli_split_calls": len(CLI_SPLIT_CALLS),
    }
    attempted = len(traced.latencies) + len(untraced.latencies) + len(CLI_SPLIT_CALLS)
    return layers, attempted, failures


def run(workload, seed: int, seconds: float, trace: bool):
    """One benchmark run: (result line, full record)."""
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loadavg_1m_start": os.getloadavg()[0],
        "provenance": provenance(),
    }
    if trace:
        values, attempted, failures = traced_run(workload, seed, record)
        units = per_layer_units()
    else:
        values, attempted, failures = timed_run(workload, seed, seconds, record)
        units = END_TO_END
    record["failed_frac"] = len(failures) / attempted
    record["failures"] = failures[:20]
    return result_line(values, units, attempted, failures), record


def result_line(values: dict, units: dict, attempted: int, failures: list) -> dict:
    """The last stdout line: correct only if no op failed a check or raised."""
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def digest(items) -> str:
    """sha256 of the inputs' text form, to show that two runs saw the same data."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modtwist" / "__init__.py").is_file():
        sys.stderr.write(f"modtwist sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import modtwist

    if Path(modtwist.__file__).resolve().parent != SRC / "modtwist":
        sys.stderr.write(f"imported modtwist from {modtwist.__file__}, not {SRC}\n")
        return 2
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    result, record = run(workload, args.seed, args.seconds, bool(args.trace))

    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    print(f"{args.workload} samples = {json.dumps(record['samples'])}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
