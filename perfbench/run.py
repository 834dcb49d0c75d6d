"""mscsim benchmark: one command, four scenario workloads.

    python3 perfbench/run.py                    # every workload, plain and traced
    python3 perfbench/run.py --workload coded-cell --seed 3 --seconds 20 --trace 0

Each measurement runs in child processes (`child.py`) under a wall-clock
cap, so a hang or crash counts as a failed run. With `--trace 0` the
result holds the end-to-end metrics, measured without tracing and scaled
to a reference host speed by a probe run beside the workload (`probe.py`);
with `--trace 1` it holds the per-layer metrics of a traced run. The last
line of standard output is the result as one JSON object. Without
`--workload`, every workload is measured both ways and the results, with
their provenance, are written to `perfbench/out/report.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from probe import (BIG_REFERENCE_S, REFERENCE_S, at_reference, big_kernel,
                   probe, run_at_reference)
from stats import median, percentile
from tracing import GF256_NOTE, LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The whole invocation must end well inside three minutes.
BUDGET_S = 165.0
# Set-up-only interpreters before and again after the measuring one;
# setup_s is the median set-up of all of them.
SETUP_AROUND = 4
SETUP_CAP_S = 20.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "session_ms_p50": "ms",
    "session_ms_p95": "ms",
    "slots_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot measure here at all."""


@dataclass
class Child:
    """Everything one child process printed, with arrival times."""

    events: list = field(default_factory=list)
    ready_s: float = 0.0
    exit_code: int = 0
    timed_out: bool = False

    def of(self, kind: str) -> list:
        return [e for e in self.events if e["event"] == kind]


def run_child(workload: str, seed: int, seconds: float, mode: str,
              timeout: float) -> Child:
    """Start one child, collect its lines until it exits or the cap is
    reached, and always reap it."""
    out = HERE / "out" / f"{workload}-{os.getpid()}.jsonl"
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--mode", mode, "--out", str(out)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    child = Child()
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            pending = b""
            while True:
                remaining = start + timeout - perf_counter()
                if remaining <= 0:
                    child.timed_out = True
                    break
                if not sel.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                arrived = perf_counter()
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    event = json.loads(line)
                    if event["event"] == "ready":
                        child.ready_s = arrived - start
                    child.events.append(event)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        out.unlink(missing_ok=True)
    child.exit_code = proc.returncode
    missing = child.of("hook-missing")
    if missing:
        raise BenchmarkError(f"hook target missing: {missing[0]['message']}")
    return child


@dataclass
class Outcome:
    """Runs of one workload, checked against each other."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # the first finished run; every later one must repeat it exactly
    digest: str = ""
    stats: list = field(default_factory=list)
    numpy: str = ""
    python: str = ""

    def add(self, child: Child) -> None:
        for ready in child.of("ready"):
            self.numpy, self.python = ready["numpy"], ready["python"]
        for run in child.of("run"):
            self.attempted += 1
            if not self.digest:
                self.digest, self.stats = run["digest"], run["stats"]
            problems = list(run["problems"])
            if run["digest"] != self.digest:
                problems.append(f"records sha256 {run['digest']} differs "
                                f"from {self.digest}")
            if run["stats"] != self.stats:
                problems.append(f"statistics {run['stats']} differ from "
                                f"{self.stats}")
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        if child.timed_out or child.exit_code != 0 or not child.of("done"):
            # the run in flight when the child stopped
            self.attempted += 1
            self.failed += 1
            reason = "timed out" if child.timed_out else f"exit {child.exit_code}"
            self.problems.append(f"child process {reason}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _deadline_left(start: float) -> float:
    return start + BUDGET_S - perf_counter()


def session_medians(runs: list) -> list:
    """Each distinct session's median over the runs that hold it.

    Every run of a workload replays the same sessions in the same order, so
    the i-th session of each run is the same simulated work."""
    width = len(runs[0]) if runs else 0
    return [median(column) for column in zip(*(r for r in runs
                                               if len(r) == width))]


def measure_plain(workload: str, seed: int, seconds: float):
    start = perf_counter()
    outcome = Outcome()
    setups, raw_setups = [], []

    def set_up(mode: str, seconds: float, cap: float) -> Child:
        # A set-up is scaled by the probes just before and just after it:
        # the 2048-bit group's primality test by the big-integer probe, the
        # rest by the numpy and dict one.
        before, big_before = probe(5), probe(5, big_kernel)
        child = run_child(workload, seed, seconds, mode, cap)
        ready, after = child.of("ready"), child.of("probe")
        if ready and after:
            big = ready[0]["big_integer_s"]
            raw_setups.append(child.ready_s)
            setups.append(
                at_reference(child.ready_s - big,
                             (before + after[0]["seconds"]) / 2)
                + at_reference(big, (big_before + after[0]["big_seconds"]) / 2,
                               BIG_REFERENCE_S))
        return child

    # Half the set-ups run before the measuring interpreter and half after,
    # so that they sample the host's speed over the whole measurement and
    # not only over its first seconds.
    for _ in range(SETUP_AROUND):
        set_up("setup", 0, min(SETUP_CAP_S, _deadline_left(start)))
    child = set_up("plain", seconds, _deadline_left(start))
    for _ in range(SETUP_AROUND):
        set_up("setup", 0, min(SETUP_CAP_S, _deadline_left(start)))
    outcome.add(child)

    runs = child.of("run")
    scaled = [run_at_reference(run["sessions_s"], run["segments_s"],
                               run["probes_s"]) for run in runs]
    sessions = session_medians([run_sessions for run_sessions, _ in scaled])
    walls = [wall for _, wall in scaled]
    done = child.of("done")
    metrics = {
        "setup_s": median(setups),
        "run_s": median(walls),
        "session_ms_p50": percentile(sessions, 50) * 1e3,
        "session_ms_p95": percentile(sessions, 95) * 1e3,
        "slots_per_s": median([run["steps"] / wall
                               for run, wall in zip(runs, walls)]),
        "peak_rss_mb": done[0]["peak_rss_mb"] if done else 0.0,
        "ok_ratio": 1.0 - outcome.failed / outcome.attempted,
    }
    raw_sessions = session_medians([run["sessions_s"] for run in runs])
    beyond_p95 = sum(1 for t in sessions if t > percentile(sessions, 95))
    probes = [p for run in runs for p in run["probes_s"]]
    notes = {
        "samples": f"{len(setups)} set-ups, {len(runs)} runs, "
                   f"{len(sessions)} distinct sessions, {beyond_p95} "
                   "beyond p95",
        "raw host time": f"setup_s {median(raw_setups):.4g} s, run_s "
                         f"{median([run['wall_s'] for run in runs]):.4g} s, "
                         f"session_ms_p50 "
                         f"{percentile(raw_sessions, 50) * 1e3:.4g} ms",
        "speed probe": f"median {median(probes) * 1e3:.4g} ms per pass over "
                       f"{len(probes)} probes; times above are at "
                       f"{REFERENCE_S * 1e3:g} ms per pass",
    }
    return metrics, END_TO_END, outcome, notes


def measure_traced(workload: str, seed: int, seconds: float):
    start = perf_counter()
    outcome = Outcome()
    child = run_child(workload, seed, seconds, "trace", _deadline_left(start))
    outcome.add(child)
    runs = child.of("run")
    layers = child.of("layers")
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    if layers:
        metrics.update(layers[0]["metrics"])
    plain = [r["wall_s"] for r in runs if not r["traced"]]
    traced = [r["wall_s"] for r in runs if r["traced"]]
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    notes = {"samples": f"{len(plain)} plain runs, {len(traced)} traced runs",
             "note": GF256_NOTE}
    return metrics, LAYER_METRICS, outcome, notes


def report(workload: str, trace: int, metrics: dict, units: dict,
           outcome: Outcome, notes: dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {workload}: {kind}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    if not trace:
        failed_ratio = outcome.failed / outcome.attempted
        print(f"  {'failed_ratio':48s} {failed_ratio:14.6g} ratio")
    for label, text in notes.items():
        print(f"  {label}: {text}")
    print(f"  records sha256 {outcome.digest} (numpy {outcome.numpy}, "
          f"python {outcome.python})")
    for problem in outcome.problems[:10]:
        print(f"  FAILED CHECK: {problem}")


def measure(workload: str, seed: int, seconds: float, trace: int):
    if trace:
        return measure_traced(workload, seed, seconds)
    return measure_plain(workload, seed, seconds)


def result_line(metrics: dict, units: dict, outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(seed: int, seconds: float) -> int:
    results = {}
    versions = {}
    for workload in WORKLOADS:
        entry = results[workload] = {"correct": True}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics, units, outcome, notes = measure(workload, seed, seconds,
                                                      trace)
            report(workload, trace, metrics, units, outcome, notes)
            entry[key] = {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}
            # plain and traced runs must write the same bytes
            digest = entry.setdefault("records_sha256", outcome.digest)
            entry["correct"] &= outcome.correct and digest == outcome.digest
            versions.update(python=outcome.python, numpy=outcome.numpy)
    provenance = json.loads((HERE / "provenance.json").read_text())
    provenance["measured"] = dict(
        versions, nproc=os.cpu_count(), platform=platform.platform(),
        commit=_git_commit(), workload_seed=seed, seconds=seconds)
    out = HERE / "out" / "report.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"provenance": provenance, "workloads": results},
                              indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(entry["correct"] for entry in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind through run_child's cleanup, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mscsim" / "__init__.py").is_file():
        print(f"error: no mscsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    provenance = json.loads((HERE / "provenance.json").read_text())
    seed = args.seed if args.seed is not None else provenance["workload_seed"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.workload is None:
            return run_all(seed, seconds)
        metrics, units, outcome, notes = measure(args.workload, seed, seconds,
                                                  args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report(args.workload, args.trace, metrics, units, outcome, notes)
    print(result_line(metrics, units, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
