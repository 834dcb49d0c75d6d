"""One workload in one fresh interpreter.

Sets up (import, config parsing, first use of the fixtures the workload
needs), prints a `ready` line, then runs the workload in a closed loop
until `--seconds` have passed: one run at a time, each started after the
previous one finished, no threads. Every finished run is printed at once
as one JSON line, so a run that hangs or crashes loses only itself.

Modes: `setup` stops after `ready` and one speed probe (`probe.py`);
`plain` also probes after `ready`, then times each session with one perf_counter pair around the runner's
session entry point, and runs the speed probe before each run and after
each session, outside the session's timing; `trace` alternates plain and
traced runs, so the tracing overhead is measured in the same process, and
prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

from probe import big_kernel, passes_after, probe


def emit(event: str, **payload) -> None:
    sys.stdout.write(json.dumps({"event": event, **payload}) + "\n")
    sys.stdout.flush()


class SessionClock:
    """Times each session and probes the host's speed between sessions.

    Per run it keeps what `probe.run_at_reference` needs: the session
    times, the segments of host time between the end of one probe and the
    end of the next session (and, last, the end of the run), and the
    probes. Probe time is in no segment and no session.
    """

    def __init__(self) -> None:
        self.sessions: list[float] = []
        self.segments: list[float] = []
        self.probes: list[float] = []
        self.mark = 0.0

    def wrap(self, module, names) -> None:
        """Replace each named runner function with a timed one."""
        def timed(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                self.sessions.append(t1 - t0)
                self.segments.append(t1 - self.mark)
                self.probes.append(probe(passes_after(t1 - t0)))
                self.mark = perf_counter()
                return result
            return wrapper

        for name in names:
            setattr(module, name, timed(getattr(module, name)))

    def start_run(self) -> None:
        self.sessions, self.segments = [], []
        self.probes = [probe(3)]
        self.mark = perf_counter()

    def end_run(self) -> dict:
        self.segments.append(perf_counter() - self.mark)
        return {"wall_s": sum(self.segments), "sessions_s": self.sessions,
                "segments_s": self.segments, "probes_s": self.probes}


def _expected(records, scenario, points: int) -> list[str]:
    """What every run of these workloads must show, whatever the seed."""
    problems = []
    summaries = [r for r in records if r["type"] == "run-summary"]
    if len(summaries) != points:
        errors = [r.get("message") for r in records if r["type"] == "error"]
        return [f"{len(summaries)} run summaries for {points} runs: {errors}"]
    for summary in summaries:
        if summary["status"] != "ok":
            problems.append(f"status {summary['status']}")
        if summary["sessions"] and summary["decoding_ratio"] != 1.0:
            problems.append(f"decoding_ratio {summary['decoding_ratio']}")
        if summary["truncated_sessions"]:
            problems.append(f"{summary['truncated_sessions']} truncated")
        if summary["km_certificates_verified"] != scenario.km_requesters:
            problems.append("certificates verified "
                            f"{summary['km_certificates_verified']} of "
                            f"{scenario.km_requesters}")
    for handover in (r for r in records if r["type"] == "handover-summary"):
        if not handover["decisions_match"]:
            problems.append("handover decisions differ")
    return problems


def summarize(result, out_path: Path, scenario, points: int) -> dict:
    """Digest, simulated statistics and checks of one finished run."""
    data = out_path.read_bytes()
    records = result.records
    stats = []
    for r in records:
        if r["type"] == "run-summary":
            stats.append([r["decoding_ratio"], r["mean_cellular_utilization"],
                          r["session_energy"], r["km_certificates_verified"]])
        elif r["type"] == "handover-summary":
            stats.append([r["decisions_match"]])
    slots = sum(r["completion_slots"] for r in records if r["type"] == "session")
    epochs = sum(r["epochs"] for r in records if r["type"] == "handover-summary")
    problems = _expected(records, scenario, points)
    if result.exit_code != 0:
        problems.insert(0, f"exit code {result.exit_code}")
    return {"digest": hashlib.sha256(data).hexdigest(), "stats": stats,
            "steps": slots + epochs, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"),
                        required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import numpy
    import mscsim
    import mscsim.config
    import mscsim.runner as runner
    from workloads import generate

    source = Path(mscsim.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"mscsim imported from {source}, not {root / 'src'}")

    tracer = hooks = None
    if args.mode == "trace":
        from tracing import ROOT, Hooks, HookTargetMissing, Tracer
        tracer = Tracer()
        try:
            hooks = Hooks(tracer)
        except HookTargetMissing as exc:
            emit("hook-missing", message=str(exc))
            return 3
        hooks.install()

    inputs = generate(args.workload, args.seed)
    scenario = mscsim.config.parse_config(inputs.text)
    fixture_s = 0.0
    if scenario.km_group == "2048":
        t0 = perf_counter()
        runner.group_2048()
        fixture_s = perf_counter() - t0
    emit("ready", numpy=numpy.__version__, python=sys.version.split()[0],
         big_integer_s=fixture_s)
    if args.mode != "trace":
        probe(2)  # warm-up passes in the fresh interpreter
        emit("probe", seconds=probe(5), big_seconds=probe(5, big_kernel))
    if args.mode == "setup":
        return 0

    points = math.prod(len(values) for values in inputs.grid.values())
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    def workload_run():
        if inputs.grid:
            return runner.sweep(scenario, inputs.grid, out_path=str(out_path))
        return runner.run(scenario, out_path=str(out_path))

    clock = SessionClock()
    if args.mode == "plain":
        clock.wrap(runner, inputs.workload.session_entry)
    else:
        hooks.remove()

    runs = traced_runs = 0
    deadline = perf_counter() + args.seconds
    while True:
        # trace mode: plain, traced, plain, traced, ...
        traced = args.mode == "trace" and runs % 2 == 1
        if args.mode == "plain":
            clock.start_run()
            result = workload_run()
            timing = clock.end_run()
        else:
            if traced:
                hooks.install()
            t0 = perf_counter()
            result = tracer.span(ROOT, workload_run) if traced else workload_run()
            timing = {"wall_s": perf_counter() - t0}
            if traced:
                hooks.remove()
                traced_runs += 1
        runs += 1
        emit("run", traced=traced, **timing,
             **summarize(result, out_path, scenario, points))
        if perf_counter() >= deadline and (args.mode == "plain" or runs >= 2):
            break

    if tracer is not None:
        from tracing import layer_metrics
        emit("layers", metrics=layer_metrics(tracer, traced_runs))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit("done", peak_rss_mb=peak_kb / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
