"""lumberkit benchmark: three seeded workloads run through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Workloads (see workloads.py): sweep-sim,
eval-replay, rag-sim. The inputs are generated from --seed and the
simulated endpoint is started before any clock starts. The set-up is run
nine times, each in a fresh interpreter; setup_s is the median of the time
it takes there to import lumberkit and run the set-up steps. The timed phase
is then repeated, each time in a fresh interpreter with a fresh output
directory, a cold record cache and a reset endpoint, until --seconds have
passed; wall_s (the summed time of the lumberkit steps) and peak_rss_mb are
medians over the repeats.

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 one set-up and one timed repeat run traced, with
untraced repeats alongside for trace_overhead_share, and the JSON holds the
per-layer metrics. Lines before it print every metric with its unit and base.
Outputs are checked on every repeat: CLI exit codes, partition and
reconstruction invariants, output digests that must repeat across repeats
and match perfbench/recorded.json for recorded seeds, and endpoint request
and prompt-token counts that must repeat exactly.

--record writes this seed's digests and counts into recorded.json.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import ENDPOINT, WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
RECORDED = HERE / "recorded.json"


class Endpoint:
    """The simulated completion endpoint, as a child process."""

    def __init__(self, seed: int, qa: Path | None):
        command = [sys.executable, str(HERE / "endpoint.py"), "--seed", str(seed)]
        if qa is not None:
            command += ["--qa", str(qa)]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("the simulated endpoint did not start")
        self.port = int(line)
        self.url = f"http://127.0.0.1:{self.port}/v1"

    def _call(self, method: str, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def reset(self) -> None:
        self._call("POST", "/_bench/reset")

    def stats(self) -> dict:
        return self._call("GET", "/_bench/stats")

    def close(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def run_child(workload: Workload, steps: list[dict], url: str | None, trace_out: Path | None):
    """Run steps in a fresh interpreter; returns child.py's result record."""
    for step in steps:
        if "argv" in step:
            step["argv"] = [url if a == ENDPOINT else a for a in step["argv"]]
    plan_path = workload.work / "plan.json"
    result_path = workload.work / "result.json"
    result_path.unlink(missing_ok=True)
    plan = {
        "root": str(ROOT),
        "steps": steps,
        "trace": trace_out is not None,
        "trace_out": str(trace_out) if trace_out else None,
        "result_out": str(result_path),
    }
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
    child = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(plan_path)],
                             env=env, stdout=subprocess.DEVNULL)
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    if not result_path.exists():
        return {"import_s": 0.0, "steps": [{"name": "child", "seconds": 0.0, "exit": 98}],
                "peak_rss_mb": 0.0}
    return json.loads(result_path.read_text(encoding="utf-8"))


class Tally:
    """Attempted and failed operations: CLI commands, checks, endpoint requests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def steps(self, result: dict, expected: int) -> bool:
        ok = len(result["steps"]) == expected
        for step in result["steps"]:
            ok = self.check(step["exit"] == 0, f"{step['name']} exited {step['exit']}") and ok
        if len(result["steps"]) < expected:
            self.check(False, "remaining steps were not run")
        return ok

    def requests(self, stats: dict | None) -> None:
        if stats is not None:
            self.attempted += stats["requests"]
            self.failed += stats["errors"]
            if stats["errors"]:
                self.failures.append(f"{stats['errors']} endpoint request(s) failed")


def step_seconds(steps: list[dict], result: dict) -> float:
    """Seconds of the steps that run lumberkit; the benchmark's own file
    concatenations are left out."""
    return sum(done["seconds"] for step, done in zip(steps, result["steps"])
               if step["kind"] != "concat")


def set_up(workload: Workload, endpoint: Endpoint | None, tally: Tally,
           trace_out: Path | None = None) -> float:
    """One set-up in a fresh interpreter; returns the seconds it took to
    import lumberkit and run the set-up steps."""
    shutil.rmtree(workload.setup_dir, ignore_errors=True)
    workload.setup_dir.mkdir(parents=True)
    steps = workload.setup_steps()
    result = run_child(workload, steps, endpoint.url if endpoint else None, trace_out)
    tally.steps(result, len(steps))
    return result["import_s"] + step_seconds(steps, result)


def timed_repeat(workload: Workload, endpoint: Endpoint | None, tally: Tally,
                 trace_out: Path | None = None):
    """One timed phase in a fresh interpreter; returns (wall_s, result, outcome, stats)."""
    if endpoint is not None:
        endpoint.reset()
    shutil.rmtree(workload.run_dir, ignore_errors=True)
    workload.run_dir.mkdir(parents=True)
    steps = workload.timed_steps()
    result = run_child(workload, steps, endpoint.url if endpoint else None, trace_out)
    stats = endpoint.stats() if endpoint is not None else None
    tally.requests(stats)
    outcome = None
    if tally.steps(result, len(steps)):
        try:
            outcome = workload.outcome(result["steps"], stats)
        except (OSError, ValueError, KeyError) as exc:
            tally.check(False, f"outputs unreadable: {exc}")
    if outcome is not None:
        for what, ok in outcome.checks.items():
            tally.check(ok, what)
    return step_seconds(steps, result), result, outcome, stats


def consistency(workload: Workload, outcomes: list, stats: list, tally: Tally, record: bool) -> dict:
    """Digests and counts must repeat across repeats and match the recorded seed."""
    if not outcomes:
        return {}
    first = outcomes[0]
    summary = {
        "digests": first.digests,
        "quality": first.quality,
    }
    if stats:
        summary["llm_calls"] = stats[0]["requests"]
        summary["prompt_tokens"] = stats[0]["prompt_tokens"]
    for other in outcomes[1:]:
        tally.check(other.digests == first.digests, "output digests repeat across repeats")
        tally.check(other.quality == first.quality, "quality metrics repeat across repeats")
    for other in stats[1:]:
        tally.check(
            (other["requests"], other["prompt_tokens"])
            == (stats[0]["requests"], stats[0]["prompt_tokens"]),
            "llm_calls and prompt tokens repeat across repeats",
        )
    recorded = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}
    entry = recorded.get(workload.name, {}).get(str(workload.seed))
    if record:
        recorded.setdefault(workload.name, {})[str(workload.seed)] = summary
        recorded["machine"] = machine()
        RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    elif entry is not None:
        tally.check(entry == summary, "digests and counts match those recorded for this seed")
    summary["recorded"] = entry is not None or record
    return summary


def machine() -> dict:
    """Informational context for recorded.json; no check reads it."""
    import platform
    from importlib.metadata import version

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def median_metrics(outcomes: list) -> dict[str, tuple[float, str]]:
    names = outcomes[0].metrics if outcomes else {}
    return {
        name: (statistics.median(o.metrics[name][0] for o in outcomes), outcomes[0].metrics[name][1])
        for name in names
    }


class Phase:
    """What the timed repeats of one run produced."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.rss: list[float] = []
        self.outcomes: list = []
        self.stats: list = []
        self.traced_stats: dict | None = None


def timed_phase(workload: Workload, endpoint: Endpoint | None, tally: Tally,
                seconds: float, trace: bool) -> Phase:
    """Repeat the timed steps until seconds have passed; with trace, untraced
    and traced repeats alternate, and only the first traced one is kept."""
    phase = Phase()
    started = time.monotonic()
    while True:
        traced = trace and len(phase.traced_walls) < len(phase.walls)
        trace_out = workload.work / f"trace-{len(phase.traced_walls)}.json" if traced else None
        wall, result, outcome, stats = timed_repeat(workload, endpoint, tally, trace_out)
        if traced:
            if not phase.traced_walls:
                phase.traced_stats = stats
            phase.traced_walls.append(wall)
        else:
            phase.walls.append(wall)
            phase.rss.append(result["peak_rss_mb"])
        if outcome is not None:
            phase.outcomes.append(outcome)
        if stats is not None:
            phase.stats.append(stats)
        if time.monotonic() - started >= seconds and (not trace or phase.traced_walls):
            return phase


def layer_report(workload: Workload, phase: Phase) -> dict:
    records = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in (workload.work / "setup-trace.json", workload.work / "trace-0.json")
        if path.exists()
    ]
    service = phase.traced_stats["service_ms"] if phase.traced_stats else []
    metrics = tracing.layer_metrics(tracing.fold(records), tracing.merge_counts(records), service)
    untraced = statistics.median(phase.walls)
    metrics["trace_overhead_share"] = (
        (statistics.median(phase.traced_walls) - untraced) / untraced, "ratio",
        f"{len(phase.traced_walls)} traced vs {len(phase.walls)} untraced repeats of {untraced:.3f} s",
    )
    return metrics


def end_to_end_report(setups: list[float], phase: Phase, tally: Tally, summary: dict) -> dict:
    def listed(values: list[float]) -> str:
        return " ".join(f"{v:.3f}" for v in values)

    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups: {listed(setups)}"),
        "wall_s": (statistics.median(phase.walls), "s",
                   f"median of {len(phase.walls)} repeats: {listed(phase.walls)}"),
        "peak_rss_mb": (statistics.median(phase.rss), "MB", f"median of {len(phase.rss)} repeats"),
        "failed_share": (tally.failed / max(tally.attempted, 1), "ratio",
                         f"{tally.attempted} operations"),
    }
    for metric, (value, unit) in median_metrics(phase.outcomes).items():
        metrics[metric] = (value, unit, f"median of {len(phase.outcomes)} repeats")
    for metric, value in summary.get("quality", {}).items():
        metrics[metric] = (value, "%", "repeats exactly")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    work = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[name](seed, work)
    tally = Tally()
    endpoint = None
    try:
        workload.generate()
        if workload.uses_endpoint:
            endpoint = Endpoint(workload.seed, workload.endpoint_qa())
        setup_trace = work / "setup-trace.json" if trace else None
        setups = [set_up(workload, endpoint, tally, setup_trace)
                  for _ in range(1 if trace else SETUP_REPEATS)]
        phase = timed_phase(workload, endpoint, tally, seconds, trace)
        summary = consistency(workload, phase.outcomes, phase.stats, tally, record)
        metrics = layer_report(workload, phase) if trace else end_to_end_report(
            setups, phase, tally, summary)
        return {
            "workload": name,
            "seed": seed,
            "repeats": len(phase.walls),
            "setups": len(setups),
            "failures": tally.failures,
            "summary": summary,
            "metrics": metrics,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
        }
    finally:
        if endpoint is not None:
            endpoint.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def print_report(report: dict) -> None:
    summary = report["summary"]
    print(f"== {report['workload']} seed={report['seed']} set-ups={report['setups']} "
          f"timed repeats={report['repeats']} recorded seed={summary.get('recorded', False)}")
    for name, (value, unit, base) in report["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} {base}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def result_line(report: dict, trace: bool) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if trace else "end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": report["metrics"][m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lumberkit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's digests and counts in recorded.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lumberkit" / "cli.py").is_file():
        print(f"error: no lumberkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.record)
        print_report(report)
        results[name] = result_line(report, bool(args.trace))
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
