"""docmt benchmark: one seeded workload through the ``python -m docmt`` CLI.

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

Load shape: one closed-loop client. A pass runs the workload's CLI steps
one after another, each in its own child process, each starting when the
previous one has exited; passes repeat until ``--seconds`` have passed.
Every pass runs in a fresh work directory, is checked against the
generator's ground truth outside the timed window, and is deleted.

``--trace 0`` prints the end-to-end metrics (medians over passes).
``--trace 1`` prints the per-layer metrics: one untimed child-process
pass gives per-step peak RSS and CPU time, then untraced and traced
in-process passes of ``docmt.cli.dispatch`` alternate; the difference of
their wall times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one CLI step or one correctness check; a failing one is counted, never
raised.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "docmt"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = {w.name: w for w in (workloads.Build(), workloads.Score(), workloads.Probe())}
COMMANDS = ("clean", "mr-split", "oversample", "bleu", "tcp", "report", "shuffle",
            "contrastive")
MODULES = ("cli", "corpus", "pipeline", "mrsplit", "metrics", "harness", "__init__")
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
MIN_PASSES = 3
# Start no pass after RUN_BUDGET_S, and kill a child still running at
# HARD_LIMIT_S, so that a run ends inside 180 s.
RUN_BUDGET_S = 120.0
HARD_LIMIT_S = 170.0


class Run:
    """Operation counts and work directory of one benchmark run."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.started = time.monotonic()
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
        self.passes = 0
        # Children get the absolute path of src, whatever their cwd.
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "spawn.py")],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=HARD_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def setup(self) -> tuple[Path, dict, float]:
        """Generate the inputs several times; returns the last set and the
        median generation time."""
        times = []
        for i in range(SETUP_REPEATS):
            inputs = self.work / f"inputs{i}"
            start = time.perf_counter()
            expected = self.workload.generate(self.seed, inputs)
            times.append(time.perf_counter() - start)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(inputs)
        return inputs, expected, statistics.median(times)

    def new_pass_dir(self) -> Path:
        self.passes += 1
        path = self.work / f"pass{self.passes}"
        path.mkdir()
        return path

    def check(self, expected: dict, run_dir: Path) -> None:
        for name, check in self.workload.checks(expected, run_dir, self.seed):
            try:
                check()
            except workloads.CheckFailed as exc:
                self.record(False, f"check {name}: {exc}")
            except Exception:  # a missing or malformed output file
                self.record(False, f"check {name}:\n{traceback.format_exc()}")
            else:
                self.record(True, name)

    def child(self, argv: list[str], cwd: Path, log: str) -> dict:
        """Run ``python argv`` to its exit; returns its exit code, wall
        seconds, peak RSS in MiB and CPU seconds, of that child alone."""
        request = {"argv": [sys.executable, *argv], "cwd": str(cwd),
                   "stdout": str(cwd / f"{log}.out"), "stderr": str(cwd / f"{log}.err"),
                   "timeout": max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def child_pass(self, inputs: Path, expected: dict) -> tuple[float, dict[str, float], float]:
        """One pass of CLI steps as child processes, then its checks.

        Returns the wall time from the first step's start to the last
        step's exit, the peak RSS per command and the total CPU time.
        """
        run_dir = self.new_pass_dir()
        peaks: dict[str, float] = {}
        cpu = 0.0
        start = time.perf_counter()
        for i, argv in enumerate(self.workload.steps(inputs, run_dir, expected)):
            step = self.child(["-m", "docmt", *argv], run_dir, f"step{i}")
            self.record(step["code"] == 0, f"step {' '.join(argv)} exited {step['code']}: "
                        + (run_dir / f"step{i}.err").read_text(errors="replace")[-2000:])
            peaks[argv[0]] = max(peaks.get(argv[0], 0.0), step["peak_rss_mib"])
            cpu += step["cpu_s"]
        wall = time.perf_counter() - start
        self.check(expected, run_dir)
        shutil.rmtree(run_dir)
        return wall, peaks, cpu

    def in_process_pass(self, inputs: Path, expected: dict,
                        tracer: spans.Tracer | None) -> tuple[float, int]:
        """One pass through ``docmt.cli.dispatch`` in this process, then its
        checks. Returns the wall time and the bytes the pass wrote."""
        run_dir = self.new_pass_dir()
        uninstall = None
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            from docmt import cli

            uninstall = spans.install(tracer) if tracer else None
            start = time.perf_counter()
            for argv in self.workload.steps(inputs, run_dir, expected):
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        if tracer:
                            code = tracer.call(f"cli.{argv[0]}", cli.dispatch, argv)
                        else:
                            code = cli.dispatch(argv)
                except Exception:
                    code = traceback.format_exc()
                self.record(code == 0, f"in-process step {' '.join(argv)}: {code}\n"
                            + sink.getvalue()[-2000:])
        except Exception:  # the package does not import
            self.record(False, f"in-process pass:\n{traceback.format_exc()}")
        finally:
            wall = time.perf_counter() - start
            if uninstall:
                uninstall()
        written = sum(p.stat().st_size for p in run_dir.iterdir())
        self.check(expected, run_dir)
        shutil.rmtree(run_dir)
        return wall, written

    def more_passes(self, seconds: float, loop_start: float, done: int) -> bool:
        if time.monotonic() - self.started > RUN_BUDGET_S:
            return False
        return done < MIN_PASSES or time.monotonic() - loop_start < seconds


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    inputs, expected, setup_s = run.setup()
    # Compile the package's bytecode once, as an installed package has it.
    run.child(["-c", "import docmt.cli"], run.work, "warmup")
    walls, peaks = [], []
    loop_start = time.monotonic()
    while run.more_passes(seconds, loop_start, len(walls)):
        wall, step_peaks, _ = run.child_pass(inputs, expected)
        walls.append(wall)
        peaks.append(max(step_peaks.values()))
    print(f"# {len(walls)} passes; wall_s per pass: "
          + ", ".join(f"{w:.3f}" for w in walls))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (statistics.median(peaks), "MiB"),
    }


def per_layer(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    inputs, expected, _ = run.setup()
    loop_start = time.monotonic()
    # The first start compiles the bytecode and is not counted.
    startups = [run.child(["-c", "import docmt.cli"], run.work, "startup")["wall_s"]
                for _ in range(STARTUP_REPEATS + 1)][1:]
    _, peaks, cpu = run.child_pass(inputs, expected)

    sys.path.insert(0, str(SRC))
    traced, untraced, layers = [], [], []
    while run.more_passes(seconds, loop_start, len(traced)):
        # Alternate which of the two passes runs first.
        if len(traced) % 2:
            untraced.append(run.in_process_pass(inputs, expected, None)[0])
        tracer = spans.Tracer(pass_id=run.passes + 1)
        wall, written = run.in_process_pass(inputs, expected, tracer)
        traced.append(wall)
        if len(traced) % 2:
            untraced.append(run.in_process_pass(inputs, expected, None)[0])
        metrics = spans.layer_metrics(tracer, COMMANDS)
        metrics["cli.hash_per_written_byte"] = spans.ratio(metrics["cli.hashed_bytes"], written)
        layers.append(metrics)
    print(f"# {len(traced)} traced passes")

    result = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for cmd in COMMANDS:
        result[f"cli.{cmd}.peak_rss_mib"] = peaks.get(cmd, 0.0)
    result["cli.cpu_s"] = cpu
    result["cli.startup_s"] = statistics.median(startups)
    result["trace.untraced_s"] = statistics.median(untraced)
    result["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        result[f"{module.strip('_')}.loc"] = path.read_text(encoding="utf-8").count("\n")
    result["src.loc"] = sum(p.read_text(encoding="utf-8").count("\n")
                            for p in PACKAGE.glob("*.py"))
    return {name: (value, unit_of(name)) for name, value in result.items()}


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(".loc"):
        return "lines"
    if name.endswith(("ratio", "_per_doc", "_per_written_byte")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no docmt sources under {SRC}", file=sys.stderr)
        return 1

    print(f"# {platform.python_implementation()} {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}, workload {args.workload}, seed {args.seed}")
    run = Run(WORKLOADS[args.workload], args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    finally:
        run.close()
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
