"""SHA-256 of every file the three bench workloads' CLI chains make.

Makes the seed-1 inputs of the ``build``, ``score`` and ``probe``
workloads with the generators of ``bench/workloads.py``, runs each
workload's steps through ``python -m docmt`` on this interpreter, in a
temporary directory and from fixed relative paths (a manifest records
its paths as given), and prints one ``<sha256>  <path>`` line per input,
output and manifest, sorted by path. Inputs are listed too, so that a
difference in the generators can be told from one in docmt. Two
interpreters that write the same bytes print the same lines::

    python3.10 tests/interp_digests.py > 3.10.txt
    python3.13 tests/interp_digests.py > 3.13.txt
    diff 3.10.txt 3.13.txt

Exits 1, naming the step, if a step fails. Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/workloads.py, found through the path above)

SEED = 1


def run_chains(work: Path) -> None:
    """Generate each workload's inputs under ``work`` and run its steps there."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for workload in (workloads.Build(), workloads.Score(), workloads.Probe()):
        inputs, run = Path(workload.name, "inputs"), Path(workload.name, "run")
        expected = workload.generate(SEED, work / inputs)
        (work / run).mkdir()
        for argv in workload.steps(inputs, run, expected):
            step = subprocess.run(
                [sys.executable, "-m", "docmt", *argv], cwd=work, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False,
            )
            if step.returncode:
                sys.exit(f"step {' '.join(argv)} exited {step.returncode}: {step.stderr}")


def digests(work: Path) -> list[str]:
    """``<sha256>  <path>`` of each file under ``work``, sorted by path."""
    paths = sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((work / p).read_bytes()).hexdigest()}  {p}" for p in paths]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_chains(work)
        print("\n".join(digests(work)))


if __name__ == "__main__":
    main()
