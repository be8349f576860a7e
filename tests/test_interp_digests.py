"""``interp_digests.py``, the script that CI runs on every supported Python
and whose lists must agree, run once here on this interpreter. Its list is
pinned in ``interp_digests.txt``: every input, output and manifest of the
three chains must stay byte-identical, and a change that means to alter
one writes the file again, in the same change."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("interp_digests.py")
PINNED = SCRIPT.with_suffix(".txt")

# Every input, output and manifest of the three chains, by relative path.
FILES = {
    "build/inputs": ["corpus.jsonl", "expected.json", "scores.jsonl"],
    "build/run": ["clean.jsonl", "clean.jsonl.manifest.json", "mr.jsonl",
                  "mr.jsonl.manifest.json", "os.jsonl", "os.jsonl.manifest.json",
                  "removed.jsonl"],
    "probe/inputs": ["corpus.jsonl", "expected.json", "instances.jsonl", "scores.jsonl"],
    "probe/run": ["accuracy.jsonl", "accuracy.jsonl.manifest.json", "global.jsonl",
                  "global.jsonl.manifest.json", "global.jsonl.perm.jsonl", "local.jsonl",
                  "local.jsonl.manifest.json", "local.jsonl.perm.jsonl"],
    "score/inputs": ["expected.json", "hyp.txt", "labels.jsonl", "ref.txt"],
    "score/run": ["dbleu.jsonl", "dbleu.jsonl.manifest.json", "sbleu.jsonl",
                  "sbleu.jsonl.manifest.json", "table.txt", "table.txt.manifest.json",
                  "tcp.jsonl", "tcp.jsonl.manifest.json"],
}


def test_the_script_lists_every_input_output_and_manifest():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=False
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    paths = [line.split("  ")[1] for line in lines]
    assert paths == [f"{where}/{name}" for where, names in FILES.items() for name in names]
    assert result.stdout == PINNED.read_text(encoding="utf-8")
