"""A seeded mutation suite: every command, given a broken input, exits 1
with one ``error: `` line on stderr, no traceback and no new file.

Each command runs in-process through ``cli.dispatch`` on small valid
inputs, with one input file, or one path, broken in one way at a time:
truncation at a random byte, invalid UTF-8, a byte order mark, a bare
CR, wrong JSON kinds, dropped keys, lone surrogates and JSON nested too
deeply (from each format's table of keys), a repeated id, a header-only
doc-text block, a line that is not a number, an empty file, a directory
or FIFO given as an input, a missing output directory and an output
that names an input. CRLF line endings are benign: the command exits 0.
A truncated or emptied file may still be valid, so either exit is
allowed there, but an exit 1 must still be one clean line.

A fault inside one file's lines is reported by a line that names that
file (``error: <file>: ...``), and any other fault by a line that names
one of the command's inputs: a fault that only the inputs together show
names them all (``error: <file>, <file>: ...``).
"""

import json
import os
import random
import zlib
from typing import Callable, NamedTuple

import pytest

from docmt.cli import dispatch
from docmt.corpus import RECORD_FIELDS
from docmt.harness import CANDIDATE_FIELDS, INSTANCE_FIELDS
from docmt.metrics import LABEL_FIELDS, METRIC_FIELDS
from docmt.pipeline import SCORE_FIELDS


def jsonl(rows):
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


RECORDS = [
    {"doc_id": "d0", "src": ["Ba ko.", "Mi tu."], "tgt": ["The ran.", "Mol ver."]},
    {"doc_id": "d1", "src": ["Ne sa ri."], "tgt": ["Sta kin."]},
    {"doc_id": "d2", "src": ["Lo pe.", "Gu da.", "Zi ba."], "tgt": ["Por.", "Lis.", "Den."]},
]
REF = "he went home and slept.\nthen he ate.\n\n# doc_id: b\nshe said no.\n"
INPUTS = {
    "in.jsonl": jsonl([{"metadata": {"langs": "xx-yy"}}] + RECORDS),
    "s.jsonl": jsonl({"doc_id": r["doc_id"], "pair_index": i, "score": 0.5 + i / 10}
                     for r in RECORDS for i in range(len(r["src"]))),
    "s.txt": "ba ko.\nmi tu.\n\n# doc_id: x\nne sa.\n\nlo pe.\n",
    "t.txt": "the ran.\nmol ver.\n\nsta kin.\n\n# doc_id: 000002\npor lis.\n",
    "hyp.txt": "he went out and slept.\nthen she ate.\n\n# doc_id: b\nshe said yes.\n",
    "ref.txt": REF,
    "labels.jsonl": jsonl([
        {"doc_id": "000000", "word": "went", "position": 1, "category": "TENSE"},
        {"doc_id": "000000", "word": "and", "position": 3, "category": "CONJ"},
        {"doc_id": "000000", "word": "he", "position": 7, "category": "PRON"},
        {"doc_id": "b", "word": "she", "position": 0, "category": "PRON"},
    ]),
    "m.jsonl": jsonl([{"name": "d-BLEU", "value": 20.5}] + [
        {"name": name, "value": 50.0, "numerator": 1, "denominator": 2}
        for name in ("TC", "CP", "PT")]),
    "inst.jsonl": jsonl({"instance_id": f"i{k}", "source": "s", "candidates": ["a", "b", "c"],
                         "positive_index": k % 3, "phenomenon": ["deixis", "ellipsis"][k % 2]}
                        for k in range(3)),
    "sc.jsonl": jsonl({"instance_id": f"i{k}", "candidate_index": c, "score": -c - k / 2}
                      for k in range(3) for c in range(3)),
    "x.txt": "1\n2\n3.5\n",
    "y.txt": "2\n1\n4\n",
}
# The formats of the inputs, by file: a JSON-lines format's table of keys
# and kinds, or "doc-text" or "number".
FORMATS = {
    "in.jsonl": RECORD_FIELDS, "s.jsonl": SCORE_FIELDS, "labels.jsonl": LABEL_FIELDS,
    "m.jsonl": METRIC_FIELDS, "inst.jsonl": INSTANCE_FIELDS, "sc.jsonl": CANDIDATE_FIELDS,
    "s.txt": "doc-text", "t.txt": "doc-text", "hyp.txt": "doc-text", "ref.txt": "doc-text",
    "x.txt": "number", "y.txt": "number",
}
# The JSON-lines files that a repeated row makes faulty, by its repeated
# id, pair or metric name. A label may repeat.
IDS = {"in.jsonl", "s.jsonl", "inst.jsonl", "sc.jsonl", "m.jsonl"}

# command -> (argv, the inputs it reads, the outputs it writes). Every
# command but pearson writes a file, and so a manifest.
COMMANDS = {
    "clean": (["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--dedup",
               "--align-scores", "s.jsonl", "--report", "rep.jsonl"],
              ["in.jsonl", "s.jsonl"], ["out.jsonl", "rep.jsonl"]),
    "mr-split": (["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"],
                 ["in.jsonl"], ["out.jsonl"]),
    "oversample": (["oversample", "--in", "in.jsonl", "--out", "out.jsonl", "--factor", "2"],
                   ["in.jsonl"], ["out.jsonl"]),
    "bucket": (["bucket", "--in", "in.jsonl", "--budgets", "4,64", "--out-prefix", "b"],
               ["in.jsonl"], ["b"]),
    "shuffle local": (["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--mode", "local",
                       "--seed", "3"], ["in.jsonl"], ["out.jsonl"]),
    "shuffle global": (["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--mode",
                        "global", "--seed", "3"], ["in.jsonl"], ["out.jsonl"]),
    "convert --to doc-text": (["convert", "--to", "doc-text", "--in", "in.jsonl",
                               "--src-out", "s2.txt", "--tgt-out", "t2.txt"],
                              ["in.jsonl"], ["s2.txt", "t2.txt"]),
    "convert --to records": (["convert", "--to", "records", "--src", "s.txt", "--tgt",
                              "t.txt", "--out", "out.jsonl"], ["s.txt", "t.txt"],
                             ["out.jsonl"]),
    "bleu sent": (["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--level", "sent",
                   "--out", "out.jsonl"], ["hyp.txt", "ref.txt"], ["out.jsonl"]),
    "bleu doc": (["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--out", "out.jsonl"],
                 ["hyp.txt", "ref.txt"], ["out.jsonl"]),
    "tcp": (["tcp", "--hyp", "hyp.txt", "--ref", "ref.txt", "--labels", "labels.jsonl",
             "--out", "out.jsonl"], ["hyp.txt", "ref.txt", "labels.jsonl"], ["out.jsonl"]),
    "report": (["report", "m.jsonl", "--out", "table.txt"], ["m.jsonl"], ["table.txt"]),
    "contrastive": (["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl",
                     "--out", "out.jsonl"], ["inst.jsonl", "sc.jsonl"], ["out.jsonl"]),
    "pearson": (["pearson", "--x", "x.txt", "--y", "y.txt"], ["x.txt", "y.txt"], []),
}
TARGETS = [(command, name) for command, (_, ins, _) in COMMANDS.items() for name in ins]

# Values of the wrong kind for each kind of key. A number key also
# refuses an integer beyond the float range; a category must be one of
# the three.
WRONG = {
    str: [5, None, ["x"], True, {"k": "x"}],
    int: ["3", 2.5, None, True, [1]],
    float: ["0.5", None, True, [0.5], 10**400],
    tuple: ["x", None, 5, [1], {"k": "x"}],
    object: ["NOUN", 5, None],
}


def every(name):
    return True


def json_rows(name):
    return isinstance(FORMATS[name], tuple)


def truncated(rng, name, data):
    return data[:rng.randrange(len(data))]


def emptied(rng, name, data):
    return b""


def invalid_utf8(rng, name, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + b"\xff" + data[at:]


def byte_order_mark(rng, name, data):
    return b"\xef\xbb\xbf" + data


def bare_cr(rng, name, data):
    """A CR put before a byte that is not a line feed."""
    at = rng.choice([i for i in range(len(data)) if data[i:i + 1] != b"\n"])
    return data[:at] + b"\r" + data[at:]


def crlf(rng, name, data):
    return data.replace(b"\n", b"\r\n")


def with_line(rng, data, change):
    """``data`` with one row's line, not the metadata line, put through
    ``change``, which takes and gives the line's text."""
    lines = data.decode().splitlines(keepends=True)
    index = rng.choice([i for i, line in enumerate(lines)
                        if not line.startswith('{"metadata"')])
    lines[index] = change(lines[index])
    return "".join(lines).encode()


def with_row(rng, name, data, change):
    """``with_line`` on a JSON row: ``change`` takes the format's keys and
    kinds and changes the row in place."""
    def line(text):
        row = json.loads(text)
        change(row, FORMATS[name])
        return json.dumps(row) + "\n"
    return with_line(rng, data, line)


def wrong_kind(rng, name, data):
    def change(row, fields):
        key, kind = rng.choice(fields)
        row[key] = rng.choice(WRONG[kind] if type(kind) is not tuple else [None, "true", 1])
    return with_row(rng, name, data, change)


def dropped_key(rng, name, data):
    def change(row, fields):
        del row[rng.choice([key for key, kind in fields if type(kind) is not tuple])]
    return with_row(rng, name, data, change)


def lone_surrogate(rng, name, data):
    def change(row, fields):
        row[rng.choice([key for key, kind in fields if kind is str])] = "\ud800x"
    return with_row(rng, name, data, change)


def nested_too_deeply(rng, name, data):
    return with_line(rng, data, lambda line: "[" * 100_000 + "\n")


def not_a_number(rng, name, data):
    return with_line(rng, data, lambda line: rng.choice(["x\n", "nan\n", "1 2\n"]))


def repeated_id(rng, name, data):
    """A row repeated later in the file, or a doc-text id given to two blocks."""
    text = data.decode()
    if FORMATS[name] == "doc-text":
        blocks = text.split("\n\n")
        for i in rng.sample(range(len(blocks)), 2):
            sentences = blocks[i].split("\n")[blocks[i].startswith("#"):]
            blocks[i] = "\n".join(["# doc_id: twice", *sentences])
        return "\n\n".join(blocks).encode()
    lines = text.splitlines(keepends=True)
    index = rng.choice([i for i, line in enumerate(lines) if not line.startswith('{"metadata"')])
    lines.insert(rng.randint(index + 1, len(lines)), lines[index])
    return "".join(lines).encode()


def header_only_block(rng, name, data):
    return b"# doc_id: q\n\n" + data


class Mutation(NamedTuple):
    mutate: Callable  # (a seeded rng, the file's name, its bytes) -> the new bytes
    applies: Callable  # a file's name -> whether the mutation applies to it
    fails: bool | None  # whether the command must exit 1; None: 0 or 1
    names_file: bool  # whether a failure names the mutated file, not just an input
    draws: bool  # whether it draws from the rng, and so runs REPEATS times


MUTATIONS = {
    "truncated": Mutation(truncated, every, None, False, True),
    "empty": Mutation(emptied, every, None, False, False),
    "invalid UTF-8": Mutation(invalid_utf8, every, True, True, True),
    "byte order mark": Mutation(byte_order_mark, every, True, True, False),
    "bare CR": Mutation(bare_cr, every, True, True, True),
    "CRLF": Mutation(crlf, every, False, False, False),
    "wrong kind": Mutation(wrong_kind, json_rows, True, True, True),
    "dropped key": Mutation(dropped_key, json_rows, True, True, True),
    "lone surrogate": Mutation(lone_surrogate, json_rows, True, True, True),
    "nested too deeply": Mutation(nested_too_deeply, json_rows, True, True, False),
    "not a number": Mutation(
        not_a_number, lambda name: FORMATS[name] == "number", True, True, True),
    "repeated id": Mutation(
        repeated_id, lambda name: name in IDS or FORMATS[name] == "doc-text", True, True, True),
    "header-only block": Mutation(
        header_only_block, lambda name: FORMATS[name] == "doc-text", True, True, False),
}
REPEATS = 6


def files_of(work):
    return {p.relative_to(work).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(work.rglob("*"))}


def setup(work, command):
    work.mkdir()
    for name in COMMANDS[command][1]:
        (work / name).write_text(INPUTS[name], encoding="utf-8")


def check(work, argv, monkeypatch, capsys, fails, named):
    """Run ``argv`` in ``work``; ``fails`` True, False or None (either).
    A failure is one ``error: `` line that names a file of ``named`` and
    leaves every file as it was."""
    before = files_of(work)
    monkeypatch.chdir(work)
    code = dispatch(argv)  # any exception here is a traceback
    err = capsys.readouterr().err
    case = f"{argv}: {err!r}"
    assert code in ((0, 1) if fails is None else (int(fails),)), case
    if code == 0:
        assert err == "", case
        return
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), case
    assert files_of(work) == before, case
    assert set(named) & set(err[len("error: "):].split(": ")[0].split(", ")), case


@pytest.mark.parametrize("command", list(COMMANDS))
def test_the_valid_inputs_pass(command, tmp_path, monkeypatch, capsys):
    setup(tmp_path / "w", command)
    check(tmp_path / "w", COMMANDS[command][0], monkeypatch, capsys, False, [])


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_a_mutated_input_is_one_clean_line(mutation, tmp_path, monkeypatch, capsys):
    mutate, applies, fails, names_file, draws = MUTATIONS[mutation]
    rng = random.Random(zlib.crc32(mutation.encode()))
    cases = 0
    for command, name in TARGETS:
        if not applies(name):
            continue
        for _ in range(REPEATS if draws else 1):
            cases += 1
            work = tmp_path / str(cases)
            setup(work, command)
            path = work / name
            path.write_bytes(mutate(rng, name, path.read_bytes()))
            argv, ins, _ = COMMANDS[command]
            check(work, argv, monkeypatch, capsys, fails, [name] if names_file else ins)
    assert cases


def with_path(argv, old, new):
    return [new if arg == old else arg for arg in argv]


def directory_input(work, argv, ins, outs, rng):
    name = rng.choice(ins)
    (work / name).unlink()
    (work / name).mkdir()
    return argv, name


def fifo_input(work, argv, ins, outs, rng):
    name = rng.choice(ins)
    (work / name).unlink()
    os.mkfifo(work / name)
    return argv, name


def missing_directory(work, argv, ins, outs, rng):
    out = rng.choice(outs)
    first = "b.b4.jsonl" if out == "b" else out  # bucket's first output, for its prefix
    return with_path(argv, out, f"nowhere/{out}"), f"nowhere/{first}"


def output_is_input(work, argv, ins, outs, rng):
    out, name = rng.choice(outs), rng.choice(ins)
    if out == "b":  # bucket writes b.b4.jsonl and b.b64.jsonl
        (work / name).rename(work / "b.b4.jsonl")
        argv = with_path(argv, name, "b.b4.jsonl")
        return argv, "b.b4.jsonl"
    return with_path(argv, out, name), name


# path fault -> (whether it applies to a command, given its inputs and
# outputs; what to do, given the work directory, the command's argv, its
# inputs and outputs and a seeded rng: returns the argv to run and the
# path the line must name)
PATH_FAULTS = {
    "input is a directory": (lambda ins, outs: True, directory_input),
    # A command without outputs (pearson) would block opening a FIFO.
    "input is a FIFO": (lambda ins, outs: bool(outs), fifo_input),
    "missing output directory": (lambda ins, outs: bool(outs), missing_directory),
    "output names an input": (lambda ins, outs: bool(outs), output_is_input),
}


@pytest.mark.parametrize("fault", list(PATH_FAULTS))
def test_a_path_fault_is_one_clean_line(fault, tmp_path, monkeypatch, capsys):
    applies, make = PATH_FAULTS[fault]
    rng = random.Random(zlib.crc32(fault.encode()))
    for command, (argv, ins, outs) in COMMANDS.items():
        if not applies(ins, outs):
            continue
        work = tmp_path / command.replace(" ", "_")
        setup(work, command)
        argv, named = make(work, argv, ins, outs, rng)
        check(work, argv, monkeypatch, capsys, True, [named])
