"""The JSON-lines formats, each read through its table of keys and kinds.

A seeded oracle checks five formats' readers against the line parsers
they replaced (``helpers``); the records reader has its own oracle in
``test_corpus``. Every message must match, at the same line, except
where the readers deliberately differ: a line that is not a JSON object
(whose message came from Python and varied with its version) and a
missing key (which read only ``'score'``) get messages of their own,
which ``naive_parse`` gives the oracle too. The last tests pin those two
messages for all six formats, and the third difference, ``"aligned":
null``.
"""

import json
import random

import pytest

from docmt import Document, read_records
from docmt.harness import read_candidate_scores, read_instance_stream
from docmt.metrics import CATEGORIES, read_labeled_docs, read_reports
from docmt.pipeline import read_alignment_scores, read_score_table
from helpers import (
    VOCAB,
    naive_read_alignment_scores,
    naive_read_candidate_scores,
    naive_read_instances,
    naive_read_labeled_docs,
    naive_read_reports,
    naive_read_score_table,
    score_view,
)

REFERENCES = [Document(f"d{i}", ["a."]) for i in range(4)]


def score_row(rng, i):
    return {"doc_id": f"d{i % 2}", "pair_index": i // 2,
            "score": rng.choice([rng.random(), 0, 1])}


def label_row(rng, i):
    return {"doc_id": f"d{rng.randrange(4)}", "word": rng.choice(["he", "went"]),
            "position": rng.randrange(40), "category": rng.choice(CATEGORIES)}


def instance_row(rng, i):
    candidates = [f"{rng.choice(VOCAB)} {j}" for j in range(rng.randint(2, 4))]
    return {"instance_id": f"i{i}", "source": rng.choice(VOCAB), "candidates": candidates,
            "positive_index": rng.randrange(len(candidates)),
            "phenomenon": rng.choice(["deixis", "ellipsis"])}


def candidate_row(rng, i):
    return {"instance_id": f"i{rng.randrange(3)}", "candidate_index": rng.randrange(3),
            "score": rng.choice([rng.uniform(-20, 0), -3])}


def metric_row(rng, i):
    row = {"name": ["TC", "d-BLEU", "CP", "PT", "s-BLEU"][i], "value": rng.uniform(0, 100)}
    if rng.random() < 0.7:
        row.update(numerator=rng.randrange(9), denominator=rng.randrange(9, 20))
    return row


def read_labels(path):
    return read_labeled_docs(REFERENCES, path)


def naive_read_labels(path):
    return naive_read_labeled_docs(REFERENCES, path)


def read_both_ways(path):
    """Alignment scores as both public readers give them; the table is
    compared through ``score_view``, since its arrays hold NaN for a gap."""
    return list(read_alignment_scores(path)), score_view(read_score_table(path))


def naive_read_both_ways(path):
    return naive_read_alignment_scores(path), score_view(naive_read_score_table(path))


def setting(key, value):
    return lambda rng, rows, row: {**row, key: value}


def with_item(rng, items):
    """``items`` with a value that is not a string put in."""
    items = list(items)
    items.insert(rng.randint(0, len(items)), rng.choice([5, None, ["x"], True]))
    return items


# format -> (a valid row, given a seeded rng and its index, the reader
# under test, its reference, and the format's own mutations: each gives
# the line to put among the rows from the valid row, ``row``, and the
# rows already made)
FORMATS = {
    "alignment scores": (score_row, read_both_ways, naive_read_both_ways, {
        "score above 1": setting("score", 1.5),
        "score below 0": setting("score", -0.5),
        "negative pair_index": setting("pair_index", -1),
        "pair scored twice": lambda rng, rows, row: {
            **row, **{k: rng.choice(rows)[k] for k in ("doc_id", "pair_index")}},
    }),
    "labels": (label_row, read_labels, naive_read_labels, {
        "negative position": setting("position", -1),
        "unknown category": setting("category", "NOUN"),
        "unknown document": setting("doc_id", "zz"),
    }),
    "instances": (instance_row, lambda p: list(read_instance_stream(p)), naive_read_instances, {
        "positive_index past the candidates": lambda rng, rows, row: {
            **row, "positive_index": len(row["candidates"])},
        "negative positive_index": setting("positive_index", -1),
        "one candidate": setting("candidates", ["only"]),
        "duplicate candidates": setting("candidates", ["a", "b", "a"]),
        "non-string candidate": lambda rng, rows, row: {
            **row, "candidates": with_item(rng, row["candidates"])},
        "instance_id given twice": lambda rng, rows, row: {
            **row, "instance_id": rng.choice(rows)["instance_id"]},
    }),
    "candidate scores": (
        candidate_row, lambda p: list(read_candidate_scores(p)), naive_read_candidate_scores,
        {},
    ),
    "metric records": (metric_row, read_reports, naive_read_reports, {
        "name given twice": lambda rng, rows, row: {**row, "name": rng.choice(rows)["name"]},
    }),
}

# Every kind of JSON value, each given to every key in turn, and values
# that a number key refuses.
KINDS = {"str": "x", "int": 3, "float": 2.5, "bool": True, "null": None, "list": ["x"],
         "object": {"k": "x"}}
NUMBERS = {"an integer beyond the float range": 10**400, "NaN": float("nan"),
           "Infinity": float("inf"), "-Infinity": float("-inf")}


def key_mutations(fmt):
    """A mutation of each key of ``fmt``'s rows, by name: dropped, or
    given each kind of JSON value and each value a number key refuses."""
    make = FORMATS[fmt][0]
    keys = list(make(random.Random(0), 0))
    if fmt == "metric records":
        keys += ["numerator", "denominator"]
    found = {}
    for key in keys:
        found[f"drop {key}"] = lambda rng, rows, row, k=key: {
            name: value for name, value in row.items() if name != k}
        for name, value in {**KINDS, **NUMBERS}.items():
            found[f"{key} {name}"] = setting(key, value)
    return found


def mutations(fmt):
    """Every mutation of ``fmt``'s rows, by name."""
    lines = {f"a {name} line": lambda rng, rows, row, v=value: v
             for name, value in [("string", "s"), ("list", ["s"]), ("number", 7),
                                 ("null", None)]}
    return {**lines, **key_mutations(fmt), **FORMATS[fmt][3]}


def check_mutated(fmt, rng, path, *mutate):
    """Put a valid row, changed by each of ``mutate`` in turn, among
    valid rows, and check that both readers read the file alike."""
    make, read, naive_read, _ = FORMATS[fmt]
    rows = [make(rng, i) for i in range(rng.randint(1, 4))]
    line = make(rng, len(rows))
    for change in mutate:
        line = change(rng, rows, line)
    rows.insert(rng.randint(0, len(rows)), line)
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
    )
    assert outcome(read, path) == outcome(naive_read, path), rows


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_the_readers_match_the_parsers_they_replace(fmt, tmp_path):
    rng = random.Random(17)
    for mutate in mutations(fmt).values():
        for _ in range(100):  # every mutation runs 100 times
            check_mutated(fmt, rng, tmp_path / "rows.jsonl", mutate)


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_keys_are_checked_in_the_order_the_parsers_checked_them(fmt, tmp_path):
    # Two faults in one line: the first key checked names its fault. A
    # label line is the exception: all four keys are typed before
    # ``Label`` checks category and position, where the old parser typed
    # doc_id last (test_a_label_is_typed_before_its_category_is_checked).
    rng = random.Random(18)
    found = key_mutations(fmt)
    names = [name for name in found if fmt != "labels" or "category" not in name]
    for _ in range(1000):
        first, second = rng.sample(names, 2)
        check_mutated(fmt, rng, tmp_path / "rows.jsonl", found[first], found[second])


def test_a_label_is_typed_before_its_category_is_checked(tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_text('{"doc_id": 7, "word": "a", "position": 0, "category": "NOUN"}\n')
    assert outcome(read_labels, path) == (
        f"{path}: malformed label on line 1: 'doc_id' must be str, got int"
    )
    assert outcome(naive_read_labels, path) == (
        f"{path}: malformed label on line 1: category must be one of "
        "('TENSE', 'CONJ', 'PRON'), got 'NOUN'"
    )


def outcome(read, path):
    """What ``read(path)`` gives: its rows, or the message it raises."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


# format -> (reader, the name its messages give a line, a valid line, a
# key that line needs). Run on every supported Python: these messages
# once came from Python itself and changed with its version.
READERS = {
    "records": (read_records, "record", '{"doc_id": "d0", "src": ["a."], "tgt": ["b."]}',
                "tgt"),
    "alignment scores": (read_score_table, "score",
                         '{"doc_id": "d0", "pair_index": 0, "score": 0.5}', "score"),
    "labels": (read_labels, "label",
               '{"doc_id": "d0", "word": "a", "position": 0, "category": "PRON"}',
               "category"),
    "instances": (lambda p: list(read_instance_stream(p)), "instance",
                  '{"instance_id": "i0", "source": "s", "candidates": ["a", "b"], '
                  '"positive_index": 0, "phenomenon": "deixis"}', "phenomenon"),
    "candidate scores": (lambda p: list(read_candidate_scores(p)), "score",
                         '{"instance_id": "i0", "candidate_index": 0, "score": 1.0}',
                         "candidate_index"),
    "metric records": (read_reports, "metric record", '{"name": "TC", "value": 1.0}', "value"),
}
NOT_OBJECTS = {'"text"': "str", '["a"]': "list", "3": "int", "2.5": "float",
               "null": "NoneType", "true": "bool"}


def message(read, path, text):
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read(path)
    return str(info.value)


@pytest.mark.parametrize("fmt", list(READERS))
@pytest.mark.parametrize("line", list(NOT_OBJECTS))
def test_a_line_that_is_not_an_object_reads_the_same_everywhere(fmt, line, tmp_path):
    read, what, valid, _ = READERS[fmt]
    path = tmp_path / "rows.jsonl"
    why = f"expected a JSON object, got {NOT_OBJECTS[line]}"
    assert message(read, path, f"{line}\n") == f"{path}: malformed {what} on line 1: {why}"
    assert message(read, path, f"{valid}\n{line}\n") == (
        f"{path}: malformed {what} on line 2: {why}"
    )


@pytest.mark.parametrize("fmt", list(READERS))
def test_a_missing_key_is_named(fmt, tmp_path):
    read, what, valid, key = READERS[fmt]
    path = tmp_path / "rows.jsonl"
    row = json.loads(valid)
    del row[key]
    assert message(read, path, f"{valid}\n{json.dumps(row)}\n") == (
        f"{path}: malformed {what} on line 2: missing key {key!r}"
    )


@pytest.mark.parametrize("fmt", list(READERS))
@pytest.mark.parametrize("nesting", ["[" * 100_000, '{"a": ' * 100_000],
                         ids=["arrays", "objects"])
def test_a_line_nested_too_deeply_is_malformed(fmt, nesting, tmp_path):
    # The decoder gives up with RecursionError, not ValueError.
    read, what, valid, _ = READERS[fmt]
    path = tmp_path / "rows.jsonl"
    assert message(read, path, f"{valid}\n{nesting}\n").startswith(
        f"{path}: malformed {what} on line 2: maximum recursion depth exceeded"
    )


def test_aligned_null_is_not_read_as_absent(tmp_path):
    path = tmp_path / "rows.jsonl"
    text = '{"doc_id": "d0", "src": ["a."], "tgt": ["b."], "aligned": null}\n'
    assert message(read_records, path, text) == (
        f"{path}: malformed record on line 1: 'aligned' must be bool, got NoneType"
    )


@pytest.mark.parametrize("fmt", list(READERS))
def test_a_whitespace_only_line_is_skipped_and_still_counted(fmt, tmp_path):
    read, what, valid, _ = READERS[fmt]
    path = tmp_path / "rows.jsonl"
    alone = tmp_path / "alone.jsonl"
    alone.write_text(f"{valid}\n", encoding="utf-8")
    path.write_text(f" \t\n{valid}\n\n", encoding="utf-8")
    assert outcome(read, path) == outcome(read, alone)
    assert message(read, path, f"{valid}\n \t\n{{not json\n").startswith(
        f"{path}: malformed {what} on line 3: "
    )
