"""The build commands (clean, mr-split, oversample) stream from reader to
writer: they fail cleanly part-way through a file, and their memory does
not grow with the corpus (``clean`` keeps a fixed-size record per
document, one doc id per scored document and a few bytes per scored
pair). ``shuffle`` holds one document at a time, besides a few numbers
per document and, in global mode, the source sentences as UTF-8 bytes
in one buffer, some 80 bytes per short sentence. ``contrastive``
streams its instances: its memory does not grow with the candidate
texts, and its one id table and flat columns take about 100 bytes per
instance. ``bleu``
holds one document pair at a time and ``tcp`` one document besides the
labels; each holds the doc ids read so far."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import docmt
from docmt import corpus, mrsplit, pipeline
from docmt.cli import dispatch
from docmt.corpus import Document, ParallelDocument


def write_corpus(path, n_docs, n_sentences=1, width=0):
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_docs):
            src = [f"source {i} {j} {'w' * width}." for j in range(n_sentences)]
            tgt = [f"target {i} {j} {'v' * width}." for j in range(n_sentences)]
            handle.write(json.dumps({"doc_id": f"d{i}", "src": src, "tgt": tgt}) + "\n")


BUILD_STEPS = {
    "clean": ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--dedup", "--segment",
              "--fix-punct", ".", "--report", "removed.jsonl"],
    "mr-split": ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"],
    "oversample": ["oversample", "--in", "in.jsonl", "--out", "out.jsonl", "--factor", "3"],
}


@pytest.mark.parametrize("command", list(BUILD_STEPS))
def test_malformed_line_after_many_documents_leaves_nothing(
    command, tmp_path, monkeypatch, capsys
):
    # 1,000 documents come first, so output has been flushed to the temp
    # file by the time the reader reaches the bad line.
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "in.jsonl", 1000, n_sentences=3)
    with open(tmp_path / "in.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"doc_id": "bad", "src": "a.", "tgt": ["b."]}\n')
        handle.write('{"doc_id": "after", "src": ["a."], "tgt": ["b."]}\n')
    assert dispatch(BUILD_STEPS[command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: in.jsonl: malformed record on line 1001: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["in.jsonl"]


STREAMED = {
    **BUILD_STEPS,
    "clean scored": ["clean", "--in", "in.jsonl", "--out", "out.jsonl",
                     "--align-scores", "s.jsonl"],
    "shuffle local": ["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--mode", "local",
                      "--seed", "1"],
    "shuffle global": ["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--mode",
                       "global", "--seed", "1"],
}


@pytest.mark.parametrize("command", [*STREAMED, "bucket"])
def test_streamed_commands_build_no_document(command, tmp_path, monkeypatch):
    # Records are checked once, by the reader; a document built on the
    # way would check them again. ``bucket`` builds a corpus, and shows
    # that the counters count.
    monkeypatch.chdir(tmp_path)
    write_scored_corpus(tmp_path, 20, 3, 4)
    built = {"Document": 0, "ParallelDocument": 0, "Segment": 0}

    def counted(name, call):
        def count(*args, **kwargs):
            built[name] += 1
            return call(*args, **kwargs)
        return count

    monkeypatch.setattr(Document, "__post_init__",
                        counted("Document", Document.__post_init__))
    monkeypatch.setattr(ParallelDocument, "__init__",
                        counted("ParallelDocument", ParallelDocument.__init__))
    monkeypatch.setattr(mrsplit, "Segment", counted("Segment", mrsplit.Segment))
    argv = STREAMED.get(command) or ["bucket", "--in", "in.jsonl", "--out-prefix", "b",
                                     "--budgets", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0
    if command == "bucket":
        assert built["Document"] > 0 and built["ParallelDocument"] > 0, built
    else:
        assert built == {"Document": 0, "ParallelDocument": 0, "Segment": 0}


@pytest.mark.parametrize("reader", ["read_records", "read_record_stream"])
def test_each_record_is_checked_once(reader, tmp_path, monkeypatch):
    # read_records builds its documents from the lines; the record
    # stream checks its records itself. Either way each side is checked
    # once and each pair's alignment once.
    write_corpus(tmp_path / "in.jsonl", 5, n_sentences=2)
    calls = {"check_sentences": 0, "aligned_flag": 0}
    for name in calls:
        def count(*args, _name=name, _call=getattr(corpus, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(corpus, name, count)
    result = getattr(corpus, reader)(tmp_path / "in.jsonl")
    assert len(list(result if reader == "read_records" else result[1])) == 5
    assert calls == {"check_sentences": 10, "aligned_flag": 5}


def traced_peak(argv):
    """The most bytes that ``argv``, run in-process, holds at once above
    what it leaves behind: the peak that ``tracemalloc`` traces, less what
    is still traced when the run ends.

    A full collection first empties the interpreter's free lists of small
    objects, so every object the run makes is traced, whatever ran before
    in this process. What the run leaves traced is what it put back in
    those lists, and the caches it filled; both are bounded, but fill up
    over a longer run, so they are not counted. A command that kept
    per-document data after it returned would not be caught here."""
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(argv) == 0
        left, peak = tracemalloc.get_traced_memory()
        return peak - left
    finally:
        tracemalloc.stop()


def traced_peaks(argv, write, sizes):
    """``traced_peak(argv)`` after ``write(size)`` of each of ``sizes``. A
    first run, not measured, takes the last, largest input, so that every
    cache the command fills is full before any measured run."""
    write(sizes[-1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0
    peaks = []
    for size in sizes:
        write(size)
        peaks.append(traced_peak(argv))
    return peaks


def write_wide_corpus(n_docs):
    write_corpus("in.jsonl", n_docs, n_sentences=32, width=40)


@pytest.mark.parametrize("command", ["mr-split", "oversample"])
def test_peak_memory_does_not_grow_with_the_corpus(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    peaks = traced_peaks(BUILD_STEPS[command], write_wide_corpus, (25, 100))
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_clean_peak_memory_does_not_grow_with_the_documents(tmp_path, monkeypatch):
    # Dedup holds a fixed-size digest per document, not its text.
    monkeypatch.chdir(tmp_path)
    peaks = traced_peaks(BUILD_STEPS["clean"], write_wide_corpus, (25, 400))
    assert peaks[1] < 1.5 * peaks[0], peaks


def write_scored_corpus(directory, n_docs, n_pairs, id_width):
    """``n_docs`` documents of ``n_pairs`` sentence pairs, with doc ids of
    ``id_width`` characters, and a score for every pair."""
    ids = [f"{i:0{id_width}d}" for i in range(n_docs)]
    with open(directory / "in.jsonl", "w", encoding="utf-8") as handle:
        for doc_id in ids:
            sentences = [f"s{j}." for j in range(n_pairs)]
            handle.write(json.dumps({"doc_id": doc_id, "src": sentences, "tgt": sentences}) + "\n")
    with open(directory / "s.jsonl", "w", encoding="utf-8") as handle:
        for doc_id in ids:
            for j in range(n_pairs):
                row = {"doc_id": doc_id, "pair_index": j, "score": 0.9}
                handle.write(json.dumps(row) + "\n")


def test_clean_score_table_holds_one_doc_id_per_document(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"]
    peaks = traced_peaks(argv, lambda width: write_scored_corpus(tmp_path, 50, 100, width),
                         (10, 1000))
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("pair_index", [10**12, 2**62])
def test_clean_refuses_a_pair_index_past_what_the_file_can_score(
    pair_index, tmp_path, monkeypatch
):
    # A document's scores are one array indexed by pair_index; no slot
    # is made that a file of this size could not fill.
    monkeypatch.chdir(tmp_path)
    write_scored_corpus(tmp_path, 1, 1, 2)
    with open("s.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"doc_id": "00", "pair_index": pair_index, "score": 0.5}) + "\n")
    argv = ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"]
    gc.collect()
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert dispatch(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.getvalue() == (
        f"error: s.jsonl: malformed score on line 2: pair_index {pair_index} is too large "
        "for the number of scores\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "s.jsonl"]
    assert peak < 1_000_000, peak


def test_score_table_takes_a_few_bytes_per_pair(tmp_path):
    # Eight bytes per score, and a little spare room in each array; a
    # dict entry and a float object per pair took 72.
    sizes = []
    for n_pairs in (10, 100):
        write_scored_corpus(tmp_path, 400, n_pairs, 4)
        gc.collect()
        tracemalloc.start()
        try:
            table = pipeline.read_score_table(tmp_path / "s.jsonl")
            sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert sum(map(len, table.values())) == 400 * n_pairs
        del table
    assert (sizes[1] - sizes[0]) / (400 * 90) < 16, sizes


def write_contrastive(directory, n_instances, width):
    """``n_instances`` instances of three candidates of about ``width``
    characters each, and a score for every candidate."""
    with open(directory / "inst.jsonl", "w", encoding="utf-8") as handle:
        for i in range(n_instances):
            candidates = [f"{j} {'c' * width}" for j in range(3)]
            handle.write(json.dumps({
                "instance_id": f"i{i}", "source": f"source {i}", "candidates": candidates,
                "positive_index": i % 3, "phenomenon": ["deixis", "lex.c"][i % 2],
            }) + "\n")
    with open(directory / "sc.jsonl", "w", encoding="utf-8") as handle:
        for i in range(n_instances):
            for j in range(3):
                row = {"instance_id": f"i{i}", "candidate_index": j, "score": float(j)}
                handle.write(json.dumps(row) + "\n")


def test_contrastive_peak_memory_does_not_grow_with_the_candidates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl",
            "--out", "acc.jsonl"]
    peaks = traced_peaks(argv, lambda width: write_contrastive(tmp_path, 2000, width),
                         (10, 2000))
    assert peaks[1] < 1.5 * peaks[0], peaks


SHUFFLE = ["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--seed", "1", "--mode"]


def write_shuffle_corpus(path, n_docs, src_width, tgt_width):
    """``n_docs`` documents of 8 sentence pairs; each source sentence has
    about ``src_width`` characters and each target one ``tgt_width``."""
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_docs):
            src = [f"source {i} {j} {'w' * src_width}." for j in range(8)]
            tgt = [f"target {i} {j} {'v' * tgt_width}." for j in range(8)]
            handle.write(json.dumps({"doc_id": f"d{i}", "src": src, "tgt": tgt}) + "\n")


def test_local_shuffle_peak_memory_does_not_grow_with_the_documents(tmp_path, monkeypatch):
    # A local shuffle holds one document, and of every other document its
    # id and one number per sentence: some 200 bytes beside the 32 KB of
    # text that each document here has.
    monkeypatch.chdir(tmp_path)
    peaks = traced_peaks(SHUFFLE + ["local"],
                         lambda n_docs: write_shuffle_corpus("in.jsonl", n_docs, 2000, 2000),
                         (25, 400))
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_global_shuffle_peak_memory_does_not_grow_with_the_targets(tmp_path, monkeypatch):
    # A global shuffle holds every source sentence, but reads the targets
    # one document at a time in a second pass.
    monkeypatch.chdir(tmp_path)
    peaks = traced_peaks(SHUFFLE + ["global"],
                         lambda width: write_shuffle_corpus("in.jsonl", 400, 20, width),
                         (200, 2000))
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_global_shuffle_holds_few_bytes_per_pooled_sentence(tmp_path, monkeypatch):
    # The pool keeps each source sentence as its UTF-8 bytes and an 8-byte
    # end, with an 8-byte number for the permutation: about 80 bytes per
    # sentence of some 35 characters, where a list of str took about 128.
    monkeypatch.chdir(tmp_path)
    peaks = traced_peaks(SHUFFLE + ["global"],
                         lambda n_docs: write_shuffle_corpus("in.jsonl", n_docs, 20, 20),
                         (500, 2000))
    per_sentence = (peaks[1] - peaks[0]) / (1500 * 8)
    assert per_sentence < 100, per_sentence


def test_contrastive_holds_few_bytes_per_instance(tmp_path, monkeypatch):
    # The id table keeps each id's UTF-8 bytes, its end, its hash and a
    # slot of an open-addressing array, beside flat columns of numbers:
    # about 96 bytes per 3-candidate instance at 20,000 instances, where
    # a dict of the ids and a second one in the reader took about 180.
    monkeypatch.chdir(tmp_path)
    argv = ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"]
    (peak,) = traced_peaks(argv, lambda n: write_contrastive(tmp_path, n, 10), (20_000,))
    per_instance = peak / 20_000
    assert per_instance < 130, per_instance


SCORE_STEPS = {
    "bleu sent": ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--level", "sent"],
    "bleu doc": ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--level", "doc"],
    "tcp": ["tcp", "--hyp", "hyp.txt", "--ref", "ref.txt", "--labels", "labels.jsonl"],
}


def write_score_inputs(directory, n_docs):
    """``n_docs`` documents of 8 sentences of about 4,000 characters, the
    same as output and as reference, and one label per document."""
    text = "\n\n".join(
        "\n".join(f"text {i} {j} {'w' * 4000}." for j in range(8)) for i in range(n_docs)
    )
    for name in ("hyp.txt", "ref.txt"):
        (directory / name).write_text(text + "\n", encoding="utf-8")
    with open(directory / "labels.jsonl", "w", encoding="utf-8") as handle:
        for i in range(n_docs):
            category = ("TENSE", "CONJ", "PRON")[i % 3]
            row = {"doc_id": f"{i:06d}", "word": "text", "position": 0, "category": category}
            handle.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("command", list(SCORE_STEPS))
def test_score_peak_memory_does_not_grow_with_the_documents(command, tmp_path, monkeypatch):
    # Besides one document (64 KB of text here), bleu holds each side's doc
    # ids and tcp the labels too: some 300 bytes a document.
    monkeypatch.chdir(tmp_path)
    peaks = traced_peaks(SCORE_STEPS[command], lambda n: write_score_inputs(tmp_path, n),
                         (25, 400))
    assert peaks[1] < 1.5 * peaks[0], peaks


DOCS = "".join(f"# doc_id: d{i}\nhe went home and slept.\n\n" for i in range(300))[:-1]
TENSE_LABEL = '{"doc_id": "d0", "word": "goes", "position": 1, "category": "TENSE"}\n'
# case -> (hyp.txt, ref.txt, argv besides the files, the whole of stderr)
LEFT_AT_A_FAULT = {
    "bleu count mismatch": (
        "he went home.\n", DOCS, ["bleu"],
        "error: hyp.txt, ref.txt: document count mismatch: 1 hypothesis vs 300 reference\n",
    ),
    "bleu id conflict": (
        DOCS.replace("d0", "x0", 1), DOCS, ["bleu"],
        "error: hyp.txt, ref.txt: document 0: hypothesis doc_id 'x0' conflicts with "
        "reference doc_id 'd0'\n",
    ),
    "tcp label error": (
        DOCS, DOCS, ["tcp", "--labels", "labels.jsonl"],
        "error: hyp.txt, ref.txt, labels.jsonl: label word 'goes' does not match reference "
        "token 'went' at position 1 of document 'd0'\n",
    ),
}


@pytest.mark.parametrize("case", list(LEFT_AT_A_FAULT))
def test_a_fault_part_way_leaves_no_file_open(case, tmp_path):
    # A document stream left part-way is closed as it is dropped; in
    # development mode, with unclosed files as errors, one left open would
    # print its warning to stderr.
    hyp, ref, argv, err = LEFT_AT_A_FAULT[case]
    (tmp_path / "hyp.txt").write_text(hyp, encoding="utf-8")
    (tmp_path / "ref.txt").write_text(ref, encoding="utf-8")
    (tmp_path / "labels.jsonl").write_text(TENSE_LABEL, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "docmt",
         *argv, "--hyp", "hyp.txt", "--ref", "ref.txt"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(docmt.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", err)
