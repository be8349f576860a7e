import json
import os
import random

import pytest

from docmt import (
    AlignmentScore,
    Document,
    ParallelCorpus,
    ParallelDocument,
    bucket_by_length,
    build_mr_corpus,
    clean_corpus,
    deduplicate,
    filter_by_alignment,
    global_shuffle,
    local_shuffle,
    oversample,
    read_doc_text,
    read_docs,
    read_records,
    write_doc_text,
    write_docs,
    unshuffle,
    write_records,
)
from docmt.corpus import Record, encode_record, read_record_stream, write_jsonl
from docmt.fileio import write_text
from helpers import make_corpus, make_sentence, naive_read_records, random_corpus


def write(path, text):
    path.write_text(text, encoding="utf-8")


class TestDocumentModel:
    def test_rejects_empty_document(self):
        with pytest.raises(ValueError):
            Document("d0", ())

    def test_rejects_blank_sentence(self):
        with pytest.raises(ValueError, match="blank"):
            Document("d0", ("ok", "   "))

    def test_rejects_embedded_newline(self):
        with pytest.raises(ValueError, match="newline"):
            Document("d0", ("a\nb",))

    def test_aligned_requires_equal_counts(self):
        src = Document("d0", ("a", "b"))
        tgt = Document("d0", ("x",))
        with pytest.raises(ValueError, match="aligned"):
            ParallelDocument(src, tgt, aligned=True)

    def test_aligned_flag_derived_from_counts(self):
        src = Document("d0", ("a", "b"))
        assert ParallelDocument(src, Document("d0", ("x", "y"))).aligned
        assert not ParallelDocument(src, Document("d0", ("x",))).aligned

    def test_doc_id_sides_must_agree(self):
        with pytest.raises(ValueError, match="doc_id"):
            ParallelDocument(Document("a", ("s",)), Document("b", ("t",)))

    def test_corpus_rejects_duplicate_ids(self):
        doc = ParallelDocument(Document("d0", ("a",)), Document("d0", ("x",)))
        dup = ParallelDocument(Document("d0", ("b",)), Document("d0", ("y",)))
        with pytest.raises(ValueError, match="duplicate"):
            ParallelCorpus((doc, dup))


class TestDocTextFormat:
    def test_reads_matching_blocks(self, tmp_path):
        write(tmp_path / "src", "a1\na2\na3\n\nb1\nb2\nb3\nb4\nb5\n")
        write(tmp_path / "tgt", "x1\nx2\nx3\n\ny1\ny2\ny3\ny4\ny5\n")
        corpus = read_doc_text(tmp_path / "src", tmp_path / "tgt")
        assert len(corpus) == 2
        assert [doc.n_pairs for doc in corpus] == [3, 5]
        assert all(doc.aligned for doc in corpus)
        assert [doc.doc_id for doc in corpus] == ["000000", "000001"]

    def test_sentence_count_mismatch_names_document(self, tmp_path):
        write(tmp_path / "src", "a\na\na\n\nb\nb\nb\nb\nb\n")
        write(tmp_path / "tgt", "x\nx\nx\n\ny\ny\ny\ny\n")
        with pytest.raises(ValueError, match="document 1"):
            read_doc_text(tmp_path / "src", tmp_path / "tgt")

    def test_document_count_mismatch(self, tmp_path):
        write(tmp_path / "src", "a\n\nb\n")
        write(tmp_path / "tgt", "x\n")
        with pytest.raises(ValueError, match="count mismatch"):
            read_doc_text(tmp_path / "src", tmp_path / "tgt")

    def test_empty_files_give_empty_corpus(self, tmp_path):
        write(tmp_path / "src", "")
        write(tmp_path / "tgt", "")
        corpus = read_doc_text(tmp_path / "src", tmp_path / "tgt")
        assert len(corpus) == 0

    def test_single_sentence_corpus_is_one_line(self, tmp_path):
        doc = ParallelDocument(
            Document("000000", ("hello.",)), Document("000000", ("bonjour.",))
        )
        write_doc_text(ParallelCorpus((doc,)), tmp_path / "src", tmp_path / "tgt")
        assert (tmp_path / "src").read_text(encoding="utf-8") == "hello.\n"

    def test_exactly_one_blank_line_between_blocks(self, tmp_path):
        write_doc_text(make_corpus([2, 2]), tmp_path / "src", tmp_path / "tgt")
        content = (tmp_path / "src").read_text(encoding="utf-8")
        assert "\n\n\n" not in content
        assert content.count("\n\n") == 1
        assert not content.endswith("\n\n")

    def test_round_trip_preserves_corpus_and_order(self, tmp_path):
        rng = random.Random(7)
        for _ in range(25):
            corpus = random_corpus(rng)
            write_doc_text(corpus, tmp_path / "src", tmp_path / "tgt")
            again = read_doc_text(tmp_path / "src", tmp_path / "tgt")
            assert again.documents == corpus.documents

    def test_header_preserves_custom_doc_id(self, tmp_path):
        doc = ParallelDocument(
            Document("news-42", ("hello.",)), Document("news-42", ("bonjour.",))
        )
        write_doc_text(ParallelCorpus((doc,)), tmp_path / "src", tmp_path / "tgt")
        assert (tmp_path / "src").read_text(encoding="utf-8").startswith("# doc_id: news-42\n")
        again = read_doc_text(tmp_path / "src", tmp_path / "tgt")
        assert again[0].doc_id == "news-42"
        assert again.documents == (doc,)

    def test_header_like_first_sentence_is_rejected(self, tmp_path):
        docs = [Document("000000", ("# doc_id: fake", "real text"))]
        with pytest.raises(ValueError, match="header"):
            write_docs(docs, tmp_path / "src")

    def test_only_the_first_line_of_a_block_is_a_header(self, tmp_path):
        docs = [Document("x", ("# doc_id: y", "foo."))]
        write_docs(docs, tmp_path / "s")
        assert (tmp_path / "s").read_text(encoding="utf-8") == "# doc_id: x\n# doc_id: y\nfoo.\n"
        assert read_docs(tmp_path / "s") == docs

    def test_conflicting_headers_rejected(self, tmp_path):
        write(tmp_path / "src", "# doc_id: a\nhello\n")
        write(tmp_path / "tgt", "# doc_id: b\nbonjour\n")
        message = "document 0: source doc_id 'a' conflicts with target doc_id 'b'"
        with pytest.raises(ValueError, match=message):
            read_doc_text(tmp_path / "src", tmp_path / "tgt")

    def test_duplicate_doc_id_names_both_blocks(self, tmp_path):
        write(tmp_path / "s", "# doc_id: a\nx\n\n# doc_id: b\ny\n\n# doc_id: a\nz\n")
        with pytest.raises(ValueError, match=r"/s: duplicate doc_id 'a' in blocks 0 and 2"):
            read_docs(tmp_path / "s")

    def test_header_repeating_an_ordinal_id_is_a_duplicate(self, tmp_path):
        write(tmp_path / "s", "x\n\n# doc_id: 000000\ny\n")
        with pytest.raises(ValueError, match="blocks 0 and 1"):
            read_docs(tmp_path / "s")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_docs(tmp_path / "absent.txt")


class TestRecordsFormat:
    def test_reads_single_record(self, tmp_path):
        write(tmp_path / "r", '{"doc_id":"d0","src":["a"],"tgt":["b"]}\n')
        corpus = read_records(tmp_path / "r")
        assert len(corpus) == 1
        assert corpus[0].doc_id == "d0"
        assert corpus[0].source.sentences == ("a",)
        assert corpus[0].target.sentences == ("b",)
        assert corpus[0].aligned

    def test_duplicate_doc_id_rejected(self, tmp_path):
        write(
            tmp_path / "r",
            '{"doc_id":"d0","src":["a"],"tgt":["b"]}\n'
            '{"doc_id":"d0","src":["c"],"tgt":["d"]}\n',
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_records(tmp_path / "r")

    def test_malformed_record_reports_line_number(self, tmp_path):
        write(tmp_path / "r", '{"doc_id":"d0","src":["a"],"tgt":["b"]}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_records(tmp_path / "r")

    @pytest.mark.parametrize(
        "record",
        [
            '{"doc_id":"d1","src":"hello","tgt":["x"]}',
            '{"doc_id":"d1","src":[5],"tgt":["x"]}',
            '{"doc_id":"d1","src":["a"],"tgt":[["x"]]}',
            '{"doc_id":1,"src":["a"],"tgt":["x"]}',
            '{"doc_id":"d1","src":["a"],"tgt":["x"],"aligned":"yes"}',
        ],
    )
    def test_record_shape_is_checked_with_line_number(self, tmp_path, record):
        write(tmp_path / "r", '{"doc_id":"d0","src":["a"],"tgt":["b"]}\n' + record + "\n")
        with pytest.raises(ValueError, match="malformed record on line 2"):
            read_records(tmp_path / "r")

    def test_round_trip(self, tmp_path):
        rng = random.Random(11)
        for _ in range(25):
            corpus = random_corpus(rng)
            write_records(corpus, tmp_path / "r")
            assert read_records(tmp_path / "r").documents == corpus.documents

    def test_round_trip_keeps_explicit_unaligned_flag(self, tmp_path):
        doc = ParallelDocument(
            Document("d0", ("a", "b")), Document("d0", ("x", "y")), aligned=False
        )
        write_records(ParallelCorpus((doc,)), tmp_path / "r")
        again = read_records(tmp_path / "r")
        assert again[0].aligned is False
        assert again.documents == (doc,)

    def test_unequal_counts_survive_round_trip(self, tmp_path):
        doc = ParallelDocument(Document("d0", ("a", "b", "c")), Document("d0", ("x",)))
        write_records(ParallelCorpus((doc,)), tmp_path / "r")
        again = read_records(tmp_path / "r")
        assert not again[0].aligned
        assert again.documents == (doc,)

    def test_metadata_round_trips_via_header_line(self, tmp_path):
        doc = ParallelDocument(Document("d0", ("a",)), Document("d0", ("x",)))
        corpus = ParallelCorpus((doc,), {"langs": "zh-en", "origin": "news"})
        write_records(corpus, tmp_path / "r")
        first_line = (tmp_path / "r").read_text(encoding="utf-8").splitlines()[0]
        assert first_line.startswith('{"metadata":')
        assert read_records(tmp_path / "r") == corpus

    def test_metadata_free_corpus_writes_no_header(self, tmp_path):
        corpus = make_corpus([1])
        write_records(corpus, tmp_path / "r")
        assert "metadata" not in (tmp_path / "r").read_text(encoding="utf-8")
        assert read_records(tmp_path / "r") == corpus


    def test_repeated_doc_id_is_reported_before_a_later_malformed_line(self, tmp_path):
        write(
            tmp_path / "r",
            '{"doc_id":"d0","src":["a"],"tgt":["b"]}\n'
            '{"doc_id":"d0","src":["c"],"tgt":["d"]}\n'
            "not json\n",
        )
        message = "^.*r: malformed record on line 2: duplicate doc_id 'd0' in corpus$"
        with pytest.raises(ValueError, match=message):
            read_records(tmp_path / "r")
        with pytest.raises(ValueError, match=message):
            list(read_record_stream(tmp_path / "r")[1])

    def test_a_malformed_line_that_repeats_a_doc_id_reports_the_malformation(self, tmp_path):
        write(
            tmp_path / "r",
            '{"doc_id":"d0","src":["a"],"tgt":["b"]}\n'
            '{"doc_id":"d0","src":[" "],"tgt":["d"]}\n',
        )
        message = "^.*r: malformed record on line 2: document 'd0', sentence 0: blank sentence$"
        with pytest.raises(ValueError, match=message):
            read_records(tmp_path / "r")
        with pytest.raises(ValueError, match=message):
            list(read_record_stream(tmp_path / "r")[1])


def sentences_of(rng, row):
    """A side of ``row``, as a list, to put a fault in."""
    side = rng.choice(["src", "tgt"])
    if not isinstance(row[side], list):
        row[side] = [make_sentence(rng) + "."]
    return row[side]


# Faults put into a record by the reader oracle test, by name.
MUTATIONS = {
    "empty doc_id": lambda rng, row: row.update(doc_id=""),
    "doc_id not a string": lambda rng, row: row.update(doc_id=rng.choice([7, None, ["d"]])),
    "empty side": lambda rng, row: row.update({rng.choice(["src", "tgt"]): []}),
    "blank sentence": lambda rng, row: sentences_of(rng, row).insert(
        rng.randint(0, 1), rng.choice(["", " ", "\t", "\u3000"])),
    "embedded newline": lambda rng, row: sentences_of(rng, row).append(
        rng.choice(["a\nb.", "a\rb.", "a.\n", "\r\n"])),
    "aligned with unequal counts": lambda rng, row: (
        row.update(aligned=True), sentences_of(rng, row).append("extra.")),
    "aligned not a bool": lambda rng, row: row.update(aligned=rng.choice(["yes", 1, 0])),
    "side not a list": lambda rng, row: row.update(
        {rng.choice(["src", "tgt"]): rng.choice(["a.", 5, None, {"a": 1}])}),
    "sentence not a string": lambda rng, row: sentences_of(rng, row).append(
        rng.choice([5, None, ["x."], True])),
}


def read_all(read, path):
    """What ``read(path)`` gives: its records, or the message it raises."""
    try:
        return list(read(path))
    except ValueError as exc:
        return str(exc)


class TestReaderOracle:
    """The reader checks each line once, with the checks the document
    constructors run, and reports the first fault they would report."""

    def test_matches_the_constructors_on_mutated_records(self, tmp_path):
        rng = random.Random(14)
        seen = {name: 0 for name in MUTATIONS}
        for case in range(1500):
            rows = []
            for i in range(rng.randint(1, 5)):
                row = {"doc_id": f"d{i}",
                       "src": [make_sentence(rng) + "." for _ in range(rng.randint(1, 3))],
                       "tgt": [make_sentence(rng) + "." for _ in range(rng.randint(1, 3))]}
                if rng.random() < 0.3:
                    row["aligned"] = rng.random() < 0.5
                for name in rng.sample(list(MUTATIONS), rng.choice([0, 0, 1, 1, 2])):
                    MUTATIONS[name](rng, row)
                    seen[name] += 1
                rows.append(row)
            path = tmp_path / f"r{case % 2}.jsonl"
            write_jsonl(path, rows)
            expected = read_all(naive_read_records, path)
            assert read_all(lambda p: read_record_stream(p)[1], path) == expected, rows
        assert min(seen.values()) > 100, seen

    def test_both_sides_are_typed_before_a_sentence_is_checked(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [{"doc_id": "d0", "src": ["a.", " "], "tgt": "b."}])
        message = "malformed record on line 1: 'tgt' must be list, got str"
        assert message in read_all(lambda p: read_record_stream(p)[1], path)
        assert message in read_all(naive_read_records, path)


class TestLineEndings:
    def test_crlf_reads_as_lf(self, tmp_path):
        records = '{"doc_id":"d0","src":["a"],"tgt":["b"]}\n{"doc_id":"d1","src":["c"],"tgt":["d"]}\n'
        write(tmp_path / "lf", records)
        write(tmp_path / "crlf", records.replace("\n", "\r\n"))
        assert read_records(tmp_path / "crlf") == read_records(tmp_path / "lf")
        write(tmp_path / "s", "a.\r\nb.\r\n\r\n# doc_id: x\r\nc.\r\n")
        assert [(d.doc_id, d.sentences) for d in read_docs(tmp_path / "s")] == [
            ("000000", ("a.", "b.")), ("x", ("c.",))
        ]

    @pytest.mark.parametrize("text", ["a.\rb.\n", "a.\r", "a.\r\r\n", "a.\n\rb.\n"])
    def test_any_other_carriage_return_is_malformed(self, tmp_path, text):
        write(tmp_path / "s", text)
        line = text.count("\n", 0, text.index("\r")) + 1
        with pytest.raises(ValueError, match=f"malformed doc-text on line {line}: carriage"):
            read_docs(tmp_path / "s")


class TestTextRule:
    def test_escaped_surrogate_pairs_read_as_one_code_point(self, tmp_path):
        write(tmp_path / "r",
              '{"doc_id":"d0","src":["\\ud83d\\ude00."],"tgt":["\\uD83D\\uDE00."]}\n'
              '{"doc_id":"d1","src":["\\\\ud800."],"tgt":["b."]}\n')
        first, second = read_records(tmp_path / "r")
        assert first.source.sentences == first.target.sentences == ("\U0001f600.",)
        assert second.source.sentences == ("\\ud800.",)  # an escaped backslash, then text

    def test_a_byte_order_mark_past_the_first_line_is_text(self, tmp_path):
        write(tmp_path / "s", "a.\n\ufeffb.\n")
        assert read_docs(tmp_path / "s")[0].sentences == ("a.", "\ufeffb.")


def random_text(rng: random.Random) -> str:
    """A short string mixing the characters JSON escapes or special-cases
    (C0 controls, quote, backslash, DEL, U+2028/U+2029, BOM) with letters
    and code points from the whole range up to U+10FFFF."""
    special = [chr(c) for c in range(0x20)] + ['"', "\\", "\x7f", "\u2028", "\u2029", "\ufeff"]
    plain = ["a", " ", "é", "中", "/", "😀"]
    chars = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.4:
            chars.append(rng.choice(special))
        elif kind < 0.7:
            chars.append(rng.choice(plain))
        else:
            chars.append(chr(rng.randint(0x80, 0x10FFFF)))
    return "".join(chars)


class TestRecordEncoder:
    def test_matches_json_dumps_on_random_records(self):
        rng = random.Random(20241018)
        for _ in range(20_000):
            src = [random_text(rng) for _ in range(rng.randint(0, 3))]
            tgt = [random_text(rng) for _ in range(rng.randint(0, 3))]
            record = Record(random_text(rng), tuple(src), tuple(tgt), rng.random() < 0.5)
            row = {"doc_id": record.doc_id, "src": src, "tgt": tgt}
            if record.aligned != (len(src) == len(tgt)):
                row["aligned"] = record.aligned
            assert encode_record(record) == json.dumps(row, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("aligned", [True, False])
    def test_explicit_aligned_flag_and_empty_sides(self, aligned):
        record = Record("d", (), ("x",), aligned)
        expected = {"doc_id": "d", "src": [], "tgt": ["x"]}
        if aligned:
            expected["aligned"] = True
        assert json.loads(encode_record(record)) == expected


class TestFormatInterop:
    def test_doc_text_to_records_and_back(self, tmp_path):
        corpus = make_corpus([3, 1, 4])
        write_doc_text(corpus, tmp_path / "src", tmp_path / "tgt")
        via_text = read_doc_text(tmp_path / "src", tmp_path / "tgt")
        write_records(via_text, tmp_path / "r")
        assert read_records(tmp_path / "r").documents == corpus.documents


class TestAtomicWrites:
    def test_failed_write_keeps_previous_content(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"n": 1}])

        def rows():
            yield {"n": 2}
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            write_jsonl(path, rows())
        assert path.read_text(encoding="utf-8") == '{"n": 1}\n'
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_failed_replace_names_the_target(self, tmp_path):
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            write_text(path, ["a\n"])
        assert raised.value.filename == str(path)
        assert os.listdir(tmp_path) == ["out"]

    def test_an_error_of_the_chunks_keeps_its_own_name(self, tmp_path):
        def chunks():
            yield "a\n"
            raise FileNotFoundError(2, "No such file or directory", "in.jsonl")

        with pytest.raises(FileNotFoundError) as raised:
            write_text(tmp_path / "out", chunks())
        assert raised.value.filename == "in.jsonl"
        assert os.listdir(tmp_path) == []


METADATA = {"langs": "zh-en", "origin": "news"}
TRANSFORMS = {
    "deduplicate": lambda c: deduplicate(c)[0],
    "filter_by_alignment": lambda c: filter_by_alignment(
        c, [AlignmentScore(d.doc_id, i, 1.0) for d in c for i in range(d.n_pairs)]
    )[0],
    "clean_corpus segment": lambda c: clean_corpus(c, segment=True)[0],
    "clean_corpus fix-punct": lambda c: clean_corpus(c, punct_filler=".")[0],
    "build_mr_corpus": build_mr_corpus,
    "oversample": lambda c: oversample(c, 2),
    "bucket_by_length": lambda c: bucket_by_length(c, [4])[4],
    "local_shuffle": lambda c: local_shuffle(c, 1)[0],
    "global_shuffle": lambda c: global_shuffle(c, 1)[0],
    "unshuffle": lambda c: unshuffle(*local_shuffle(c, 1)),
}


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_transforms_carry_a_copy_of_the_metadata(name):
    corpus = ParallelCorpus(make_corpus([3, 2]).documents, dict(METADATA))
    result = TRANSFORMS[name](corpus)
    expected = dict(METADATA, token_budget="4") if name == "bucket_by_length" else METADATA
    assert result.metadata == expected
    result.metadata["added"] = "x"
    assert corpus.metadata == METADATA
