import contextlib
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import docmt
from docmt import read_records, write_records
from docmt.cli import dispatch
from helpers import make_corpus


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_records(make_corpus([8, 3]), path)
    return path


def run(*argv):
    return dispatch([str(a) for a in argv])


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments_is_usage_error(self):
        assert run() == 2

    def test_missing_required_flag_is_usage_error(self, corpus_file, tmp_path):
        assert run("oversample", "--in", corpus_file, "--out", tmp_path / "o") == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_missing_input_file_is_validation_error(self, tmp_path, capsys):
        code = run("mr-split", "--in", tmp_path / "absent.jsonl", "--out", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'absent.jsonl'}: No such file or directory\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_names_the_target(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "m.jsonl"
        assert run("mr-split", "--in", corpus_file, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out}: No such file or directory\n"
        assert ".tmp" not in err

    def test_replace_failure_names_the_target(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        assert run("mr-split", "--in", corpus_file, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "outdir"]
        assert list(out.iterdir()) == []


# mode -> its file options, with inputs in the tmp_path of TestConvert
CONVERT_FILES = {
    "records": ["--src", "s.txt", "--tgt", "t.txt", "--out", "r.jsonl"],
    "doc-text": ["--in", "corpus.jsonl", "--src-out", "s2.txt", "--tgt-out", "t2.txt"],
}


class TestConvert:
    def test_round_trip_through_both_formats(self, tmp_path, corpus_file):
        assert (
            run(
                "convert", "--to", "doc-text", "--in", corpus_file,
                "--src-out", tmp_path / "s.txt", "--tgt-out", tmp_path / "t.txt",
            )
            == 0
        )
        assert (
            run(
                "convert", "--to", "records", "--src", tmp_path / "s.txt",
                "--tgt", tmp_path / "t.txt", "--out", tmp_path / "back.jsonl",
            )
            == 0
        )
        assert read_records(tmp_path / "back.jsonl") == read_records(corpus_file)

    def test_incomplete_flags_are_validation_error(self, tmp_path):
        assert run("convert", "--to", "records", "--out", tmp_path / "x") == 1

    @pytest.mark.parametrize("headed", ["src", "tgt"])
    def test_a_header_pairs_with_the_ordinal_default_on_either_side(self, tmp_path, headed):
        plain, head = "a.\n\nb.\n", "# doc_id: x\nc.\n\nd.\n"
        (tmp_path / "s.txt").write_text(head if headed == "src" else plain, encoding="utf-8")
        (tmp_path / "t.txt").write_text(head if headed == "tgt" else plain, encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert run(
            "convert", "--to", "records", "--src", tmp_path / "s.txt",
            "--tgt", tmp_path / "t.txt", "--out", out,
        ) == 0
        assert [d.doc_id for d in read_records(out)] == ["x", "000001"]

    def test_a_header_like_sentence_round_trips(self, tmp_path):
        records = tmp_path / "r.jsonl"
        records.write_text(
            '{"doc_id": "x", "src": ["# doc_id: y", "foo."], "tgt": ["a.", "b."]}\n',
            encoding="utf-8",
        )
        assert run(
            "convert", "--to", "doc-text", "--in", records,
            "--src-out", tmp_path / "s.txt", "--tgt-out", tmp_path / "t.txt",
        ) == 0
        assert run(
            "convert", "--to", "records", "--src", tmp_path / "s.txt",
            "--tgt", tmp_path / "t.txt", "--out", tmp_path / "back.jsonl",
        ) == 0
        assert read_records(tmp_path / "back.jsonl") == read_records(records)

    @pytest.mark.parametrize("record", [
        '{"doc_id": "x", "src": ["a.", "b."], "tgt": ["c."]}',
        '{"doc_id": "x", "src": ["a."], "tgt": ["c."], "aligned": false}',
    ], ids=["unequal counts", "flagged unaligned"])
    def test_doc_text_rejects_unaligned_documents(self, tmp_path, capsys, record):
        records = tmp_path / "r.jsonl"
        records.write_text(RECORD + record + "\n", encoding="utf-8")
        assert run(
            "convert", "--to", "doc-text", "--in", records,
            "--src-out", tmp_path / "s.txt", "--tgt-out", tmp_path / "t.txt",
        ) == 1
        err = capsys.readouterr().err
        assert err == f"error: {records}: document 'x' is not sentence-aligned\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_doc_text_checks_both_sides_before_writing_either(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        records.write_text(
            '{"doc_id": "000000", "src": ["a."], "tgt": ["# doc_id: z"]}\n',
            encoding="utf-8",
        )
        assert run(
            "convert", "--to", "doc-text", "--in", records,
            "--src-out", tmp_path / "s.txt", "--tgt-out", tmp_path / "t.txt",
        ) == 1
        assert "collides with the doc_id header syntax" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    @pytest.mark.parametrize("mode, stray", [
        pytest.param(mode, CONVERT_FILES[other][i:i + 2], id=f"{mode} {CONVERT_FILES[other][i]}")
        for mode, other in (("records", "doc-text"), ("doc-text", "records"))
        for i in (0, 2, 4)
    ])
    def test_a_file_option_of_the_other_mode_is_rejected(
        self, mode, stray, corpus_file, tmp_path, monkeypatch, capsys
    ):
        # The manifest would record a file the run never reads or writes.
        # Every input exists, so the paths pass and convert's own check runs.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.txt").write_text("a b.\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("x y.\n", encoding="utf-8")
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run("convert", "--to", mode, *CONVERT_FILES[mode], *stray) == 1
        assert capsys.readouterr().err == f"error: convert --to {mode} does not use {stray[0]}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_a_failed_target_file_leaves_no_source_file(
        self, corpus_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run("convert", "--to", "doc-text", "--in", corpus_file,
                   "--src-out", "s.txt", "--tgt-out", "nodir/t.txt") == 1
        assert capsys.readouterr().err == (
            "error: nodir/t.txt: No such file or directory\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


class TestClean:
    def test_flags_and_report(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            '{"doc_id":"d0","src":["hello there"],"tgt":["bonjour"]}\n'
            '{"doc_id":"d1","src":["HELLO  THERE"],"tgt":["salut"]}\n'
            '{"doc_id":"d2","src":["other text"],"tgt":["autre"]}\n',
            encoding="utf-8",
        )
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"doc_id":"d0","pair_index":0,"score":0.9}\n'
            '{"doc_id":"d2","pair_index":0,"score":0.39}\n',
            encoding="utf-8",
        )
        out = tmp_path / "clean.jsonl"
        report = tmp_path / "removed.jsonl"
        code = run(
            "clean", "--in", corpus, "--out", out, "--dedup", "--fix-punct", ".",
            "--align-scores", scores, "--align-threshold", "0.40",
            "--report", report,
        )
        assert code == 0
        cleaned = read_records(out)
        assert [d.doc_id for d in cleaned] == ["d0"]
        assert cleaned[0].source.sentences == ("hello there.",)
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert {row["doc_id"] for row in rows} == {"d1", "d2"}
        assert (tmp_path / "clean.jsonl.manifest.json").exists()

    def test_segment_drops_unaligned_documents_before_mr_split(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            '{"doc_id":"d","src":["A b. C d."],"tgt":["X y Z w."]}\n'
            '{"doc_id":"e","src":["E f. G h."],"tgt":["Y z. W v."]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "clean.jsonl"
        report = tmp_path / "removed.jsonl"
        assert run("clean", "--in", corpus, "--out", out, "--segment", "--report", report) == 0
        assert "kept 1 of 2 documents (0 duplicate, 1 unaligned, 0 misaligned)" in (
            capsys.readouterr().out
        )
        assert json.loads(report.read_text()) == {"stage": "segment", "doc_id": "d"}
        assert run("mr-split", "--in", out, "--out", tmp_path / "mr.jsonl") == 0
        assert len(read_records(tmp_path / "mr.jsonl")) == 3


    def test_a_failed_report_leaves_no_output(self, corpus_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("clean", "--in", corpus_file, "--out", "o.jsonl", "--dedup",
                   "--report", "nodir/r.jsonl") == 1
        assert capsys.readouterr().err == (
            "error: nodir/r.jsonl: No such file or directory\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


class TestMrSplit:
    def test_eight_sentence_fixture_gives_fifteen_pairs(self, tmp_path):
        src = tmp_path / "c.jsonl"
        write_records(make_corpus([8]), src)
        out = tmp_path / "mr.jsonl"
        assert run("mr-split", "--in", src, "--out", out) == 0
        assert len(read_records(out)) == 15
        manifest = json.loads((tmp_path / "mr.jsonl.manifest.json").read_text())
        assert manifest["command"] == "mr-split"
        assert str(src) in manifest["input_digests"]
        assert str(out) in manifest["output_digests"]

    def test_no_singletons_flag(self, tmp_path):
        src = tmp_path / "c.jsonl"
        write_records(make_corpus([6]), src)
        out = tmp_path / "mr.jsonl"
        assert run("mr-split", "--in", src, "--out", out, "--no-singletons") == 0
        assert len(read_records(out)) == 7  # levels 1 + 2 + 4


class TestOversampleAndBucket:
    def test_oversample(self, corpus_file, tmp_path):
        out = tmp_path / "os.jsonl"
        assert run("oversample", "--in", corpus_file, "--out", out, "--factor", "6") == 0
        assert len(read_records(out)) == 12

    def test_bucket_writes_one_file_per_budget(self, corpus_file, tmp_path):
        prefix = tmp_path / "bucket"
        assert run("bucket", "--in", corpus_file, "--out-prefix", prefix, "--budgets", "4,64") == 0
        small = read_records(f"{prefix}.b4.jsonl")
        large = read_records(f"{prefix}.b64.jsonl")
        assert len(small) >= len(large)
        assert (tmp_path / "bucket.b4.jsonl.manifest.json").exists()

    def test_bucket_rejects_a_repeated_budget(self, corpus_file, tmp_path, capsys):
        prefix = tmp_path / "bucket"
        assert run("bucket", "--in", corpus_file, "--out-prefix", prefix, "--budgets", "10,10") == 1
        assert capsys.readouterr().err == "error: token budgets must not repeat: [10, 10]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_bucket_budget_that_is_not_a_number_names_the_flag(
        self, corpus_file, tmp_path, capsys
    ):
        prefix = tmp_path / "bucket"
        assert run("bucket", "--in", corpus_file, "--out-prefix", prefix, "--budgets", "abc") == 1
        assert capsys.readouterr().err == (
            "error: --budgets: invalid literal for int() with base 10: 'abc'\n"
        )


class TestMetricsCommands:
    def test_bleu_identity_prints_100(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("the cat sat.\nthen it left.\n\nanother doc.\n", encoding="utf-8")
        assert run("bleu", "--hyp", hyp, "--ref", hyp, "--level", "doc") == 0
        assert "100.00" in capsys.readouterr().out

    def test_bleu_structure_mismatch_is_validation_error(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a.\nb.\n", encoding="utf-8")
        ref.write_text("a.\n", encoding="utf-8")
        assert run("bleu", "--hyp", hyp, "--ref", ref, "--level", "sent") == 1
        assert "document 0" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["sent", "doc"])
    def test_bleu_rejects_conflicting_doc_ids(self, tmp_path, capsys, level):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("# doc_id: a\nthe cat sat.\n\n# doc_id: b\na dog ran.\n", encoding="utf-8")
        hyp.write_text("# doc_id: b\na dog ran.\n\n# doc_id: a\nthe cat sat.\n", encoding="utf-8")
        assert run("bleu", "--hyp", hyp, "--ref", ref, "--level", level) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "document 0: hypothesis doc_id 'b' conflicts with reference doc_id 'a'" in captured.err

    def test_tcp_command(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("he went home and slept.\n", encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("he went home and slept.\n", encoding="utf-8")
        labels = tmp_path / "labels.jsonl"
        labels.write_text(
            '{"doc_id":"000000","word":"went","position":1,"category":"TENSE"}\n'
            '{"doc_id":"000000","word":"and","position":3,"category":"CONJ"}\n'
            '{"doc_id":"000000","word":"he","position":0,"category":"PRON"}\n',
            encoding="utf-8",
        )
        assert run("tcp", "--hyp", hyp, "--ref", ref, "--labels", labels) == 0
        out = capsys.readouterr().out
        assert "TC = 100.0" in out
        assert "TCP = 100.0" in out

    def test_pearson_command(self, tmp_path, capsys):
        (tmp_path / "x.txt").write_text("1\n2\n3\n", encoding="utf-8")
        (tmp_path / "y.txt").write_text("1\n3\n2\n", encoding="utf-8")
        assert run("pearson", "--x", tmp_path / "x.txt", "--y", tmp_path / "y.txt") == 0
        assert "0.5000" in capsys.readouterr().out

    @pytest.mark.parametrize("x, y, printed", [
        pytest.param("1e308\n1e308\n-1e308\n", "1\n2\n3\n", "-0.8660",
                     id="sums overflow in --x"),
        pytest.param("1\n2\n3\n", "1e154\n3e154\n2e154\n", "0.5000",
                     id="sums overflow in --y"),
        pytest.param("1e200\n-1e200\n0\n", "1\n2\n3\n", "-0.5000",
                     id="squares overflow"),
        pytest.param("1e-320\n2e-320\n3e-320\n", "1\n2\n3\n", "1.0000",
                     id="squares underflow"),
    ])
    def test_pearson_at_the_float_limits(self, x, y, printed, tmp_path, capsys):
        (tmp_path / "x.txt").write_text(x, encoding="utf-8")
        (tmp_path / "y.txt").write_text(y, encoding="utf-8")
        assert run("pearson", "--x", tmp_path / "x.txt", "--y", tmp_path / "y.txt") == 0
        assert capsys.readouterr() == (f"pearson = {printed}\n", "")

    def test_pearson_skips_blank_lines(self, tmp_path, capsys):
        (tmp_path / "x.txt").write_text("1\n\n2\n3\n", encoding="utf-8")
        (tmp_path / "y.txt").write_text("1\n3\n \n2\n\n", encoding="utf-8")
        assert run("pearson", "--x", tmp_path / "x.txt", "--y", tmp_path / "y.txt") == 0
        assert capsys.readouterr() == ("pearson = 0.5000\n", "")


class TestShuffleCommand:
    def test_requires_seed(self, corpus_file, tmp_path):
        assert run("shuffle", "--in", corpus_file, "--out", tmp_path / "s", "--mode", "local") == 2

    def test_reproducible_and_invertible(self, corpus_file, tmp_path):
        out1 = tmp_path / "s1.jsonl"
        out2 = tmp_path / "s2.jsonl"
        for out in (out1, out2):
            assert (
                run("shuffle", "--in", corpus_file, "--out", out, "--mode", "global",
                    "--seed", "42")
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()
        from docmt import PermutationRecord, unshuffle

        with open(tmp_path / "s1.jsonl.perm.jsonl", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        records = [
            PermutationRecord(row["doc_id"], tuple(map(tuple, row["mapping"]))) for row in rows
        ]
        assert unshuffle(read_records(out1), records) == read_records(corpus_file)

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_a_failed_permutation_file_leaves_no_output(
        self, mode, corpus_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run("shuffle", "--in", corpus_file, "--out", "o.jsonl", "--mode", mode,
                   "--seed", "1", "--perm-out", "nodir/p.jsonl") == 1
        assert capsys.readouterr().err == (
            "error: nodir/p.jsonl: No such file or directory\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_global_shuffle_rejects_an_input_that_changes_between_reads(
        self, corpus_file, tmp_path, monkeypatch, capsys
    ):
        # The first read of a global shuffle keeps only the source sentences;
        # the second read, which supplies the targets, must give the same
        # documents.
        from docmt import corpus

        first_read = corpus.read_record_stream
        reads = []

        def read_record_stream(path):
            reads.append(path)
            if len(reads) == 2:
                write_records(make_corpus([8, 2]), path)
            return first_read(path)

        monkeypatch.setattr(corpus, "read_record_stream", read_record_stream)
        monkeypatch.chdir(tmp_path)
        assert run("shuffle", "--in", "corpus.jsonl", "--out", "o.jsonl", "--mode", "global",
                   "--seed", "1") == 1
        assert capsys.readouterr().err == (
            "error: corpus.jsonl: document 1 changed between two reads\n"
        )
        assert len(reads) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


class TestContrastiveCommand:
    def test_accuracy_report(self, tmp_path, capsys):
        (tmp_path / "inst.jsonl").write_text(
            '{"instance_id":"i0","source":"s","candidates":["good","bad"],'
            '"positive_index":0,"phenomenon":"deixis"}\n'
            '{"instance_id":"i1","source":"s","candidates":["good","bad"],'
            '"positive_index":0,"phenomenon":"deixis"}\n',
            encoding="utf-8",
        )
        (tmp_path / "scores.jsonl").write_text(
            '{"instance_id":"i0","candidate_index":0,"score":1.0}\n'
            '{"instance_id":"i0","candidate_index":1,"score":0.0}\n'
            '{"instance_id":"i1","candidate_index":0,"score":0.0}\n'
            '{"instance_id":"i1","candidate_index":1,"score":1.0}\n',
            encoding="utf-8",
        )
        assert (
            run("contrastive", "--instances", tmp_path / "inst.jsonl",
                "--scores", tmp_path / "scores.jsonl")
            == 0
        )
        out = capsys.readouterr().out
        assert "deixis = 50.0 (1/2)" in out
        assert "overall = 50.0 (1/2)" in out


class TestReportCommand:
    def metric_file(self, tmp_path, name, values):
        path = tmp_path / f"{name}.jsonl"
        rows = [
            {"name": metric, "value": value, "numerator": 0, "denominator": 0}
            for metric, value in values.items()
        ]
        path.write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        return path

    def test_tcp_recomputed_from_components(self, tmp_path, capsys):
        path = self.metric_file(
            tmp_path,
            "system-a",
            {"d-BLEU": 27.80, "TC": 56.9, "CP": 25.7, "PT": 63.9, "TCP": 99.9},
        )
        assert run("report", path) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "system-a" in line)
        assert "45.4" in row  # recomputed, the bogus stored 99.9 is ignored
        assert "99.9" not in row

    def test_rows_preserve_input_order(self, tmp_path, capsys):
        a = self.metric_file(tmp_path, "sys-a", {"TC": 50.0, "CP": 50.0, "PT": 50.0})
        b = self.metric_file(tmp_path, "sys-b", {"TC": 60.0, "CP": 60.0, "PT": 60.0})
        assert run("report", b, a) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("sys-b")
        assert lines[2].startswith("sys-a")
        assert "50.0" in lines[2]

    def test_missing_metric_renders_dash(self, tmp_path, capsys):
        path = self.metric_file(tmp_path, "partial", {"TC": 50.0})
        assert run("report", path) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert "-" in row


RECORD = '{"doc_id":"d0","src":["a."],"tgt":["b."]}\n'
INSTANCES = (
    '{"instance_id":"i0","source":"s","candidates":["good","bad"],'
    '"positive_index":0,"phenomenon":"deixis"}\n'
)
SCORE = '{"instance_id":"i0","candidate_index":0,"score":1.0}\n'
ALIGN = '{"doc_id":"d0","pair_index":0,"score":0.9}\n'
TCP_REF = "he went home and slept.\n"
LABEL = '{"doc_id":"000000","word":"he","position":0,"category":"PRON"}\n'
HUGE = "0" * 400  # after a 1: an integer that no float holds


def bad_utf8(lines, lineno):
    """``lines`` encoded as UTF-8, with byte 0xff put at the start of line
    ``lineno``. The callers put that line past the first 8 KiB, where a
    text-mode read decodes in a later block than the first."""
    data = [line.encode("utf-8") for line in lines]
    assert sum(map(len, data[: lineno - 1])) > 8192
    data[lineno - 1] = b"\xff" + data[lineno - 1]
    return b"".join(data)


# case -> (files to create, argv, file the diagnostic names, where in it)
MALFORMED = {
    "record src is a string": (
        {"in.jsonl": RECORD + '{"doc_id":"d1","src":"hello","tgt":["x."]}\n'},
        ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"], "in.jsonl", "line 2",
    ),
    "record sentence is a number": (
        {"in.jsonl": RECORD + '{"doc_id":"d1","src":[5],"tgt":["x."]}\n'},
        ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"], "in.jsonl", "line 2",
    ),
    "score is a string": (
        {"inst.jsonl": INSTANCES,
         "sc.jsonl": SCORE + '{"instance_id":"i0","candidate_index":1,"score":"high"}\n'},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "sc.jsonl", "line 2",
    ),
    "score is a bool": (
        {"inst.jsonl": INSTANCES,
         "sc.jsonl": SCORE + '{"instance_id":"i0","candidate_index":1,"score":true}\n'},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "sc.jsonl", "line 2",
    ),
    "score is NaN": (
        {"inst.jsonl": INSTANCES,
         "sc.jsonl": SCORE + '{"instance_id":"i0","candidate_index":1,"score":NaN}\n'},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "sc.jsonl", "line 2",
    ),
    "contrastive score is an integer beyond the float range": (
        {"inst.jsonl": INSTANCES,
         "sc.jsonl": SCORE + '{"instance_id":"i0","candidate_index":1,"score":1%s}\n' % HUGE},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "sc.jsonl", "malformed score on line 2: 'score' is an integer beyond the float range",
    ),
    "alignment score is an integer beyond the float range": (
        {"in.jsonl": RECORD, "s.jsonl": ALIGN.replace("0.9", "1" + HUGE)},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "s.jsonl", "malformed score on line 1: 'score' is an integer beyond the float range",
    ),
    "metric value is an integer beyond the float range": (
        {"m.jsonl": '{"name":"TC","value":50.0}\n{"name":"CP","value":1%s}\n' % HUGE},
        ["report", "m.jsonl"], "m.jsonl",
        "malformed metric record on line 2: 'value' is an integer beyond the float range",
    ),
    "label position is a float": (
        {"ref.txt": TCP_REF,
         "labels.jsonl": LABEL + LABEL.replace('"position":0', '"position":1.0')},
        ["tcp", "--hyp", "ref.txt", "--ref", "ref.txt", "--labels", "labels.jsonl"],
        "labels.jsonl", "line 2",
    ),
    "pearson nan": (
        {"x.txt": "1\nnan\n3\n", "y.txt": "1\n2\n3\n"},
        ["pearson", "--x", "x.txt", "--y", "y.txt"], "x.txt", "line 2",
    ),
    "pearson inf": (
        {"x.txt": "1\n2\n3\n", "y.txt": "1\n2\ninf\n"},
        ["pearson", "--x", "x.txt", "--y", "y.txt"], "y.txt", "line 3",
    ),
    "record metadata is a list": (
        {"in.jsonl": '{"metadata":[["langs","zh-en"]]}\n' + RECORD},
        ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"],
        "in.jsonl", "malformed record on line 1",
    ),
    "record metadata value is a number": (
        {"in.jsonl": '{"metadata":{"n":1}}\n' + RECORD},
        ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"],
        "in.jsonl", "malformed record on line 1",
    ),
    "metric record name is a number": (
        {"m.jsonl": '{"name":"TC","value":50.0}\n{"name":5,"value":1.0}\n'},
        ["report", "m.jsonl"], "m.jsonl", "malformed metric record on line 2",
    ),
    "metric record numerator is a float": (
        {"m.jsonl": '{"name":"TC","value":50.0,"numerator":1.5,"denominator":3}\n'},
        ["report", "m.jsonl"], "m.jsonl", "malformed metric record on line 1",
    ),
    "doc-text duplicate doc_id": (
        {"hyp.txt": "a.\n\nb.\n", "ref.txt": "# doc_id: x\na.\n\n# doc_id: x\nb.\n"},
        ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"], "ref.txt", "blocks 0 and 1",
    ),
    "doc-text pair names collide": (
        {"s.txt": "a.\n\n# doc_id: x\nb.\n", "t.txt": "# doc_id: x\nc.\n\nd.\n"},
        ["convert", "--to", "records", "--src", "s.txt", "--tgt", "t.txt", "--out", "r.jsonl"],
        "s.txt, t.txt", "duplicate doc_id 'x'",
    ),
    "record line is not UTF-8": (
        {"in.jsonl": bad_utf8([RECORD.replace("d0", f"d{i}") for i in range(400)], 300)},
        ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"], "in.jsonl",
        "malformed record on line 300: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "doc-text line is not UTF-8": (
        {"hyp.txt": bad_utf8(["hello world.\n"] * 1000, 900),
         "ref.txt": "hello world.\n" * 1000},
        ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"], "hyp.txt",
        "malformed doc-text on line 900: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "pearson line is not UTF-8": (
        {"x.txt": bad_utf8([f"{i}\n" for i in range(3000)], 2500), "y.txt": "1\n2\n"},
        ["pearson", "--x", "x.txt", "--y", "y.txt"], "x.txt",
        "malformed number on line 2500: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "doc-text line holds a bare CR": (
        {"s.txt": "a.\r\nx\rb.\n", "t.txt": "c.\nd.\n"},
        ["convert", "--to", "records", "--src", "s.txt", "--tgt", "t.txt", "--out", "r.jsonl"],
        "s.txt", "malformed doc-text on line 2: carriage return",
    ),
    "doc-text block is only a header": (
        {"s.txt": "# doc_id: a\n\nfoo.\n", "t.txt": "bar.\n"},
        ["convert", "--to", "records", "--src", "s.txt", "--tgt", "t.txt", "--out", "r.jsonl"],
        "s.txt", "malformed doc-text on line 1: doc_id 'a' has no sentences",
    ),
    "instance_id repeated before a malformed line": (
        {"inst.jsonl": INSTANCES + INSTANCES + "{not json\n", "sc.jsonl": SCORE},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "inst.jsonl", "malformed instance on line 2: duplicate instance_id 'i0'",
    ),
    "instance file is empty": (
        {"inst.jsonl": "", "sc.jsonl": ""},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "inst.jsonl, sc.jsonl", "no instances",
    ),
    "local shuffle of an empty corpus": (
        {"in.jsonl": ""},
        ["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--mode", "local", "--seed", "1"],
        "in.jsonl", "cannot shuffle an empty corpus",
    ),
    "global shuffle of an empty corpus": (
        {"in.jsonl": '{"metadata": {"k": "v"}}\n'},
        ["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--mode", "global", "--seed", "1"],
        "in.jsonl", "cannot shuffle an empty corpus",
    ),
    "score for an unknown instance": (
        {"inst.jsonl": INSTANCES, "sc.jsonl": SCORE.replace("i0", "zz")},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "inst.jsonl, sc.jsonl", "score for unknown instance 'zz'",
    ),
    "score for an unknown candidate": (
        {"inst.jsonl": INSTANCES,
         "sc.jsonl": SCORE + '{"instance_id":"i0","candidate_index":5,"score":0.0}\n'},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "inst.jsonl, sc.jsonl", "score for unknown candidate 5 of instance 'i0'",
    ),
    "second score for a candidate": (
        {"inst.jsonl": INSTANCES, "sc.jsonl": SCORE + SCORE},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "inst.jsonl, sc.jsonl", "duplicate score for ('i0', 0)",
    ),
    "candidate without a score": (
        {"inst.jsonl": INSTANCES, "sc.jsonl": SCORE},
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"],
        "inst.jsonl, sc.jsonl", "missing score for candidate 1 of instance 'i0'",
    ),
    "number line holds a bare CR": (
        {"x.txt": "0\n1\r2\n", "y.txt": "1\n2\n"},
        ["pearson", "--x", "x.txt", "--y", "y.txt"], "x.txt",
        "malformed number on line 2: carriage return",
    ),
    "doc-text starts with a byte order mark": (
        {"hyp.txt": "\ufeff# doc_id: a\nHello.\n", "ref.txt": "# doc_id: a\nHello.\n"},
        ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--level", "doc"], "hyp.txt",
        "malformed doc-text on line 1: byte order mark (U+FEFF)",
    ),
    "records start with a byte order mark": (
        {"in.jsonl": "\ufeff" + RECORD},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl"], "in.jsonl",
        "malformed record on line 1: byte order mark (U+FEFF)",
    ),
    "alignment scores start with a byte order mark": (
        {"in.jsonl": RECORD, "s.jsonl": "\ufeff" + ALIGN},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "s.jsonl", "malformed score on line 1: byte order mark (U+FEFF)",
    ),
    "number column starts with a byte order mark": (
        {"x.txt": "\ufeff1\n2\n3\n", "y.txt": "1\n2\n3\n"},
        ["pearson", "--x", "x.txt", "--y", "y.txt"], "x.txt",
        "malformed number on line 1: byte order mark (U+FEFF)",
    ),
    "record escapes a lone high surrogate": (
        {"in.jsonl": RECORD + '{"doc_id":"d1","src":["a\\ud800."],"tgt":["b."]}\n'},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--dedup"], "in.jsonl",
        "malformed record on line 2: lone surrogate \\ud800",
    ),
    "record escapes a high surrogate before a high one": (
        {"in.jsonl": '{"doc_id":"d0","src":["\\uD83D\\uD83D."],"tgt":["b."]}\n'},
        ["shuffle", "--in", "in.jsonl", "--out", "out.jsonl", "--mode", "local",
         "--seed", "1"], "in.jsonl", "malformed record on line 1: lone surrogate \\ud83d",
    ),
    "alignment score escapes a lone low surrogate": (
        {"in.jsonl": RECORD,
         "s.jsonl": ALIGN + '{"doc_id":"\\uDC00","pair_index":0,"score":0.9}\n'},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "s.jsonl", "malformed score on line 2: lone surrogate \\udc00",
    ),
    "clean score for an unknown document": (
        {"in.jsonl": RECORD, "s.jsonl": ALIGN + ALIGN.replace("d0", "dX")},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "in.jsonl, s.jsonl", "score for unknown document 'dX'",
    ),
    "clean score for an unknown pair": (
        {"in.jsonl": RECORD, "s.jsonl": ALIGN + ALIGN.replace('"pair_index":0', '"pair_index":1')},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "in.jsonl, s.jsonl", "score for unknown pair 1 of document 'd0' (1 pairs)",
    ),
    "clean pair without a score": (
        {"in.jsonl": RECORD, "s.jsonl": ""},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "in.jsonl, s.jsonl", "missing score for document 'd0', pair 0",
    ),
    "record line nests too deeply": (
        {"in.jsonl": RECORD + "[" * 100_000 + "\n"},
        ["oversample", "--in", "in.jsonl", "--out", "out.jsonl", "--factor", "4"],
        "in.jsonl", "malformed record on line 2: maximum recursion depth exceeded",
    ),
    "metric record nests too deeply": (
        {"m.jsonl": "[" * 100_000 + "\n"}, ["report", "m.jsonl"],
        "m.jsonl", "malformed metric record on line 1: maximum recursion depth exceeded",
    ),
    "clean pair scored twice": (
        {"in.jsonl": RECORD, "s.jsonl": ALIGN + ALIGN},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "s.jsonl", "malformed score on line 2: duplicate score for ('d0', 0)",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_is_one_line_diagnostic(case, tmp_path, monkeypatch, capsys):
    files, argv, named, where = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content, encoding="utf-8")
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ")
    assert where in err
    assert err.count("\n") == 1


TCP_LABELS = (
    '{"doc_id":"000000","word":"went","position":1,"category":"TENSE"}\n'
    '{"doc_id":"000000","word":"and","position":3,"category":"CONJ"}\n' + LABEL
)
TCP_ARGV = ["tcp", "--hyp", "hyp.txt", "--ref", "ref.txt", "--labels", "labels.jsonl"]
BLEU_ARGV = ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"]
# A fault that only the inputs together show names every input of the run.
TCP_ERROR = "error: hyp.txt, ref.txt, labels.jsonl: "
BLEU_ERROR = "error: hyp.txt, ref.txt: "

# The faults of bleu and tcp: case -> (files besides the default ref.txt
# and hyp.txt, argv, the whole of stderr). Each command reads its documents
# one at a time, so the last cases, of two faults, report the one met first
# (README, the multi-fault orders of the streamed commands); reading the
# inputs whole reported the other one.
SCORE_FAULTS = {
    "label word is not the reference token": (
        {"labels.jsonl": TCP_LABELS.replace('"went"', '"goes"')}, TCP_ARGV,
        TCP_ERROR + "label word 'goes' does not match reference token 'went' at position 1 "
        "of document '000000'\n",
    ),
    "label position past the reference": (
        {"labels.jsonl": TCP_LABELS.replace('"position":1', '"position":9')}, TCP_ARGV,
        TCP_ERROR + "label position 9 out of range for document '000000' (6 tokens)\n",
    ),
    "labeled document without an output": (
        {"labels.jsonl": TCP_LABELS, "hyp.txt": "# doc_id: other\n" + TCP_REF}, TCP_ARGV,
        TCP_ERROR + "missing output for labeled document '000000'\n",
    ),
    "labels for an unknown document": (
        {"labels.jsonl": TCP_LABELS + LABEL.replace("000000", "ghost")}, TCP_ARGV,
        TCP_ERROR + "labels for unknown documents ['ghost']\n",
    ),
    "a category without labels": (
        {"labels.jsonl": LABEL}, TCP_ARGV,
        TCP_ERROR + "no labels of category 'TENSE' in the test set\n",
    ),
    "more hypothesis documents, sentence level": (
        {"hyp.txt": TCP_REF + "\n" + TCP_REF}, BLEU_ARGV + ["--level", "sent"],
        BLEU_ERROR + "document count mismatch: 2 hypothesis vs 1 reference\n",
    ),
    "more reference documents, document level": (
        {"ref.txt": TCP_REF + "\nb.\n\nc.\n"}, BLEU_ARGV + ["--level", "doc"],
        BLEU_ERROR + "document count mismatch: 1 hypothesis vs 3 reference\n",
    ),
    "bleu id conflict before a later malformed line": (
        {"ref.txt": "# doc_id: a\na.\n\nb.\n", "hyp.txt": "# doc_id: b\na.\n\nx\ry.\n"},
        BLEU_ARGV, BLEU_ERROR + "document 0: hypothesis doc_id 'b' conflicts with reference "
        "doc_id 'a'\n",
    ),
    "bleu sentence count mismatch before a later malformed line": (
        {"ref.txt": "a.\nb.\n\nc.\n", "hyp.txt": "a.\n\nx\ry.\n"},
        BLEU_ARGV + ["--level", "sent"],
        BLEU_ERROR + "sentence count mismatch in document 0 (id '000000'): 1 hypothesis vs "
        "2 reference\n",
    ),
    "bleu id conflict before a count mismatch": (
        {"ref.txt": "# doc_id: a\na.\n\nb.\n", "hyp.txt": "# doc_id: b\na.\n"},
        BLEU_ARGV, BLEU_ERROR + "document 0: hypothesis doc_id 'b' conflicts with reference "
        "doc_id 'a'\n",
    ),
    "bleu max-n below 1 before a malformed line": (
        {"hyp.txt": "\ufeff" + TCP_REF}, BLEU_ARGV + ["--max-n", "0"],
        "error: max_n must be >= 1, got 0\n",
    ),
    "tcp with a negative radius": (
        {"labels.jsonl": TCP_LABELS}, TCP_ARGV + ["--radius", "-1"],
        "error: radius_d must be >= 0, got -1\n",
    ),
    "tcp label file before the outputs": (
        {"labels.jsonl": LABEL.replace('"position":0', '"position":"0"'),
         "hyp.txt": "\ufeff" + TCP_REF}, TCP_ARGV,
        "error: labels.jsonl: malformed label on line 1: 'position' must be int, got str\n",
    ),
    "tcp TENSE label error before a later malformed reference line": (
        {"labels.jsonl": TCP_LABELS.replace('"went"', '"goes"'),
         "ref.txt": TCP_REF + "\nx\ry.\n"}, TCP_ARGV,
        TCP_ERROR + "label word 'goes' does not match reference token 'went' at position 1 "
        "of document '000000'\n",
    ),
    "tcp TENSE label error before labels for unknown documents": (
        {"labels.jsonl": TCP_LABELS.replace('"went"', '"goes"')
         + LABEL.replace("000000", "ghost")}, TCP_ARGV,
        TCP_ERROR + "label word 'goes' does not match reference token 'went' at position 1 "
        "of document '000000'\n",
    ),
    "tcp label error before an earlier missing output": (
        {"ref.txt": TCP_REF + "\n" + TCP_REF, "hyp.txt": "# doc_id: 000001\n" + TCP_REF,
         "labels.jsonl": TCP_LABELS + TCP_LABELS.replace("000000", "000001").replace(
             '"went"', '"goes"')}, TCP_ARGV,
        TCP_ERROR + "label word 'goes' does not match reference token 'went' at position 1 "
        "of document '000001'\n",
    ),
    "tcp CONJ label error before a later malformed reference line": (
        {"labels.jsonl": TCP_LABELS.replace('"and"', '"but"'),
         "ref.txt": TCP_REF + "\nx\ry.\n"}, TCP_ARGV,
        TCP_ERROR + "label word 'but' does not match reference token 'and' at position 3 "
        "of document '000000'\n",
    ),
    "tcp category without labels before a missing output": (
        {"labels.jsonl": TCP_LABELS.splitlines(keepends=True)[0],
         "hyp.txt": "# doc_id: other\n" + TCP_REF}, TCP_ARGV,
        TCP_ERROR + "no labels of category 'CONJ' in the test set\n",
    ),
}


@pytest.mark.parametrize("case", list(SCORE_FAULTS))
def test_score_fault_is_one_line_and_writes_nothing(
    case, tmp_path, monkeypatch, capsys
):
    files, argv, err = SCORE_FAULTS[case]
    monkeypatch.chdir(tmp_path)
    files = {"ref.txt": TCP_REF, "hyp.txt": TCP_REF, **files}
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    assert run(*argv, "--out", "out.jsonl") == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


# case -> (argv with two outputs, or an output and an input, naming one
# file, that file's line on stderr)
OUTPUT_CLASHES = {
    "convert": (
        ["convert", "--to", "doc-text", "--in", "corpus.jsonl",
         "--src-out", "same.txt", "--tgt-out", "./same.txt"],
        "error: ./same.txt: --src-out and --tgt-out name the same file\n",
    ),
    "clean": (
        ["clean", "--in", "corpus.jsonl", "--out", "same.jsonl", "--report", "same.jsonl"],
        "error: same.jsonl: --out and --report name the same file\n",
    ),
    "shuffle": (
        ["shuffle", "--in", "corpus.jsonl", "--out", "same.jsonl", "--mode", "local",
         "--seed", "1", "--perm-out", "same.jsonl"],
        "error: same.jsonl: --out and --perm-out name the same file\n",
    ),
    "clean report is the manifest": (
        ["clean", "--in", "corpus.jsonl", "--out", "c.jsonl",
         "--report", "c.jsonl.manifest.json"],
        "error: c.jsonl.manifest.json: --report and the manifest name the same file\n",
    ),
    "oversample over its input": (
        ["oversample", "--in", "corpus.jsonl", "--out", "corpus.jsonl", "--factor", "2"],
        "error: corpus.jsonl: --in and --out name the same file\n",
    ),
    "manifest over the input": (
        ["mr-split", "--in", "o.jsonl.manifest.json", "--out", "o.jsonl"],
        "error: o.jsonl.manifest.json: --in and the manifest name the same file\n",
    ),
    "shuffle default perm-out over the input": (
        ["shuffle", "--in", "o.jsonl.perm.jsonl", "--out", "o.jsonl", "--mode", "local",
         "--seed", "1"],
        "error: o.jsonl.perm.jsonl: --in and --perm-out name the same file\n",
    ),
}


@pytest.mark.parametrize("case", list(OUTPUT_CLASHES))
def test_two_outputs_naming_one_file_write_nothing(case, tmp_path, monkeypatch, capsys):
    argv, err = OUTPUT_CLASHES[case]
    monkeypatch.chdir(tmp_path)
    write_records(make_corpus([8, 3]), tmp_path / "corpus.jsonl")
    before = (tmp_path / "corpus.jsonl").read_bytes()
    assert run(*argv) == 1
    assert capsys.readouterr().err == err
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
    assert (tmp_path / "corpus.jsonl").read_bytes() == before


# case -> (argv, the path it names that is made a directory). Each run has
# another output, or the manifest, to write besides that path.
DIRECTORY_OUTPUTS = {
    "clean --out": (
        ["clean", "--in", "corpus.jsonl", "--out", "dir", "--report", "r.jsonl"], "dir",
    ),
    "shuffle --out": (
        ["shuffle", "--in", "corpus.jsonl", "--out", "dir", "--mode", "local", "--seed", "1"],
        "dir",
    ),
    "convert --src-out": (
        ["convert", "--to", "doc-text", "--in", "corpus.jsonl", "--src-out", "dir",
         "--tgt-out", "t.txt"], "dir",
    ),
    "bucket's second bucket": (
        ["bucket", "--in", "corpus.jsonl", "--out-prefix", "b", "--budgets", "4,8"],
        "b.b8.jsonl",
    ),
    "oversample's manifest": (
        ["oversample", "--in", "corpus.jsonl", "--out", "o.jsonl", "--factor", "2"],
        "o.jsonl.manifest.json",
    ),
}


@pytest.mark.parametrize("case", list(DIRECTORY_OUTPUTS))
def test_an_output_that_is_a_directory_writes_nothing(case, tmp_path, monkeypatch, capsys):
    argv, directory = DIRECTORY_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    write_records(make_corpus([8, 3]), tmp_path / "corpus.jsonl")
    (tmp_path / directory).mkdir()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {directory}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["corpus.jsonl", directory])
    assert list((tmp_path / directory).iterdir()) == []


def test_an_output_that_is_a_symlink_to_a_directory_replaces_the_link(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    write_records(make_corpus([8, 3]), tmp_path / "corpus.jsonl")
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to("dir")
    assert run("oversample", "--in", "corpus.jsonl", "--out", "link", "--factor", "2") == 0
    assert not (tmp_path / "link").is_symlink()
    assert len(read_records(tmp_path / "link")) == 4
    assert list((tmp_path / "dir").iterdir()) == []


# A hypothesis or source block with a header and its pair without one: the
# pair takes the header's id, and a sentence-count mismatch names it.
MIXED_HEADERS = {
    "bleu": (
        ["bleu", "--hyp", "a.txt", "--ref", "b.txt", "--level", "sent"],
        "error: a.txt, b.txt: sentence count mismatch in document 0 (id 'a'): 2 hypothesis vs "
        "1 reference\n",
    ),
    "convert": (
        ["convert", "--to", "records", "--src", "a.txt", "--tgt", "b.txt", "--out", "r.jsonl"],
        "error: a.txt, b.txt: sentence count mismatch in document 0 (id 'a'): 2 source vs "
        "1 target\n",
    ),
}


@pytest.mark.parametrize("command", list(MIXED_HEADERS))
def test_a_sentence_count_mismatch_names_the_pair_id(
    command, tmp_path, monkeypatch, capsys
):
    argv, err = MIXED_HEADERS[command]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("# doc_id: a\nx.\ny.\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("x.\n", encoding="utf-8")
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]


CONFLICT_AT_BLOCK_0 = (
    "error: s.txt, t.txt: document 0: source doc_id 'a' conflicts with target doc_id 'b'\n"
)
# convert --to records pairs its two files as it reads them, as bleu does:
# case -> (s.txt, t.txt, the whole of stderr). An id conflict at block 0
# comes before a block-count mismatch and before a later malformed block.
CONVERT_PAIR_FAULTS = {
    "id conflict before a count mismatch": (
        "# doc_id: a\na.\n\nb.\n", "# doc_id: b\na.\n", CONFLICT_AT_BLOCK_0,
    ),
    "id conflict before a later malformed source block": (
        "# doc_id: a\na.\n\nx\ry.\n", "# doc_id: b\na.\n\nb.\n", CONFLICT_AT_BLOCK_0,
    ),
    "id conflict before a later malformed target block": (
        "# doc_id: a\na.\n\nb.\n", "# doc_id: b\na.\n\n# doc_id: c\n", CONFLICT_AT_BLOCK_0,
    ),
    "count mismatch names both counts": (
        "a.\n\nb.\n\nc.\n", "a.\n\nb.\n",
        "error: s.txt, t.txt: document count mismatch: 3 source vs 2 target\n",
    ),
}


@pytest.mark.parametrize("case", list(CONVERT_PAIR_FAULTS))
def test_convert_reports_the_first_pair_fault_it_reads(case, tmp_path, monkeypatch, capsys):
    src, tgt, err = CONVERT_PAIR_FAULTS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.txt").write_text(src, encoding="utf-8")
    (tmp_path / "t.txt").write_text(tgt, encoding="utf-8")
    argv = ["convert", "--to", "records", "--src", "s.txt", "--tgt", "t.txt", "--out", "r.jsonl"]
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.txt", "t.txt"]


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """A cwd holding one input of every kind the file-writing commands read."""
    monkeypatch.chdir(tmp_path)
    write_records(make_corpus([8, 3]), tmp_path / "corpus.jsonl")
    files = {
        "s.txt": "a b.\n\nc d.\n",
        "t.txt": "x y.\n\nz w.\n",
        "ref.txt": TCP_REF,
        "labels.jsonl": LABEL
        + '{"doc_id":"000000","word":"went","position":1,"category":"TENSE"}\n'
        + '{"doc_id":"000000","word":"and","position":3,"category":"CONJ"}\n',
        "inst.jsonl": INSTANCES,
        "sc.jsonl": SCORE + '{"instance_id":"i0","candidate_index":1,"score":0.5}\n',
        "m.jsonl": '{"name":"TC","value":50.0}\n',
        "m2.jsonl": '{"name":"TC","value":60.0}\n',
        "al.jsonl": "".join(
            f'{{"doc_id":"{doc}","pair_index":{i},"score":0.9}}\n'
            for doc, pairs in (("d000", 8), ("d001", 3))
            for i in range(pairs)
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


# command -> (argv, first output, expected manifest config). Keys are the
# long flag names with "-" as "_"; options left unset are omitted.
MANIFEST_CONFIGS = {
    "convert-records": (
        ["convert", "--to", "records", "--src", "s.txt", "--tgt", "t.txt",
         "--out", "c.jsonl"],
        "c.jsonl",
        {"to": "records", "src": "s.txt", "tgt": "t.txt", "out": "c.jsonl"},
    ),
    "convert-doc-text": (
        ["convert", "--to", "doc-text", "--in", "corpus.jsonl",
         "--src-out", "s2.txt", "--tgt-out", "t2.txt"],
        "s2.txt",
        {"to": "doc-text", "in": "corpus.jsonl", "src_out": "s2.txt", "tgt_out": "t2.txt"},
    ),
    "clean": (
        ["clean", "--in", "corpus.jsonl", "--out", "cl.jsonl", "--dedup",
         "--align-scores", "al.jsonl", "--report", "rm.jsonl"],
        "cl.jsonl",
        {"in": "corpus.jsonl", "out": "cl.jsonl", "dedup": "True", "segment": "False",
         "align_scores": "al.jsonl", "align_threshold": "0.4", "report": "rm.jsonl"},
    ),
    "mr-split": (
        ["mr-split", "--in", "corpus.jsonl", "--out", "mr.jsonl", "--no-singletons"],
        "mr.jsonl",
        {"in": "corpus.jsonl", "out": "mr.jsonl", "no_singletons": "True", "joiner": " "},
    ),
    "oversample": (
        ["oversample", "--in", "corpus.jsonl", "--out", "os.jsonl", "--factor", "2"],
        "os.jsonl",
        {"in": "corpus.jsonl", "out": "os.jsonl", "factor": "2"},
    ),
    "bucket": (
        ["bucket", "--in", "corpus.jsonl", "--out-prefix", "b", "--budgets", "4,64"],
        "b.b4.jsonl",
        {"in": "corpus.jsonl", "out_prefix": "b", "budgets": "4,64"},
    ),
    "bleu": (
        ["bleu", "--hyp", "t.txt", "--ref", "s.txt", "--out", "bleu.jsonl"],
        "bleu.jsonl",
        {"hyp": "t.txt", "ref": "s.txt", "level": "doc", "max_n": "4", "cased": "False",
         "out": "bleu.jsonl"},
    ),
    "tcp": (
        ["tcp", "--hyp", "ref.txt", "--ref", "ref.txt", "--labels", "labels.jsonl",
         "--radius", "3", "--out", "tcp.jsonl"],
        "tcp.jsonl",
        {"hyp": "ref.txt", "ref": "ref.txt", "labels": "labels.jsonl", "radius": "3",
         "out": "tcp.jsonl"},
    ),
    "shuffle": (
        ["shuffle", "--in", "corpus.jsonl", "--out", "sh.jsonl", "--mode", "local",
         "--seed", "3"],
        "sh.jsonl",
        {"in": "corpus.jsonl", "out": "sh.jsonl", "mode": "local", "seed": "3",
         "perm_out": "sh.jsonl.perm.jsonl"},
    ),
    "contrastive": (
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl",
         "--out", "acc.jsonl"],
        "acc.jsonl",
        {"instances": "inst.jsonl", "scores": "sc.jsonl", "out": "acc.jsonl"},
    ),
    "report": (
        ["report", "m.jsonl", "m2.jsonl", "--out", "table.txt"],
        "table.txt",
        {"files": "m.jsonl,m2.jsonl", "out": "table.txt"},
    ),
}


# command -> (the inputs, the outputs) its MANIFEST_CONFIGS run records,
# each in the manifest's sorted key order.
MANIFEST_FILES = {
    "convert-records": (["s.txt", "t.txt"], ["c.jsonl"]),
    "convert-doc-text": (["corpus.jsonl"], ["s2.txt", "t2.txt"]),
    "clean": (["al.jsonl", "corpus.jsonl"], ["cl.jsonl", "rm.jsonl"]),
    "mr-split": (["corpus.jsonl"], ["mr.jsonl"]),
    "oversample": (["corpus.jsonl"], ["os.jsonl"]),
    "bucket": (["corpus.jsonl"], ["b.b4.jsonl", "b.b64.jsonl"]),
    "bleu": (["s.txt", "t.txt"], ["bleu.jsonl"]),
    "tcp": (["labels.jsonl", "ref.txt"], ["tcp.jsonl"]),
    "shuffle": (["corpus.jsonl"], ["sh.jsonl", "sh.jsonl.perm.jsonl"]),
    "contrastive": (["inst.jsonl", "sc.jsonl"], ["acc.jsonl"]),
    "report": (["m.jsonl", "m2.jsonl"], ["table.txt"]),
}


@pytest.mark.parametrize("command", list(MANIFEST_CONFIGS))
def test_manifest_config_follows_the_flags(command, workspace):
    argv, output, config = MANIFEST_CONFIGS[command]
    assert run(*argv) == 0
    manifest = json.loads((workspace / f"{output}.manifest.json").read_text())
    assert manifest["config"] == config
    inputs, outputs = MANIFEST_FILES[command]
    for key, names in (("input_digests", inputs), ("output_digests", outputs)):
        assert list(manifest[key]) == names
        for name, digest in manifest[key].items():
            assert digest == hashlib.sha256((workspace / name).read_bytes()).hexdigest()


# command -> the input of its MANIFEST_CONFIGS run that is made a FIFO
FIFO_INPUTS = {
    "convert-records": "t.txt", "convert-doc-text": "corpus.jsonl", "clean": "corpus.jsonl",
    "mr-split": "corpus.jsonl", "oversample": "corpus.jsonl", "bucket": "corpus.jsonl",
    "bleu": "s.txt", "tcp": "labels.jsonl", "shuffle": "corpus.jsonl",
    "contrastive": "sc.jsonl", "report": "m2.jsonl",
}


@contextlib.contextmanager
def unblocked_after(fifo, seconds):
    """From ``seconds`` on, open ``fifo`` for writing whenever something
    waits to read it, so a reader blocked on it reads end of file and the
    test fails instead of hanging."""
    done = threading.Event()

    def unblock():
        done.wait(seconds)
        while not done.is_set():
            with contextlib.suppress(OSError):  # ENXIO: nothing reads it
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            done.wait(0.1)

    thread = threading.Thread(target=unblock)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


@pytest.mark.parametrize("command", list(FIFO_INPUTS))
def test_an_input_the_manifest_cannot_hash_is_rejected_unopened(command, workspace, capsys):
    # The manifest hashes each input by reading it again after the run;
    # a pipe would be recorded with the digest of what is left in it.
    argv = MANIFEST_CONFIGS[command][0]
    fifo = workspace / FIFO_INPUTS[command]
    fifo.unlink()
    os.mkfifo(fifo)
    before = sorted(p.name for p in workspace.iterdir())
    with unblocked_after(fifo, 5):
        assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {fifo.name}: not a regular file, so the manifest cannot record its digest\n"
    )
    assert sorted(p.name for p in workspace.iterdir()) == before


@pytest.mark.parametrize("command", list(MANIFEST_CONFIGS))
def test_an_output_that_names_an_input_is_rejected_unopened(command, workspace, capsys):
    # The run would replace what it reads, and its manifest would record
    # the output's digest as the input's. Its FIFO_INPUTS input is given
    # under the name of its first output.
    argv, output, _ = MANIFEST_CONFIGS[command]
    given = FIFO_INPUTS[command]
    (workspace / output).write_bytes((workspace / given).read_bytes())
    before = {p.name: p.read_bytes() for p in workspace.iterdir()}
    assert run(*[output if arg == given else arg for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {output}: ") and err.count("\n") == 1
    assert err.endswith(" name the same file\n")
    assert {p.name: p.read_bytes() for p in workspace.iterdir()} == before


def test_pearson_writes_no_manifest_and_reads_a_pipe(tmp_path, capsys):
    fifo = tmp_path / "x.fifo"
    os.mkfifo(fifo)
    (tmp_path / "y.txt").write_text("1\n3\n2\n", encoding="utf-8")

    def feed():
        with open(fifo, "w", encoding="utf-8") as handle:
            handle.write("1\n2\n3\n")

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        assert run("pearson", "--x", fifo, "--y", tmp_path / "y.txt") == 0
    finally:
        writer.join(10)
        if writer.is_alive():  # pearson never opened the pipe: release the writer
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(10)
    assert capsys.readouterr().out == "pearson = 0.5000\n"


def test_the_bench_seams_hold(monkeypatch, tmp_path):
    # The bench's traced run counts documents by patching
    # Document.__post_init__ on the class, and hashed bytes by patching
    # RunManifest.write, which reads the manifest's input_digests and
    # output_digests. A ParallelDocument is counted through its __init__.
    from docmt import Document, ParallelDocument
    from docmt.cli import RunManifest

    calls = []
    for cls, method in ((Document, "__post_init__"), (ParallelDocument, "__init__")):
        def counted(self, *args, _original=getattr(cls, method)):
            calls.append(type(self).__name__)
            _original(self, *args)
        monkeypatch.setattr(cls, method, counted)
    ParallelDocument.of("d0", ["a."], ["b."])
    assert calls == ["Document", "Document", "ParallelDocument"]
    with pytest.raises(ValueError, match="blank sentence"):
        Document("d0", [" "])
    manifest = RunManifest("mr-split", {}, None, {"in": "1"}, {"out": "2"})
    assert (manifest.input_digests, manifest.output_digests) == ({"in": "1"}, {"out": "2"})
    manifest.write(tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text(encoding="utf-8")) == {
        "command": "mr-split", "config": {}, "seed": None,
        "input_digests": {"in": "1"}, "output_digests": {"out": "2"},
    }


# Faults whose lines only these cases reach: case -> (files, argv, the
# whole of stderr).
ONE_LINE_FAULTS = {
    "convert --to doc-text without --tgt-out": (
        {"in.jsonl": RECORD},
        ["convert", "--to", "doc-text", "--in", "in.jsonl", "--src-out", "s.txt"],
        "error: convert --to doc-text needs --in, --src-out, and --tgt-out\n",
    ),
    "pearson on a word": (
        {"x.txt": "1\nabc\n3\n", "y.txt": "1\n2\n3\n"},
        ["pearson", "--x", "x.txt", "--y", "y.txt"],
        "error: x.txt: not a finite number on line 2: 'abc\\n'\n",
    ),
    "mr-split with a newline in the joiner": (
        {"in.jsonl": RECORD},
        ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl", "--joiner", "a\nb"],
        "error: joiner must not contain newlines\n",
    ),
    # Of several alignment-score faults, clean names the one it knows first.
    "clean missing score before a score for an unknown document": (
        {"in.jsonl": RECORD, "s.jsonl": ALIGN.replace("d0", "dX")},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "error: in.jsonl, s.jsonl: missing score for document 'd0', pair 0\n",
    ),
    "clean missing score before a later malformed record": (
        {"in.jsonl": RECORD + RECORD.replace("d0", "d1") + "{\n",
         "s.jsonl": ALIGN.replace("d0", "d1")},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "error: in.jsonl, s.jsonl: missing score for document 'd0', pair 0\n",
    ),
    "clean lowest unknown pair, not the first read": (
        {"in.jsonl": RECORD, "s.jsonl": "".join(
            ALIGN.replace('"pair_index":0', f'"pair_index":{i}') for i in (0, 5, 3))},
        ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"],
        "error: in.jsonl, s.jsonl: score for unknown pair 3 of document 'd0' (1 pairs)\n",
    ),
}


@pytest.mark.parametrize("case", list(ONE_LINE_FAULTS))
def test_a_fault_is_one_line_and_writes_nothing(case, tmp_path, monkeypatch, capsys):
    files, argv, err = ONE_LINE_FAULTS[case]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


UNALIGNED = '{"doc_id":"d0","src":["a.","b."],"tgt":["c."]}\n'
CLEAN_ARGV = ["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--align-scores", "s.jsonl"]
CONTRASTIVE_ARGV = ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl"]
PEARSON_ARGV = ["pearson", "--x", "x.txt", "--y", "y.txt"]
TO_DOC_TEXT_ARGV = ["convert", "--to", "doc-text", "--in", "in.jsonl", "--src-out", "s.txt",
                    "--tgt-out", "t.txt"]
TO_RECORDS_ARGV = ["convert", "--to", "records", "--src", "s.txt", "--tgt", "t.txt",
                   "--out", "r.jsonl"]
# One case for each kind of fault that only the inputs together show
# (``InputError``): the line names every input of the run, in parser order,
# before the library's message. case -> (files, argv, the whole of stderr).
# A global shuffle's input that changes between its two reads is
# test_global_shuffle_rejects_an_input_that_changes_between_reads.
DATA_FAULTS = {
    "doc-text pair count mismatch": (
        {"s.txt": "a.\n\nb.\n", "t.txt": "c.\n"}, TO_RECORDS_ARGV,
        "error: s.txt, t.txt: document count mismatch: 2 source vs 1 target\n",
    ),
    "doc-text pair id conflict": (
        {"hyp.txt": "# doc_id: b\na.\n", "ref.txt": "# doc_id: a\na.\n"}, BLEU_ARGV,
        BLEU_ERROR + "document 0: hypothesis doc_id 'b' conflicts with reference doc_id 'a'\n",
    ),
    "doc-text pair sentence count mismatch": (
        {"hyp.txt": "a.\nb.\n", "ref.txt": "a.\n"}, BLEU_ARGV + ["--level", "sent"],
        BLEU_ERROR + "sentence count mismatch in document 0 (id '000000'): 2 hypothesis vs "
        "1 reference\n",
    ),
    "mr-split of an unaligned record": (
        {"in.jsonl": UNALIGNED}, ["mr-split", "--in", "in.jsonl", "--out", "out.jsonl"],
        "error: in.jsonl: document 'd0' is not sentence-aligned\n",
    ),
    "bucket of an unaligned record": (
        {"in.jsonl": UNALIGNED},
        ["bucket", "--in", "in.jsonl", "--out-prefix", "b", "--budgets", "4"],
        "error: in.jsonl: document 'd0' is not sentence-aligned\n",
    ),
    "doc-text of an unaligned record": (
        {"in.jsonl": UNALIGNED}, TO_DOC_TEXT_ARGV,
        "error: in.jsonl: document 'd0' is not sentence-aligned\n",
    ),
    "doc-text of a sentence that reads as a header": (
        {"in.jsonl": '{"doc_id":"000000","src":["# doc_id: x"],"tgt":["b."]}\n'},
        TO_DOC_TEXT_ARGV,
        "error: in.jsonl: document '000000': first sentence collides with the doc_id header "
        "syntax; give the document an explicit id\n",
    ),
    "doc-text pair ids that repeat": (
        {"s.txt": "a.\n\n# doc_id: x\nb.\n", "t.txt": "# doc_id: x\nc.\n\nd.\n"},
        TO_RECORDS_ARGV, "error: s.txt, t.txt: duplicate doc_id 'x' in corpus\n",
    ),
    "alignment score for an unknown document": (
        {"in.jsonl": RECORD, "s.jsonl": ALIGN + ALIGN.replace("d0", "dX")}, CLEAN_ARGV,
        "error: in.jsonl, s.jsonl: score for unknown document 'dX'\n",
    ),
    "alignment score for an unknown pair": (
        {"in.jsonl": RECORD,
         "s.jsonl": ALIGN + ALIGN.replace('"pair_index":0', '"pair_index":1')}, CLEAN_ARGV,
        "error: in.jsonl, s.jsonl: score for unknown pair 1 of document 'd0' (1 pairs)\n",
    ),
    "alignment pair without a score": (
        {"in.jsonl": RECORD, "s.jsonl": ""}, CLEAN_ARGV,
        "error: in.jsonl, s.jsonl: missing score for document 'd0', pair 0\n",
    ),
    "contrastive score for an unknown instance": (
        {"inst.jsonl": INSTANCES, "sc.jsonl": SCORE.replace("i0", "zz")}, CONTRASTIVE_ARGV,
        "error: inst.jsonl, sc.jsonl: score for unknown instance 'zz'\n",
    ),
    "contrastive score for an unknown candidate": (
        {"inst.jsonl": INSTANCES,
         "sc.jsonl": SCORE + '{"instance_id":"i0","candidate_index":5,"score":0.0}\n'},
        CONTRASTIVE_ARGV,
        "error: inst.jsonl, sc.jsonl: score for unknown candidate 5 of instance 'i0'\n",
    ),
    "contrastive candidate scored twice": (
        {"inst.jsonl": INSTANCES, "sc.jsonl": SCORE + SCORE}, CONTRASTIVE_ARGV,
        "error: inst.jsonl, sc.jsonl: duplicate score for ('i0', 0)\n",
    ),
    "contrastive candidate without a score": (
        {"inst.jsonl": INSTANCES, "sc.jsonl": SCORE}, CONTRASTIVE_ARGV,
        "error: inst.jsonl, sc.jsonl: missing score for candidate 1 of instance 'i0'\n",
    ),
    "contrastive without instances": (
        {"inst.jsonl": "", "sc.jsonl": ""}, CONTRASTIVE_ARGV,
        "error: inst.jsonl, sc.jsonl: no instances\n",
    ),
    "label word that is not the reference token": (
        {"hyp.txt": TCP_REF, "ref.txt": TCP_REF,
         "labels.jsonl": TCP_LABELS.replace('"went"', '"goes"')}, TCP_ARGV,
        TCP_ERROR + "label word 'goes' does not match reference token 'went' at position 1 "
        "of document '000000'\n",
    ),
    "label position past the reference": (
        {"hyp.txt": TCP_REF, "ref.txt": TCP_REF,
         "labels.jsonl": TCP_LABELS.replace('"position":1', '"position":9')}, TCP_ARGV,
        TCP_ERROR + "label position 9 out of range for document '000000' (6 tokens)\n",
    ),
    "category without labels": (
        {"hyp.txt": TCP_REF, "ref.txt": TCP_REF, "labels.jsonl": LABEL}, TCP_ARGV,
        TCP_ERROR + "no labels of category 'TENSE' in the test set\n",
    ),
    "labeled document without an output": (
        {"hyp.txt": "# doc_id: other\n" + TCP_REF, "ref.txt": TCP_REF,
         "labels.jsonl": TCP_LABELS}, TCP_ARGV,
        TCP_ERROR + "missing output for labeled document '000000'\n",
    ),
    "labels for an unknown document": (
        {"hyp.txt": TCP_REF, "ref.txt": TCP_REF,
         "labels.jsonl": TCP_LABELS + LABEL.replace("000000", "ghost")}, TCP_ARGV,
        TCP_ERROR + "labels for unknown documents ['ghost']\n",
    ),
    "pearson columns of unequal length": (
        {"x.txt": "1\n2\n3\n", "y.txt": "1\n2\n"}, PEARSON_ARGV,
        "error: x.txt, y.txt: length mismatch: 3 vs 2\n",
    ),
    "pearson of one point": (
        {"x.txt": "1\n", "y.txt": "2\n"}, PEARSON_ARGV,
        "error: x.txt, y.txt: pearson needs at least two points\n",
    ),
    "pearson of a constant column": (
        {"x.txt": "1\n1\n1\n", "y.txt": "1\n2\n3\n"}, PEARSON_ARGV,
        "error: x.txt, y.txt: degenerate input: at least one of the inputs is constant\n",
    ),
    "bleu of no documents": (
        {"hyp.txt": "", "ref.txt": ""}, BLEU_ARGV, BLEU_ERROR + "cannot score an empty corpus\n",
    ),
    "local shuffle of no documents": (
        {"in.jsonl": ""},
        ["shuffle", "--in", "in.jsonl", "--out", "o.jsonl", "--mode", "local", "--seed", "1"],
        "error: in.jsonl: cannot shuffle an empty corpus\n",
    ),
    "global shuffle of no documents": (
        {"in.jsonl": '{"metadata": {"k": "v"}}\n'},
        ["shuffle", "--in", "in.jsonl", "--out", "o.jsonl", "--mode", "global", "--seed", "1"],
        "error: in.jsonl: cannot shuffle an empty corpus\n",
    ),
    "report of a negative span metric": (
        {"m.jsonl": '{"name":"TC","value":-1.0}\n{"name":"CP","value":50.0}\n'
                    '{"name":"PT","value":50.0}\n'}, ["report", "m.jsonl"],
        "error: m.jsonl: tcp inputs must not be negative, got (-1.0, 50.0, 50.0)\n",
    ),
}


@pytest.mark.parametrize("case", list(DATA_FAULTS))
def test_a_data_fault_names_every_input(case, tmp_path, monkeypatch, capsys):
    files, argv, err = DATA_FAULTS[case]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("level, longest", [("doc", 7), ("sent", 4)])
def test_a_huge_max_n_scores_as_the_longest_hypothesis(level, longest, tmp_path, capsys):
    # Orders past the longest hypothesis have no n-grams and drop out, so
    # any larger max-n gives the same score, and holds nothing per order.
    (tmp_path / "hyp.txt").write_text(
        "he went home.\nshe slept.\n\nthe cat sat.\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text(
        "yes he went home.\nshe slept. then\n\na cat sat down.\n", encoding="utf-8")
    argv = ["bleu", "--hyp", tmp_path / "hyp.txt", "--ref", tmp_path / "ref.txt",
            "--level", level, "--max-n"]
    assert run(*argv, longest) == 0
    expected = capsys.readouterr()
    assert expected.err == "" and expected.out.split(" = ")[1] not in ("0.00\n", "100.00\n")
    assert run(*argv, 10**19) == 0
    assert capsys.readouterr() == expected


def test_a_write_past_the_file_size_limit_names_the_output(tmp_path):
    # The limit makes write(2) fail with EFBIG part-way through the temp
    # file, as a full disk fails with ENOSPC.
    pytest.importorskip("resource")
    with open(tmp_path / "c.jsonl", "w", encoding="utf-8") as handle:
        for i in range(300):
            row = {"doc_id": f"d{i}", "src": [f"source {i} {'w' * 80}."],
                   "tgt": [f"target {i} {'v' * 80}."]}
            handle.write(json.dumps(row) + "\n")
    limited = (
        "import resource, signal, sys\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "from docmt.cli import main\n"
        "main()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", limited,
         "oversample", "--in", "c.jsonl", "--out", "o.jsonl", "--factor", "4"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(docmt.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: o.jsonl: File too large\n"
    )
    assert os.listdir(tmp_path) == ["c.jsonl"]


def test_a_category_without_hits_scores_zero_without_a_warning(tmp_path):
    # TC is 0 when no TENSE label is found in its window, so TCP is 0, the
    # geometric mean's value: a score, not a fault. With every warning an
    # error, tcp and report still exit 0 and print nothing to stderr.
    (tmp_path / "ref.txt").write_text(TCP_REF, encoding="utf-8")
    (tmp_path / "hyp.txt").write_text("he goes home and slept.\n", encoding="utf-8")
    (tmp_path / "labels.jsonl").write_text(TCP_LABELS, encoding="utf-8")
    outputs = []
    for argv in (TCP_ARGV + ["--out", "m.jsonl"], ["report", "m.jsonl"]):
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "docmt", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(docmt.__file__).resolve().parent.parent)},
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (0, ""), argv
        outputs.append(result.stdout)
    assert outputs[0] == "TC = 0.0 (0/1)\nCP = 100.0 (1/1)\nPT = 100.0 (1/1)\nTCP = 0.0\n"
    assert outputs[1].splitlines()[1].split() == ["m", "-", "0.0", "100.0", "100.0", "0.0"]
