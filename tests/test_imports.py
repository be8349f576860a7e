"""A step loads only what it runs: ``import docmt`` imports no submodule,
each command imports only the layers it uses, ``statistics`` is imported
by ``pearson`` alone, OpenSSL only once the handler has returned, and
nothing imports ``dataclasses`` or the ``inspect`` it needs. Each check
runs in a fresh interpreter, so what the test process has already
imported does not count. And only ``fileio`` decodes JSON, and every
module stays under the size at which its compile memory jumps."""

import ast
import json
import os
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import pytest

import docmt
from docmt import write_records
from helpers import make_corpus

SRC = str(Path(docmt.__file__).resolve().parent.parent)
LAYERS = {f"docmt.{name}" for name in ("corpus", "pipeline", "mrsplit", "metrics", "harness")}
# Costly to import, and no value type needs them.
UNUSED = {"dataclasses", "inspect"}


def loaded_after(code, cwd):
    """The modules a fresh interpreter holds after running ``code``."""
    script = f"{textwrap.dedent(code)}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_docmt_loads_no_submodule(tmp_path):
    loaded = loaded_after("import docmt", tmp_path)
    assert "docmt" in loaded
    assert {m for m in loaded if m.startswith("docmt.")} == set()


@pytest.fixture
def inputs(tmp_path):
    write_records(make_corpus([4, 3]), tmp_path / "corpus.jsonl")
    (tmp_path / "doc.txt").write_text("he went home and slept.\n", encoding="utf-8")
    (tmp_path / "x.txt").write_text("1\n2\n3\n", encoding="utf-8")
    (tmp_path / "labels.jsonl").write_text(
        '{"doc_id":"000000","word":"went","position":1,"category":"TENSE"}\n'
        '{"doc_id":"000000","word":"and","position":3,"category":"CONJ"}\n'
        '{"doc_id":"000000","word":"he","position":0,"category":"PRON"}\n',
        encoding="utf-8",
    )
    (tmp_path / "bleu.jsonl").write_text('{"name": "d-BLEU", "value": 10.0}\n', encoding="utf-8")
    (tmp_path / "inst.jsonl").write_text(
        '{"instance_id":"i0","source":"s","candidates":["good","bad"],'
        '"positive_index":0,"phenomenon":"deixis"}\n',
        encoding="utf-8",
    )
    (tmp_path / "sc.jsonl").write_text(
        '{"instance_id":"i0","candidate_index":0,"score":1.0}\n'
        '{"instance_id":"i0","candidate_index":1,"score":0.5}\n',
        encoding="utf-8",
    )
    (tmp_path / "align.jsonl").write_text(
        "".join(f'{{"doc_id":"d{d:03d}","pair_index":{i},"score":0.9}}\n'
                for d, n in enumerate([4, 3]) for i in range(n)),
        encoding="utf-8",
    )
    return tmp_path


COMMANDS = pytest.mark.parametrize(
    "argv, runs",
    [
        pytest.param(["convert", "--to", "records", "--src", "doc.txt", "--tgt", "doc.txt",
                      "--out", "c.jsonl"], set(), id="convert-records"),
        pytest.param(["convert", "--to", "doc-text", "--in", "corpus.jsonl", "--src-out",
                      "s.txt", "--tgt-out", "t.txt"], set(), id="convert-doc-text"),
        pytest.param(["mr-split", "--in", "corpus.jsonl", "--out", "mr.jsonl"], {"mrsplit"},
                     id="mr-split-mrsplit"),
        pytest.param(["oversample", "--in", "corpus.jsonl", "--out", "os.jsonl", "--factor",
                      "2"], {"mrsplit"}, id="oversample-mrsplit"),
        pytest.param(["bucket", "--in", "corpus.jsonl", "--out-prefix", "b", "--budgets",
                      "4"], {"mrsplit"}, id="bucket-mrsplit"),
        pytest.param(["pearson", "--x", "x.txt", "--y", "x.txt"], {"metrics"},
                     id="pearson-metrics"),
        pytest.param(["bleu", "--hyp", "doc.txt", "--ref", "doc.txt"], {"metrics"},
                     id="bleu-metrics"),
        pytest.param(["tcp", "--hyp", "doc.txt", "--ref", "doc.txt", "--labels", "labels.jsonl"],
                     {"metrics"}, id="tcp-metrics"),
        pytest.param(["report", "bleu.jsonl"], {"metrics"}, id="report-metrics"),
        pytest.param(["shuffle", "--in", "corpus.jsonl", "--out", "sh.jsonl", "--mode", "local",
                      "--seed", "1"], {"harness"}, id="shuffle-harness"),
        pytest.param(["shuffle", "--in", "corpus.jsonl", "--out", "sh.jsonl", "--mode", "global",
                      "--seed", "1"], {"harness"}, id="shuffle-global-harness"),
        pytest.param(["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl",
                      "--out", "acc.jsonl"], {"harness", "metrics"},
                     id="contrastive-harness-metrics"),
        pytest.param(["clean", "--in", "corpus.jsonl", "--out", "cl.jsonl", "--dedup"],
                     {"pipeline"}, id="clean-pipeline"),
        pytest.param(["clean", "--in", "corpus.jsonl", "--out", "cl.jsonl", "--align-scores",
                      "align.jsonl"], {"pipeline"}, id="clean-align-scores-pipeline"),
    ],
)


@COMMANDS
def test_a_command_loads_only_the_layer_it_runs(argv, runs, inputs):
    loaded = loaded_after(
        f"from docmt.cli import dispatch\nassert dispatch({argv!r}) == 0", inputs
    )
    assert loaded & LAYERS == {"docmt.corpus", *(f"docmt.{layer}" for layer in runs)}
    assert not loaded & UNUSED


@COMMANDS
def test_openssl_loads_only_once_the_handler_returns(argv, runs, inputs):
    # hashlib maps OpenSSL's libcrypto (about 3.6 MiB), so a step that held
    # its data while it is mapped would pay for both at once. The manifest
    # hashes every file through cli._sha256, after the handler returns;
    # only clean loads it before, for pipeline's BLAKE2b dedup.
    writes = any(arg.startswith("--out") or arg.endswith("-out") for arg in argv)
    loaded = loaded_after(
        f"""
        import sys
        from docmt import cli
        sha256, openssl_at_each_hash = cli._sha256, []

        def seen_sha256(path):
            openssl_at_each_hash.append("_hashlib" in sys.modules)
            return sha256(path)

        cli._sha256 = seen_sha256
        assert cli.dispatch({argv!r}) == 0
        assert openssl_at_each_hash[:1] in ([], [{"pipeline" in runs}]), openssl_at_each_hash
        assert bool(openssl_at_each_hash) == {writes}
        """,
        inputs,
    )
    # A run that writes no file, and so no manifest, never maps OpenSSL.
    assert ("_hashlib" in loaded) == writes


def test_no_layer_but_pipeline_imports_hashlib(tmp_path):
    layers = ", ".join(sorted(LAYERS - {"docmt.pipeline"}))
    loaded = loaded_after(f"import docmt.cli, docmt.fileio, {layers}", tmp_path)
    assert {"docmt.cli", "docmt.fileio", *LAYERS} - loaded == {"docmt.pipeline"}
    assert not loaded & {"hashlib", "_hashlib"}


@pytest.mark.parametrize(
    "code, modules", [("import docmt.cli", {"docmt.cli"}), ("from docmt import *", LAYERS)]
)
def test_no_import_loads_dataclasses(code, modules, tmp_path):
    loaded = loaded_after(code, tmp_path)
    assert modules <= loaded
    assert not loaded & UNUSED


def test_statistics_is_loaded_only_by_pearson(tmp_path):
    loaded = loaded_after(
        """
        from docmt import *
        import sys
        assert "statistics" not in sys.modules
        assert metrics.pearson is pearson  # the star import binds the layers too
        assert round(pearson([1, 2, 3], [1, 3, 2]), 4) == 0.5
        """,
        tmp_path,
    )
    assert LAYERS <= loaded
    assert "statistics" in loaded


def test_every_export_imports_and_an_unknown_name_does_not(tmp_path):
    loaded_after(
        """
        import sys, docmt
        for name in docmt.__all__:
            namespace = {}
            exec(f"from docmt import {name}", namespace)
            assert namespace[name] is getattr(docmt, name), name
        for layer in ("corpus", "pipeline", "mrsplit", "metrics", "harness"):
            assert getattr(docmt, layer) is sys.modules[f"docmt.{layer}"], layer
        assert set(docmt.__all__) <= set(dir(docmt))
        try:
            docmt.nonexistent
        except AttributeError as exc:
            assert str(exc) == "module 'docmt' has no attribute 'nonexistent'", exc
        else:
            raise AssertionError("docmt.nonexistent resolved")
        try:
            from docmt import nonexistent
        except ImportError:
            pass
        else:
            raise AssertionError("from docmt import nonexistent resolved")
        """,
        tmp_path,
    )


# The names through which the json module decodes.
DECODERS = {"load", "loads", "JSONDecoder", "raw_decode", "decoder", "scanner"}


def test_only_fileio_decodes_json():
    # Every JSON-lines format is read through fileio.read_jsonl and typed
    # by its table there; a module that decoded JSON itself would grow a
    # second loop, with its own line numbers and checks.
    package = Path(docmt.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert {"fileio.py", "corpus.py", "metrics.py"} <= {path.name for path in modules}
    for path in modules:
        if path.name == "fileio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for name in [alias.name, *alias.name.split(".")]
        }
        assert not used & DECODERS, (path.name, used & DECODERS)


# Between 4,076 and 4,126 tokens, the peak memory to compile cli.py jumps
# from 1.47 to 1.73 MiB, and with no bytecode cached every step pays it
# (README, "What a command loads"); metrics.py meets the same cliff
# between 4,096 and 4,104. The cliff is the parser's, so it holds for
# every module. The guard leaves some margin below it.
TOKEN_LIMIT = 4_000
CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the cliff was measured on CPython 3.11 only; from 3.12, f-strings "
    "tokenize into their parts (PEP 701), so the count differs",
)
MODULES = sorted(p.name for p in Path(docmt.__file__).resolve().parent.glob("*.py"))


def tokens_of(name):
    """The tokens of a module of the package, as ``tokenize`` counts them,
    comments and blank lines aside."""
    path = Path(docmt.__file__).resolve().parent / name
    with open(path, encoding="utf-8") as handle:
        return sum(
            1
            for token in tokenize.generate_tokens(handle.readline)
            if token.type not in (tokenize.COMMENT, tokenize.NL)
        )


@CPYTHON_311
@pytest.mark.parametrize("name", MODULES)
def test_a_module_stays_under_the_compile_cliff(name):
    count = tokens_of(name)
    assert count < TOKEN_LIMIT, (
        f"{name} has {count} tokens, at or past {TOKEN_LIMIT:,}: move a part "
        "out before adding to it (README, \"What a command loads\")"
    )
