"""Parallel-document data model and the toolkit's two file formats.

Doc-text format (a pair of plain-text files, one per language side):

* UTF-8, one sentence per line, no blank lines inside a document.
* Exactly one blank line between consecutive documents; the file ends
  with a newline after the last sentence, no trailing blank block.
* The first line of a document block, and no other, may be a header
  ``# doc_id: <id>`` giving an explicit id; a sentence must follow it.
  Without a header, the id is the zero-padded ordinal of the block
  ("000000", "000001", ...). Headers are written back only for ids that
  differ from the ordinal default, so plain corpora stay plain text.
* Source and target files must contain the same number of blocks, and
  paired blocks must have the same number of lines.

Records format (a single JSON-lines file):

* One document per line: ``{"doc_id": ..., "src": [...], "tgt": [...]}``.
* An ``"aligned"`` key is emitted only when the flag differs from the
  default derived from equal sentence counts.
* Corpus metadata, when non-empty, travels as a single leading
  ``{"metadata": {...}}`` line.

Both formats round-trip exactly: ``read(write(c)) == c``. Doc-text
carries aligned, metadata-free corpora (which is all it can ever
produce); records carries every corpus.

Records files stream, records in and records out:
``read_record_stream`` checks each line once and yields a ``Record``,
the stages take and yield records, and ``write_record_stream`` writes
them through the one line encoder, ``encode_record``. ``read_records``
reads a whole corpus with the same reader, building each document
straight from its line, and ``write_records`` writes one; stages turn
records back into documents only in ``ParallelCorpus.derive``. Files
are read and written through ``docmt.fileio``, whose primitives stay
importable from here. Doc-text files stream too: ``read_doc_stream``
yields one ``Document`` at a time, ``read_docs`` is its list,
``paired_docs`` pairs two streams as they are read, and ``aligned_pairs``
checks each pair's sentence counts.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, Sized, TypeVar

from .fileio import read_jsonl, read_lines, typed, write_jsonl, write_text

D = TypeVar("D", "ParallelDocument", "Record")

_HEADER_RE = re.compile(r"^#\s*doc_id:\s*(\S+)\s*$")
# The records format's tables: a record line, and the metadata line that may lead a file.
RECORD_FIELDS = (("doc_id", str), ("aligned", (bool, None)), ("src", tuple), ("tgt", tuple))
METADATA_FIELDS = (("metadata", dict),)


class InputError(ValueError):
    """A fault in the data a function was given that no reader of one file
    can see, such as two inputs that do not fit each other; the CLI names
    every input of the run before the message."""


def _ordinal_id(index: int) -> str:
    return f"{index:06d}"


def paired_docs(
    firsts: Iterable[Document], seconds: Iterable[Document], first: str, second: str
) -> Iterator[tuple[str, Document, Document]]:
    """``(doc_id, a, b)`` for each pair of two document streams paired by
    position, one pair at a time.

    Two ids pair when they are equal, or when one is its block's ordinal
    default and the other then names the pair; anything else is an error.
    When one stream ends first, the rest of the other is read, so that the
    count mismatch names both counts.
    """
    pairs = itertools.zip_longest(firsts, seconds)
    for i, (a, b) in enumerate(pairs):
        if a is None or b is None:
            longer = i + 1 + sum(1 for _ in pairs)
            raise InputError(
                f"document count mismatch: {i if a is None else longer} {first} vs "
                f"{longer if a is None else i} {second}"
            )
        if a.doc_id != b.doc_id and _ordinal_id(i) not in (a.doc_id, b.doc_id):
            raise InputError(
                f"document {i}: {first} doc_id {a.doc_id!r} conflicts with "
                f"{second} doc_id {b.doc_id!r}"
            )
        yield (b.doc_id if a.doc_id == _ordinal_id(i) else a.doc_id), a, b


def aligned_pairs(
    pairs: Iterable[tuple[str, Document, Document]], first: str, second: str
) -> Iterator[tuple[str, Document, Document]]:
    """The ``(doc_id, a, b)`` pairs of ``paired_docs``, one at a time, each
    of which must have as many sentences in ``a`` as in ``b``; a mismatch
    names the pair's index and its id."""
    for i, (doc_id, a, b) in enumerate(pairs):
        if len(a) != len(b):
            raise InputError(
                f"sentence count mismatch in document {i} (id {doc_id!r}): "
                f"{len(a)} {first} vs {len(b)} {second}"
            )
        yield doc_id, a, b


class Value:
    """Base of the checked value types: equality, hashing and ``repr``
    over the ``__slots__`` fields, in order. Instances are not changed
    after their constructor has checked them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Document(Value):
    """An ordered run of sentences with a stable id.

    The checks run in ``__post_init__``, which the constructor calls
    through the class, so a patch of the method sees every document.
    """

    __slots__ = ("doc_id", "sentences")

    def __init__(self, doc_id: str, sentences: Iterable[str]) -> None:
        self.doc_id = doc_id
        self.sentences = tuple(sentences)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_sentences(self.doc_id, self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def text(self) -> str:
        """The document flattened to a single space-joined line."""
        return " ".join(self.sentences)


class ParallelDocument(Value):
    """A source/target document pair.

    ``aligned`` asserts a one-to-one sentence correspondence; when it is
    left unset it defaults to "the two sides have equal sentence counts".
    """

    __slots__ = ("source", "target", "aligned")

    def __init__(
        self, source: Document, target: Document, aligned: bool | None = None
    ) -> None:
        if source.doc_id != target.doc_id:
            raise ValueError(
                f"source doc_id {source.doc_id!r} != target doc_id {target.doc_id!r}"
            )
        self.source = source
        self.target = target
        self.aligned = aligned_flag(source.doc_id, source, target, aligned)

    @classmethod
    def of(
        cls,
        doc_id: str,
        source: Sequence[str],
        target: Sequence[str],
        aligned: bool | None = None,
    ) -> ParallelDocument:
        """A pair whose two sides share ``doc_id``."""
        return cls(Document(doc_id, source), Document(doc_id, target), aligned)

    @property
    def doc_id(self) -> str:
        return self.source.doc_id

    @property
    def record(self) -> Record:
        """This pair as a ``Record``; ``ParallelDocument.of(*record)`` inverts it."""
        return Record(self.doc_id, self.source.sentences, self.target.sentences, self.aligned)

    @property
    def n_pairs(self) -> int:
        """Number of aligned sentence pairs (0 for unaligned documents)."""
        return len(self.source) if self.aligned else 0


class Record(NamedTuple):
    """One document of the records format as it streams from reader to
    writer. The reader checks it once; stages build records from checked
    sentences, so a record is never checked again."""

    doc_id: str
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    aligned: bool


def check_sentences(doc_id: str, sentences: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``doc_id`` is non-empty and
    ``sentences`` is a non-empty run of non-blank, single-line strings."""
    if not doc_id:
        raise ValueError("doc_id must be non-empty")
    if not sentences:
        raise ValueError(f"document {doc_id!r} has no sentences")
    for i, sentence in enumerate(sentences):
        if "\n" in sentence or "\r" in sentence:
            raise ValueError(f"document {doc_id!r}, sentence {i}: embedded newline")
        if not sentence.strip():
            raise ValueError(f"document {doc_id!r}, sentence {i}: blank sentence")


def aligned_flag(doc_id: str, src: Sized, tgt: Sized, aligned: bool | None) -> bool:
    """``aligned``, or when it is None whether the two sides have equal
    sentence counts; a document marked aligned must have equal counts."""
    if aligned is None:
        return len(src) == len(tgt)
    if aligned and len(src) != len(tgt):
        raise ValueError(
            f"document {doc_id!r} marked aligned but has "
            f"{len(src)} source vs {len(tgt)} target sentences"
        )
    return aligned


def require_aligned(doc: D) -> D:
    """``doc``, a document or a record, which must be sentence-aligned."""
    if not doc.aligned:
        raise InputError(f"document {doc.doc_id!r} is not sentence-aligned")
    return doc


class ParallelCorpus(Value):
    """An ordered collection of parallel documents with unique ids."""

    __slots__ = ("documents", "metadata")

    def __init__(
        self,
        documents: Iterable[ParallelDocument] = (),
        metadata: dict[str, str] | None = None,
    ) -> None:
        self.documents = tuple(documents)
        self.metadata = {} if metadata is None else metadata
        seen: set[str] = set()
        for doc in self.documents:
            if doc.doc_id in seen:
                raise InputError(f"duplicate doc_id {doc.doc_id!r} in corpus")
            seen.add(doc.doc_id)

    def derive(self, records: Iterable[Record], **metadata: str) -> ParallelCorpus:
        """A new corpus of ``records``, as checked documents, carrying a
        copy of this corpus's metadata, updated with ``metadata``."""
        documents = tuple(ParallelDocument.of(*record) for record in records)
        return ParallelCorpus(documents, {**self.metadata, **metadata})

    def records(self) -> Iterator[Record]:
        """The documents as ``Record``s, in order."""
        return (doc.record for doc in self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[ParallelDocument]:
        return iter(self.documents)

    def __getitem__(self, index: int) -> ParallelDocument:
        return self.documents[index]


def read_doc_stream(path: str | Path) -> Iterator[Document]:
    """Read one side of the doc-text format one document at a time.

    A block is a run of non-blank lines, and its first line is its header
    when it reads ``# doc_id: <id>``. A block of only a header is an
    error, as is a doc_id given to two blocks (naming both ordinals). Only
    the ids read so far are held, with their ordinals.
    """
    ordinals: dict[str, int] = {}
    lines = read_lines(path, "doc-text")
    for blank, block in itertools.groupby(lines, key=lambda line: line[1].isspace()):
        if blank:
            continue
        (lineno, first), *rest = block
        sentences = [raw.rstrip("\n") for _, raw in rest]
        header = _HEADER_RE.match(first)
        if header is None:
            doc_id = _ordinal_id(len(ordinals))
            sentences.insert(0, first.rstrip("\n"))
        elif sentences:
            doc_id = header.group(1)
        else:
            raise ValueError(
                f"{path}: malformed doc-text on line {lineno}: "
                f"doc_id {header.group(1)!r} has no sentences"
            )
        if doc_id in ordinals:
            raise ValueError(
                f"{path}: duplicate doc_id {doc_id!r} in blocks "
                f"{ordinals[doc_id]} and {len(ordinals)}"
            )
        ordinals[doc_id] = len(ordinals)
        yield Document(doc_id, tuple(sentences))


def read_docs(path: str | Path) -> list[Document]:
    """``read_doc_stream`` as a list."""
    return list(read_doc_stream(path))


def _doc_text(docs: Sequence[Document]) -> str:
    """One side of the doc-text format as one string.

    A ``# doc_id:`` header is emitted only for ids that differ from the
    block-ordinal default, keeping default corpora header-free.
    """
    blocks: list[str] = []
    for i, doc in enumerate(docs):
        lines: list[str] = []
        if doc.doc_id != _ordinal_id(i):
            lines.append(f"# doc_id: {doc.doc_id}")
        elif _HEADER_RE.match(doc.sentences[0]):
            raise InputError(
                f"document {doc.doc_id!r}: first sentence collides with the "
                "doc_id header syntax; give the document an explicit id"
            )
        lines.extend(doc.sentences)
        blocks.append("\n".join(lines))
    content = "\n\n".join(blocks)
    if blocks:
        content += "\n"
    return content


def write_docs(docs: Sequence[Document], path: str | Path) -> None:
    """Write one side of the doc-text format."""
    write_text(path, [_doc_text(docs)])


def read_doc_text(src_path: str | Path, tgt_path: str | Path) -> ParallelCorpus:
    """Read a parallel doc-text file pair into an aligned corpus.

    The files are read in step and paired as ``bleu`` pairs them
    (``paired_docs``, then ``aligned_pairs``), so the first faulty pair or
    malformed block is reported; partial alignment is never accepted.
    """
    pairs = paired_docs(read_doc_stream(src_path), read_doc_stream(tgt_path), "source", "target")
    # A target id that names a pair can repeat a source id: ParallelCorpus
    # refuses it.
    return ParallelCorpus(
        ParallelDocument.of(doc_id, src.sentences, tgt.sentences, aligned=True)
        for doc_id, src, tgt in aligned_pairs(pairs, "source", "target")
    )


def write_doc_text(
    corpus: ParallelCorpus, src_path: str | Path, tgt_path: str | Path
) -> None:
    """Write a corpus as a parallel doc-text file pair. Every document
    must be sentence-aligned, and both sides are checked before either
    file is written, and the target is written before the source replaces
    its file, so a fault writes neither."""
    documents = [require_aligned(doc) for doc in corpus]
    src = _doc_text([doc.source for doc in documents])
    tgt = _doc_text([doc.target for doc in documents])

    def source_then_target() -> Iterator[str]:
        yield src
        write_text(tgt_path, [tgt])

    write_text(src_path, source_then_target())


def read_record_stream(path: str | Path) -> tuple[dict[str, str], Iterator[Record]]:
    """Open a records file: its metadata, and its documents one at a time.

    The first line is read here; every later line is read when the
    iterator reaches it, checked once with the checks the document
    constructors run, and yielded as a ``Record``. Only the ids seen so
    far are held. A repeated doc_id is malformed at the line that repeats
    it: ``"{path}: malformed record on line {n}: duplicate doc_id 'x' in
    corpus"``.
    """
    return _read_rows(path, _checked_record)


def _checked_record(doc_id: str, src: tuple, tgt: tuple, aligned: bool | None) -> Record:
    """A ``Record`` checked as ``ParallelDocument.of`` checks its arguments."""
    check_sentences(doc_id, src)
    check_sentences(doc_id, tgt)
    return Record(doc_id, src, tgt, aligned_flag(doc_id, src, tgt, aligned))


def _read_rows(
    path: str | Path, make: Callable[..., D]
) -> tuple[dict[str, str], Iterator[D]]:
    """``read_record_stream``, with ``make`` building and checking each row."""
    metadata: dict[str, str] = {}
    seen: set[str] = set()
    first = True

    def parse(record: Any) -> D | None:
        nonlocal first
        is_metadata = first and isinstance(record, dict) and set(record) == {"metadata"}
        first = False
        if is_metadata:  # an object of strings
            (values,) = typed(record, METADATA_FIELDS)
            metadata.update(zip(values, typed(values, [(key, str) for key in values])))
            return None
        doc_id, aligned, src, tgt = typed(record, RECORD_FIELDS)
        row = make(doc_id, src, tgt, aligned)
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r} in corpus")
        seen.add(doc_id)
        return row

    rows = read_jsonl(path, None, parse, "record")
    head = next(rows, None)  # None: a metadata line, or an empty file
    return metadata, itertools.chain([] if head is None else [head], rows)


def read_records(path: str | Path) -> ParallelCorpus:
    """Read the JSON-lines records format; malformed lines report line numbers."""
    metadata, documents = _read_rows(path, ParallelDocument.of)
    return ParallelCorpus(tuple(documents), metadata)


_quote = json.encoder.encode_basestring  # the escaper of json.dumps(ensure_ascii=False)


def encode_record(record: Record) -> str:
    """One line of the records format: exactly ``json.dumps(row,
    ensure_ascii=False) + "\n"`` of the row ``{"doc_id", "src", "tgt"}``,
    plus ``"aligned"`` when the flag differs from the equal-counts default."""
    doc_id, src, tgt, aligned = record
    line = (
        f'{{"doc_id": {_quote(doc_id)}, "src": [{", ".join(map(_quote, src))}], '
        f'"tgt": [{", ".join(map(_quote, tgt))}]'
    )
    if aligned != (len(src) == len(tgt)):
        line += ', "aligned": true' if aligned else ', "aligned": false'
    return line + "}\n"


def write_record_stream(
    path: str | Path, metadata: dict[str, str], records: Iterable[Record]
) -> int:
    """Write the records format from ``records``, taken one at a time,
    atomically; returns the number of records."""
    count = 0

    def lines() -> Iterator[str]:
        nonlocal count
        if metadata:
            yield json.dumps({"metadata": metadata}, ensure_ascii=False) + "\n"
        for record in records:
            count += 1
            yield encode_record(record)

    write_text(path, lines())
    return count


def write_records(corpus: ParallelCorpus, path: str | Path) -> None:
    """Write the JSON-lines records format (UTF-8, one document per line)."""
    write_record_stream(path, corpus.metadata, corpus.records())
