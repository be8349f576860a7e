"""The file primitives every layer reads and writes through: line-numbered
reads of text and JSON-lines files, the field checks of a parsed row, and
atomic writes hashed as they are written. They live apart from ``corpus``
to keep each module small (see "What a command loads" in the README)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def read_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each line of a UTF-8 text file.

    Lines end at ``\n`` only; a ``\r\n`` ending reads as ``\n``, and any
    other ``\r`` raises ``ValueError``, as do invalid UTF-8 and a byte
    order mark (U+FEFF) at the start of the file:
    ``"{path}: malformed {what} on line {n}: {why}"``. Each line is
    decoded on its own, so a decoding error's position is a byte offset
    inside that line.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: malformed {what} on line {lineno}: {exc}"
                ) from None
            if lineno == 1 and line.startswith("\ufeff"):
                raise ValueError(
                    f"{path}: malformed {what} on line 1: byte order mark (U+FEFF)"
                )
            if "\r" in line:
                if not line.endswith("\r\n") or "\r" in line[:-2]:
                    raise ValueError(
                        f"{path}: malformed {what} on line {lineno}: "
                        "carriage return not followed by a line feed"
                    )
                line = line[:-2] + "\n"
            yield lineno, line


def read_jsonl(path: str | Path, parse: Callable[[Any], T], what: str) -> Iterator[T]:
    """Parse each non-blank line of a JSON-lines file with ``parse``, one
    line at a time, as the iterator reaches it.

    A line that is not JSON, that escapes a lone surrogate (``\\ud800``
    with no low surrogate after it, or a low one with no high one before
    it), or that ``parse`` rejects with ``KeyError``, ``TypeError`` or
    ``ValueError``, raises ``ValueError`` with the message
    ``"{path}: malformed {what} on line {n}: {why}"``. So every string
    read is valid Unicode and encodes as UTF-8.
    """
    for lineno, raw in read_lines(path, what):
        if not raw.strip():
            continue
        try:
            value = json.loads(raw)
            # A surrogate left in a decoded string was escaped alone; a
            # pair was joined into one code point. Only lines that hold a
            # backslash (one memchr) and escape a surrogate are searched.
            if "\\" in raw and _SURROGATE_ESCAPE_RE.search(raw):
                lone = _SURROGATE_RE.search(json.dumps(value, ensure_ascii=False))
                if lone:
                    raise ValueError(f"lone surrogate \\u{ord(lone.group()):04x}")
            row = parse(value)
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
            raise ValueError(
                f"{path}: malformed {what} on line {lineno}: {exc}"
            ) from exc
        yield row


def field_of(record: Any, key: str, kind: type) -> Any:
    """``record[key]``, required to be a ``kind``; a bool is never a number."""
    value = record[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def finite_of(record: Any, key: str) -> float:
    """``record[key]``, required to be a finite int or float (not a bool)."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key!r} must be a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{key!r} is an integer beyond the float range") from None
    if not finite:
        raise ValueError(f"{key!r} must be finite, got {value}")
    return value


def strings_of(record: Any, key: str) -> tuple[str, ...]:
    """``record[key]``, required to be a list of strings."""
    value = field_of(record, key, list)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise TypeError(f"{key!r}[{i}] must be str, got {type(item).__name__}")
    return tuple(value)


def write_text(path: str | Path, chunks: Iterable[str]) -> str:
    """Write ``chunks`` to ``path`` atomically (UTF-8, ``\n`` newlines);
    returns the SHA-256 hex digest of the bytes written.

    The chunks go to a temp file beside ``path``, which replaces ``path``
    only once every chunk is written, so a failure part-way leaves the
    previous content (or no file) and no temp file behind. An error in
    opening or replacing names ``path``, never the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        handle = open(tmp, "wb")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    digest = hashlib.sha256()
    try:
        with handle:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                handle.write(data)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def write_jsonl(path: str | Path, rows: Iterable[object]) -> str:
    """Write one JSON object per line, atomically; returns the SHA-256."""
    return write_text(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
