"""The file primitives every layer reads and writes through: line-numbered
reads of text and JSON-lines files typed by a table per format, the check
of a run's paths, and atomic writes. They live apart to keep ``corpus``
and ``cli`` small (see "What a command loads")."""

from __future__ import annotations

import json
import math
import os
import re
import stat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
Fields = Sequence[tuple[str, Any]]  # a format's table: see typed

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


def read_jsonl(
    path: str | Path, fields: Fields | None, make: Callable[..., T], what: str
) -> Iterator[T]:
    """``make(*typed(row, fields))`` of each non-blank line of a JSON-lines
    file, or ``make(row)`` when ``fields`` is None, one line at a time, as
    the iterator reaches it. This is the one place that decodes JSON.

    A line that is not JSON, that nests too deeply to decode
    (``RecursionError``), that escapes a lone surrogate (``\\ud800``
    with no low surrogate after it, or a low one with no high one before
    it), or that ``typed`` or ``make`` rejects with ``TypeError`` or
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
            row = make(value) if fields is None else make(*typed(value, fields))
        except (TypeError, ValueError, RecursionError) as exc:  # JSONDecodeError too
            raise ValueError(
                f"{path}: malformed {what} on line {lineno}: {exc}"
            ) from exc
        yield row


def typed(row: Any, fields: Fields) -> list[Any]:
    """The values in ``row``, a JSON object, of a format's ``(key, kind)``
    pairs, in order. A kind is an exact JSON type (str, int, bool, dict),
    float (a finite number; an int stays an int), tuple (a list of strings,
    read as a tuple), object (any value), or ``(kind, default)`` for an
    optional key; the first value not of its kind raises ``TypeError`` or
    ``ValueError``. JSON decodes to exact types, so ``type(value) is kind``
    passes most values (``value - value`` is 0.0 only for a finite float)."""
    if type(row) is not dict:
        raise TypeError(f"expected a JSON object, got {type(row).__name__}")
    values = []
    for key, kind in fields:
        value = row.get(key)
        if type(value) is not kind or kind is float and value - value:
            value = _slow(row, key, kind)
        values.append(value)
    return values


def _slow(row: dict, key: str, kind: Any) -> Any:
    """``row[key]``, checked as ``typed`` checks it: an absent or optional
    key, a number that is an int or not finite, a list, any value, or an error."""
    if type(kind) is tuple:
        if key not in row:
            return kind[1]
        kind = kind[0]
    elif key not in row:
        raise ValueError(f"missing key {key!r}")
    value = row[key]
    if kind is float and type(value) in (int, float):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:
            raise ValueError(f"{key!r} is an integer beyond the float range") from None
        raise ValueError(f"{key!r} must be finite, got {value}")
    if kind is tuple and type(value) is list:
        for i, item in enumerate(value):
            if type(item) is not str:
                raise TypeError(f"{key!r}[{i}] must be str, got {type(item).__name__}")
        return tuple(value)
    if type(value) is kind or kind is object:
        return value
    name = {float: "a number", tuple: "list"}.get(kind, kind.__name__)
    raise TypeError(f"{key!r} must be {name}, got {type(value).__name__}")


def manifest_path(output: str) -> str:
    """The path of the manifest of a run whose first output is ``output``."""
    return f"{output}.manifest.json"


def checked_paths(
    inputs: Sequence[tuple[str, str]], outputs: Sequence[tuple[str, str]]
) -> None:
    """Check a run's ``(flag, path)`` inputs and outputs, for the
    manifest the CLI writes beside its first output, before anything is
    opened. No two outputs, nor the manifest, nor one of these and an
    input, may be one file (by resolved path), and no output nor the
    manifest may be a directory (a symlink is replaced, wherever it
    points). An input must be a regular file, which the manifest can hash
    again after the run; it is only ``stat``ed, so a FIFO is not opened.
    With no output set, there is no manifest, and nothing is checked."""
    if not outputs:
        return
    flags = {Path(path).resolve(): flag for flag, path in inputs}
    for flag, path in [*outputs, ("the manifest", manifest_path(outputs[0][1]))]:
        resolved = Path(path).resolve()
        if resolved in flags:
            raise ValueError(f"{path}: {flags[resolved]} and {flag} name the same file")
        flags[resolved] = flag
        if os.path.isdir(path) and not os.path.islink(path):
            raise ValueError(f"{path}: Is a directory")
    for _, path in inputs:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ValueError(
                f"{path}: not a regular file, so the manifest cannot record its digest"
            )


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` atomically (UTF-8, ``\n`` newlines).

    The chunks go to a temp file beside ``path``, which replaces ``path``
    only once every chunk is written, so a failure part-way leaves the
    previous content (or no file) and no temp file behind. An error in
    opening, writing, closing or replacing the temp file names ``path``,
    never the temp file; an error that ``chunks`` raises is left as it is.
    Nothing is hashed here: the CLI hashes each output from disk once its
    run's handler returns.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")

    def named(call: Callable[..., T], *args: Any) -> T:
        try:
            return call(*args)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None

    handle = named(open, tmp, "wb")
    try:
        try:
            for chunk in chunks:
                named(handle.write, chunk.encode("utf-8"))
        finally:
            named(handle.close)
        named(os.replace, tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[object]) -> None:
    """Write one JSON object per line, atomically."""
    write_text(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
