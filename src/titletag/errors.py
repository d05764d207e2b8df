"""Shared exception types, and the text decoder and line reader that report bad bytes with them."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


class TitletagError(Exception):
    """Base class for errors raised by this package."""


class FormatError(TitletagError):
    """A file does not conform to its documented on-disk format."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


def decode_text(path, data: bytes) -> str:
    """UTF-8 text with universal newlines, as Path.read_text returns it.
    Bytes that are not UTF-8 raise FormatError naming the path and line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8 text: {exc.reason}", path=str(path), line=line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line without "\\n") pairs of a UTF-8 text file.

    After decode_text's newline translation only "\\n" ends a line, and a
    final newline starts no further line: the lines of a file opened in
    text mode.
    """
    lines = decode_text(path, Path(path).read_bytes()).split("\n")
    if not lines[-1]:
        lines.pop()
    return enumerate(lines, start=1)


def is_blank(line: str) -> bool:
    """Whether a line read by read_lines is blank: empty or
    whitespace only (str.isspace, so also "\\x0c" and "\\u2028"). Every
    reader treats a blank line as it treats an empty one."""
    return not line or line.isspace()


class TrainingDivergedError(TitletagError):
    """Training produced a non-finite loss."""
