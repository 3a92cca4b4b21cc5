"""The one line rule of the text formats the package reads (jobs, catalog)."""

from __future__ import annotations


def split_lines(text: str) -> list[str]:
    """The lines of ``text`` as a file read in text mode ends them: at a
    newline, a carriage return or both. Other characters that
    ``str.splitlines`` breaks at (form feed, vertical tab, U+2028, ...) stay
    inside a line, where the parsers take them as whitespace."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
