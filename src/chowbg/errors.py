"""Exceptions shared across the package, and how their messages quote input."""

from __future__ import annotations


def echo(text: str, show=str) -> str:
    """``show(text)``, or for a text of more than 40 characters its first 20
    and its length, so a refusal of a long number or argument stays short."""
    return show(text) if len(text) <= 40 else f"{show(text[:20])}... ({len(text)} characters)"


class GroupParseError(ValueError):
    """Syntax or arity error in a group expression; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class FieldParseError(ValueError):
    """Unrecognized base-field descriptor string."""


class GradingError(ValueError):
    """Grading-mode mismatch, or a degree outside the authoritative window."""


class UnsupportedError(Exception):
    """The requested value is outside the range this catalog can certify.

    Raised instead of guessing whenever a table or presentation is not an
    established exact result; the message names the blocking limitation.
    """
