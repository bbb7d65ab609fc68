"""The four-field structured caption format and its parser.

A serialized caption is a single line of four labeled fields in fixed
order, separated by pipes:

    Scene: <setting> | Current: <behavior> | Next: <anticipated shift> | Why: <reason>

Labels are matched case-insensitively and surrounding whitespace is
trimmed, but the field order is fixed. The pipe and newline characters
are reserved by the format and may not appear inside a field value.
Parsing and serialization are exact inverses on valid data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import EmptyField, InvalidCharacter, MissingField, OrderViolation

__all__ = [
    "FIELD_LABELS",
    "StructuredCaption",
    "parse_caption",
    "serialize_caption",
]

#: Canonical field labels in their required order.
FIELD_LABELS = ("scene", "current", "next", "why")

_PART_RE = re.compile(r"^\s*([A-Za-z]+)\s*:(.*)$", re.DOTALL)


@dataclass(frozen=True)
class StructuredCaption:
    """One caption with its four trimmed, non-empty fields."""

    scene: str
    current: str
    next: str
    why: str

    def __post_init__(self):
        for f in fields(self):
            raw = getattr(self, f.name)
            if not isinstance(raw, str):
                raise TypeError(f"{f.name} must be a string")
            value = raw.strip()
            if "\n" in value or "\r" in value:
                raise InvalidCharacter(f"{f.name} must not contain newlines")
            if "|" in value:
                raise InvalidCharacter(f"{f.name} must not contain '|'")
            if not value:
                raise EmptyField(f"{f.name} is empty")
            object.__setattr__(self, f.name, value)


def parse_caption(text: str) -> StructuredCaption:
    """Parse a serialized caption, raising a CaptionError subclass on failure.

    Raises MissingField when a labeled field is absent, OrderViolation
    when all fields are present but out of order (or duplicated), then
    the first bad field's InvalidCharacter (a newline) or EmptyField (no
    content after trimming). Parsing never partially succeeds.
    """
    labels: list[str | None] = []
    values: list[str] = []
    for part in text.split("|"):
        m = _PART_RE.match(part)
        if m and m.group(1).lower() in FIELD_LABELS:
            labels.append(m.group(1).lower())
            values.append(m.group(2).strip())
        else:
            labels.append(None)
            values.append(part.strip())
    for want in FIELD_LABELS:
        if want not in labels:
            raise MissingField(f"missing field: {want}")
    if tuple(labels) != FIELD_LABELS:
        raise OrderViolation(f"fields must appear in order {', '.join(FIELD_LABELS)}")
    return StructuredCaption(*values)


def serialize_caption(caption: StructuredCaption) -> str:
    """Render a caption in canonical form: 'Label: value' joined by ' | '."""
    return (
        f"Scene: {caption.scene} | Current: {caption.current}"
        f" | Next: {caption.next} | Why: {caption.why}"
    )
