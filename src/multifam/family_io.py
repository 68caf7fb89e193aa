"""Text format for family files.

Line 1 is a header ``m=<int> k=<int> kind=<set|multiset>``.  Every further
non-empty line that does not start with ``#`` is one member, written as k
space-separated integers: non-decreasing for multisets, strictly increasing
for sets.  Duplicate member lines are a parse error.  parse(emit(F)) == F.
"""

from __future__ import annotations

import re
from pathlib import Path

from .core import MULTISET, Family, KSet, Multiset

_HEADER_RE = re.compile(r"^m=(\d+) k=(\d+) kind=(set|multiset)$")


class ParseError(ValueError):
    """Malformed family file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def emit_family(fam: Family) -> str:
    lines = [f"m={fam.m} k={fam.k} kind={fam.kind}"]
    for member in fam.members:
        if fam.kind == MULTISET:
            lines.append(" ".join(str(x) for x in member.elements()))
        else:
            lines.append(" ".join(str(x) for x in member.members))
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> Family:
    lines = text.splitlines()
    header_no = None
    m = k = 0
    kind = ""
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _HEADER_RE.match(line)
        if not match:
            raise ParseError(no, f"expected header 'm=<int> k=<int> kind=<set|multiset>', got {line!r}")
        m, k, kind = int(match.group(1)), int(match.group(2)), match.group(3)
        header_no = no
        break
    if header_no is None:
        raise ParseError(1, "empty file: missing header line")
    if m < 1:
        raise ParseError(header_no, f"ground size must be >= 1, got {m}")

    members: list = []
    seen: set[tuple[int, ...]] = set()
    for no, raw in enumerate(lines, start=1):
        if no <= header_no:
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(no, f"non-integer member entry in {line!r}") from None
        if len(values) != k:
            raise ParseError(no, f"member has {len(values)} entries, expected k={k}")
        if any(not 1 <= x <= m for x in values):
            raise ParseError(no, f"member element outside [1, {m}]: {line!r}")
        if kind == MULTISET:
            if any(a > b for a, b in zip(values, values[1:])):
                raise ParseError(no, f"multiset member must be non-decreasing: {line!r}")
        else:
            if any(a >= b for a, b in zip(values, values[1:])):
                raise ParseError(no, f"set member must be strictly increasing: {line!r}")
        if values in seen:
            raise ParseError(no, f"duplicate member: {line!r}")
        seen.add(values)
        if kind == MULTISET:
            members.append(Multiset.from_elements(m, values))
        else:
            members.append(KSet(m, values))

    if kind == MULTISET:
        return Family.of_multisets(m, k, members)
    return Family.of_sets(m, k, members)


def load_family(path: str | Path) -> Family:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(data.count(b"\n", 0, err.start) + 1, "not UTF-8 text") from None
    return parse_family(text)


def save_family(fam: Family, path: str | Path) -> None:
    Path(path).write_text(emit_family(fam))
