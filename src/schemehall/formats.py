"""Plain-text formats for schemes and groups.

Scheme files: an optional "# name: tag" comment, a header line
"n_points rank", then n rows of n space-separated relation labels.
'#' starts a comment anywhere.  The diagonal label is remapped to 0
when it is not already (with a warning); any other gap in the label
range is an error.  render_scheme defines the canonical form, and
render(parse(text)) == text holds for canonical files.

Group files are the same idea with a single-number header: "n", then
the n x n multiplication table (row x, column g giving x g).
"""
from __future__ import annotations

import warnings

from .errors import FormatSyntaxError, LabelGapError, NotSquareError
from .scheme import AssociationScheme, validate_scheme

__all__ = [
    "SchemeFile",
    "GroupFile",
    "parse_scheme",
    "render_scheme",
    "parse_group",
    "render_group",
]

_NAME_PREFIX = "# name:"


class SchemeFile:
    """Parsed scheme data, not yet checked against the axioms."""

    __slots__ = ("name", "n_points", "rank", "matrix")

    def __init__(self, name: str, n_points: int, rank: int, matrix: tuple[tuple[int, ...], ...]):
        self.name = name
        self.n_points = n_points
        self.rank = rank
        self.matrix = matrix

    def scheme(self) -> AssociationScheme:
        return validate_scheme(self.matrix, name=self.name)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<SchemeFile{tag} {self.n_points} points, rank {self.rank}>"


class GroupFile:
    __slots__ = ("name", "order", "table")

    def __init__(self, name: str, order: int, table: tuple[tuple[int, ...], ...]):
        self.name = name
        self.order = order
        self.table = table

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<GroupFile{tag} order {self.order}>"


def _content_lines(text: str) -> tuple[str, list[tuple[int, str]]]:
    """Strip comments; return the declared name and (line_no, body) pairs."""
    name = ""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith(_NAME_PREFIX) and not name:
            name = raw[len(_NAME_PREFIX):].strip()
            continue
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((i, body))
    return name, out


def _int_row(line_no: int, body: str) -> list[int]:
    try:
        return list(map(int, body.split()))
    except ValueError:
        raise FormatSyntaxError(line_no, f"expected integers, got {body!r}") from None


def _square_body(rows: list[tuple[int, str]], n: int, what: str) -> list[list[int]]:
    """The n body rows of n integers each, after the header."""
    if len(rows) != n:
        raise NotSquareError(f"expected {n} {what} rows, found {len(rows)}")
    out = []
    for line_no, body in rows:
        row = _int_row(line_no, body)
        if len(row) != n:
            raise NotSquareError(
                f"line {line_no}: row has {len(row)} entries, expected {n}"
            )
        out.append(row)
    return out


def parse_scheme(text: str, name: str = "") -> SchemeFile:
    tagged, lines = _content_lines(text)
    if tagged:
        name = tagged
    if not lines:
        raise FormatSyntaxError(0, "empty scheme file")

    line_no, header = lines[0]
    head = _int_row(line_no, header)
    if len(head) != 2:
        raise FormatSyntaxError(line_no, f"header must be 'n_points rank', got {header!r}")
    n, rank = head
    if n < 1 or rank < 1:
        raise FormatSyntaxError(line_no, f"header values must be positive, got {header!r}")

    matrix = _canonicalize_labels(_square_body(lines[1:], n, "matrix"), rank, name)
    return SchemeFile(name, n, rank, tuple(tuple(r) for r in matrix))


def _canonicalize_labels(matrix: list[list[int]], rank: int, name: str) -> list[list[int]]:
    labels = sorted({v for row in matrix for v in row})
    if len(labels) != rank:
        raise LabelGapError(
            f"header declares rank {rank} but body uses {len(labels)} labels"
        )
    if labels != list(range(rank)):
        raise LabelGapError(
            f"labels must be 0..{rank - 1}, got {labels}"
        )
    diag = {matrix[x][x] for x in range(len(matrix))}
    if len(diag) != 1:
        # leave it; validate_scheme reports the precise cell
        return matrix
    d = diag.pop()
    if d == 0:
        return matrix
    warnings.warn(
        f"scheme {name or '<unnamed>'}: diagonal label {d} remapped to 0",
        stacklevel=3,
    )
    swap = {d: 0, 0: d}
    return [[swap.get(v, v) for v in row] for row in matrix]


def render_scheme(obj: SchemeFile | AssociationScheme) -> str:
    if isinstance(obj, AssociationScheme):
        name, n, rank, matrix = obj.name, obj.n_points, obj.rank, obj.rel
    else:
        name, n, rank, matrix = obj.name, obj.n_points, obj.rank, obj.matrix
    out = []
    if name:
        out.append(f"{_NAME_PREFIX} {name}")
    out.append(f"{n} {rank}")
    for row in matrix:
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def parse_group(text: str, name: str = "") -> GroupFile:
    tagged, lines = _content_lines(text)
    if tagged:
        name = tagged
    if not lines:
        raise FormatSyntaxError(0, "empty group file")
    line_no, header = lines[0]
    head = _int_row(line_no, header)
    if len(head) != 1 or head[0] < 1:
        raise FormatSyntaxError(line_no, f"header must be the group order, got {header!r}")
    n = head[0]
    table = _square_body(lines[1:], n, "table")
    return GroupFile(name, n, tuple(tuple(r) for r in table))


def render_group(gf: GroupFile) -> str:
    out = []
    if gf.name:
        out.append(f"{_NAME_PREFIX} {gf.name}")
    out.append(str(gf.order))
    for row in gf.table:
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"
