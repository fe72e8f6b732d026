"""Plain-text formats for schemes and groups.

Scheme files: an optional "# name: tag" comment, a header line
"n_points rank", then n rows of n space-separated relation labels.
'#' starts a comment anywhere.  The diagonal label is remapped to 0
when it is not already (with a warning); any other gap in the label
range is an error.  render_scheme defines the canonical form, and
render(parse(text)) == text holds for canonical files.

Group files are the same idea with a single-number header: "n", then
the n x n multiplication table (row x, column g giving x g).

Both formats share one reader, _read (comments, the name line and the
header's integers), and one writer, _write; each parser checks only its
own header.
"""
from __future__ import annotations

import warnings

from .errors import FormatSyntaxError, LabelGapError, NotSquareError
from .scheme import AssociationScheme, Matrix, validate_scheme

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


def _int_row(line_no: int, body: str) -> list[int]:
    try:
        return list(map(int, body.split()))
    except ValueError:
        raise FormatSyntaxError(line_no, f"expected integers, got {body!r}") from None


def _square_body(rows: list[tuple[int, str]], n: int, what: str) -> Matrix:
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
        out.append(tuple(row))
    return tuple(out)


def _read(text: str, name: str, what: str) -> tuple[str, int, str, list[int], list[tuple[int, str]]]:
    """Strip comments; the first '# name:' line wins over name.  Return the
    name, the header's line number, text and integers, and the body's
    (line_no, text) pairs."""
    tagged = ""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith(_NAME_PREFIX) and not tagged:
            tagged = raw[len(_NAME_PREFIX):].strip()
            continue
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((i, body))
    if not lines:
        raise FormatSyntaxError(0, f"empty {what} file")
    line_no, header = lines[0]
    return tagged or name, line_no, header, _int_row(line_no, header), lines[1:]


def _write(name: str, header: str, rows: Matrix) -> str:
    """The optional name line, the header, then one line per row."""
    out = [f"{_NAME_PREFIX} {name}"] if name else []
    out.append(header)
    out.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(out) + "\n"


def parse_scheme(text: str, name: str = "") -> SchemeFile:
    name, line_no, header, head, body = _read(text, name, "scheme")
    if len(head) != 2:
        raise FormatSyntaxError(line_no, f"header must be 'n_points rank', got {header!r}")
    n, rank = head
    if n < 1 or rank < 1:
        raise FormatSyntaxError(line_no, f"header values must be positive, got {header!r}")

    matrix = _canonicalize_labels(_square_body(body, n, "matrix"), rank, name)
    return SchemeFile(name, n, rank, matrix)


def _canonicalize_labels(matrix: Matrix, rank: int, name: str) -> Matrix:
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
    # a diagonal already 0 is kept, and so is a mixed one: validate_scheme reports its cell
    if len(diag) != 1 or 0 in diag:
        return matrix
    (d,) = diag
    warnings.warn(
        f"scheme {name or '<unnamed>'}: diagonal label {d} remapped to 0",
        stacklevel=3,
    )
    swap = {d: 0, 0: d}
    return tuple(tuple(swap.get(v, v) for v in row) for row in matrix)


def render_scheme(obj: SchemeFile | AssociationScheme) -> str:
    matrix = obj.rel if isinstance(obj, AssociationScheme) else obj.matrix
    return _write(obj.name, f"{obj.n_points} {obj.rank}", matrix)


def parse_group(text: str, name: str = "") -> GroupFile:
    name, line_no, header, head, body = _read(text, name, "group")
    if len(head) != 1 or head[0] < 1:
        raise FormatSyntaxError(line_no, f"header must be the group order, got {header!r}")
    n = head[0]
    return GroupFile(name, n, _square_body(body, n, "table"))


def render_group(gf: GroupFile) -> str:
    return _write(gf.name, str(gf.order), gf.table)
