"""Rendering and serialization: ASCII, SVG, and the pattern JSON document."""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .construction import MIN_SIDE, PatternSet, _check_max_side, gamma_formula
from .grid import GridDims

# column step of a schema-2 run: the period of the disk lattice
RUN_STEP = 5
SVG_CELL = 16      # pixels per vertex side in SVG output
COLOURS = ("black", "white")
LEGEND = {"empty": ".", "black": "B", "white": "W"}


@dataclass(frozen=True)
class RenderedGrid:
    lines: tuple[str, ...]

    def __str__(self) -> str:
        return "\n".join(self.lines)


def render_ascii(p: PatternSet, rulers: bool = False) -> RenderedGrid:
    """One glyph per vertex: '.' empty, 'B' black disk, 'W' white square."""
    m, n = p.dims.m, p.dims.n
    canvas = np.full((m, n), ord(LEGEND["empty"]), dtype=np.uint8)
    for rc, glyph in ((p.black_rc, LEGEND["black"]), (p.white_rc, LEGEND["white"])):
        canvas[rc[:, 0] - 1, rc[:, 1] - 1] = ord(glyph)
    text = canvas.tobytes().decode("ascii")
    lines = [text[i:i + n] for i in range(0, m * n, n)]
    if rulers:
        width = len(str(m))
        header = " " * (width + 1) + "".join(str(c % 10) for c in range(1, n + 1))
        lines = [header] + [f"{r:>{width}} {line}" for r, line in enumerate(lines, 1)]
    return RenderedGrid(lines=tuple(lines))


def _decimal(hundredths: int) -> str:
    """Exact text of hundredths / 100 (>= 0), without trailing zeros."""
    whole, frac = divmod(hundredths, 100)
    return f"{whole}.{frac:02d}".rstrip("0") if frac else str(whole)


def _centres(count: int, cell: int, shift: int = 0) -> list[str]:
    """Exact text of the pixel coordinate (i - 0.5) * cell - shift / 100 for
    i in 1..count, with shift in hundredths of a pixel. Centres are a whole
    cell apart, so all of them have the first one's fractional digits."""
    whole, dot, frac = _decimal(50 * cell - shift).partition(".")
    first = int(whole)
    return [f"{first + cell * k}{dot}{frac}" for k in range(count)]


def _svg_pieces(p: PatternSet) -> list[str]:
    """The SVG text as a list of pieces, each line ending in its newline.
    A member's line is two shared pieces, its column's head and its row's
    tail, each formatted once per shape, so no per-member string is built."""
    m, n, cell = p.dims.m, p.dims.n, SVG_CELL
    wpx, hpx = n * cell, m * cell
    frame = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{wpx}" height="{hpx}" viewBox="0 0 {wpx} {hpx}">\n',
        f'<rect width="{wpx}" height="{hpx}" fill="white"/>\n',
    ]
    frame += [f'<line x1="0" y1="{i * cell}" x2="{wpx}" y2="{i * cell}" '
              'stroke="#ccc" stroke-width="1"/>\n' for i in range(m + 1)]
    frame += [f'<line x1="{j * cell}" y1="0" x2="{j * cell}" y2="{hpx}" '
              'stroke="#ccc" stroke-width="1"/>\n' for j in range(n + 1)]
    # radius 0.32 and square side 0.56 of a cell, in hundredths of a pixel
    rad, side = 32 * cell, 56 * cell
    shapes = (
        (p.black_rc, 0, '<circle cx="{}" cy="',
         f'{{}}" r="{_decimal(rad)}" fill="black"/>\n'),
        (p.white_rc, side // 2, '<rect x="{}" y="',
         f'{{}}" width="{_decimal(side)}" height="{_decimal(side)}" '
         'fill="white" stroke="black" stroke-width="1.5"/>\n'),
    )
    seq = np.empty(len(frame) + 2 * p.cardinality + 1, dtype=object)
    seq[:len(frame)] = frame
    at = len(frame)
    for rc, shift, head, tail in shapes:
        heads = np.array([head.format(x) for x in _centres(n, cell, shift)], dtype=object)
        tails = np.array([tail.format(y) for y in _centres(m, cell, shift)], dtype=object)
        end = at + 2 * len(rc)
        seq[at:end:2] = heads[rc[:, 1] - 1]
        seq[at + 1:end:2] = tails[rc[:, 0] - 1]
        at = end
    seq[at] = "</svg>\n"
    return seq.tolist()


def render_svg(p: PatternSet) -> str:
    """Static SVG 1.1: black circles for disks, outlined squares for whites."""
    # the object array behind the pieces is freed before the join, so the
    # transient is one list of references next to the output text
    return "".join(_svg_pieces(p))


def _document(p: PatternSet, version: int, lists) -> dict:
    """A document of p whose black and white entries are lists(rc)."""
    return {
        "schema_version": version,
        "m": p.dims.m,
        "n": p.dims.n,
        "black": lists(p.black_rc),
        "white": lists(p.white_rc),
        "gamma": gamma_formula(p.dims) if min(p.dims.m, p.dims.n) >= MIN_SIDE else None,
        "deviations": list(p.deviations),
    }


def pattern_to_document(p: PatternSet) -> dict:
    """The per-member editing form: a schema-1 document of plain ints with
    row-major sorted [row, col] lists. dumps_document writes it as schema 2."""
    return _document(p, 1, np.ndarray.tolist)


def _runs(rc: np.ndarray) -> list[list[int]]:
    """Row-major members as [row, first col, count] runs, each a maximal
    stretch of one row whose columns step by RUN_STEP."""
    starts = np.ones(len(rc), dtype=bool)
    starts[1:] = (rc[1:, 0] != rc[:-1, 0]) | (rc[1:, 1] - rc[:-1, 1] != RUN_STEP)
    first = np.flatnonzero(starts)
    return np.column_stack((rc[first], np.diff(first, append=len(rc)))).tolist()


def dumps_pattern(p: PatternSet) -> str:
    """Compact, key-sorted schema-2 JSON text with a trailing newline."""
    return json.dumps(_document(p, 2, _runs), sort_keys=True, separators=(",", ":")) + "\n"


def dumps_document(doc: dict) -> str:
    """The schema-2 text of a document of either schema. The document is
    parsed strictly first, so an invalid one raises DocumentError."""
    return dumps_pattern(document_to_pattern(doc))


class DocumentError(ValueError):
    """Structurally invalid pattern document."""


def _int_lists(doc: dict, key: str, what: str, width: int) -> np.ndarray:
    """A list of `what` lists of `width` exact integers each, as an int64
    (k, width) array."""
    items = doc.get(key)
    if type(items) is not list or not set(map(type, items)) <= {list}:
        raise DocumentError(f"{key} must be a list of {what}s")
    if not set(map(len, items)) <= {width}:
        raise DocumentError(f"every {key} {what} must have exactly {width} entries")
    flat = list(chain.from_iterable(items))
    if not set(map(type, flat)) <= {int}:
        bad = next(v for v in flat if type(v) is not int)
        raise DocumentError(f"{key} coordinates must be integers, got {bad!r}")
    try:
        return np.fromiter(flat, np.int64, len(flat)).reshape(-1, width)
    except OverflowError:
        raise DocumentError(f"{key} has a coordinate outside the 64-bit range") from None


def _run_members(doc: dict, dims: GridDims) -> list[np.ndarray]:
    """The black and white members of a schema-2 document as int32 (k, 2)
    arrays. Every run is checked against the grid, and the member total
    against m*n, before any run is expanded."""
    runs = [_int_lists(doc, key, "[row, first_col, count] run", 3) for key in COLOURS]
    for key, rfc in zip(COLOURS, runs):
        row, first, count = rfc.T
        # a clause that wraps round in int64 sits beside one that is false
        inside = ((count >= 1) & (row >= 1) & (row <= dims.m) & (first >= 1)
                  & (count - 1 <= (dims.n - first) // RUN_STEP))
        if not inside.all():
            raise DocumentError(f"{key} run {rfc[inside.argmin()].tolist()} does "
                                f"not lie on the {dims.m}x{dims.n} grid")
    total = sum(int(rfc[:, 2].sum()) for rfc in runs)
    if total > dims.m * dims.n:
        raise DocumentError(f"the runs hold {total} members, more than the "
                            f"{dims.m * dims.n} cells of a {dims.m}x{dims.n} grid")
    members = []
    for row, first, count in (rfc.T for rfc in runs):
        within = np.arange(count.sum(), dtype=np.int64)
        within -= np.repeat(np.cumsum(count) - count, count)
        rc = np.empty((len(within), 2), dtype=np.int32)
        rc[:, 0] = np.repeat(row, count)
        rc[:, 1] = np.repeat(first, count) + RUN_STEP * within
        members.append(rc)
    return members


def document_dims(doc: dict) -> GridDims:
    """The grid a document claims, read as strictly as document_to_pattern
    reads it and before any member is read."""
    try:
        dims = GridDims(doc["m"], doc["n"])
        _check_max_side(dims)
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed pattern document: {exc}") from exc
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return dims


def document_to_pattern(doc: dict) -> PatternSet:
    """Parse a schema-1 or schema-2 document back into a PatternSet.

    Schema 1 lists each member as a [row, col] pair, schema 2 as part of a
    [row, first_col, count] run of columns first_col, first_col + 5, ...
    m, n and every list entry must be exact JSON integers (no floats, no
    booleans). Every run must lie on the grid and all runs together may hold
    at most m*n members; both are checked before any run is expanded.
    Duplicates, black/white overlap and out-of-bounds members are rejected.
    "gamma" and "deviations" are written for readers and never read: the
    pattern derives them from m and n. Other keys are ignored.
    """
    dims = document_dims(doc)
    version = doc.get("schema_version")
    if type(version) is not int or version not in (1, 2):
        raise DocumentError(f"unsupported schema_version {version!r}")
    if version == 1:
        black, white = (_int_lists(doc, key, "[row, col] pair", 2) for key in COLOURS)
    else:
        black, white = _run_members(doc, dims)
    try:
        return PatternSet(dims, black, white)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
