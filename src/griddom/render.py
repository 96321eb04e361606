"""Rendering and serialization: ASCII, SVG, and the pattern JSON document."""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .construction import PatternSet, gamma_formula, MIN_SIDE
from .grid import GridDims

SCHEMA_VERSION = 1
LEGEND = {"empty": ".", "black": "B", "white": "W"}


@dataclass(frozen=True)
class RenderedGrid:
    lines: tuple[str, ...]
    legend: dict[str, str]

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
    return RenderedGrid(lines=tuple(lines), legend=dict(LEGEND))


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


def _svg_pieces(p: PatternSet, cell: int) -> list[str]:
    """The SVG text as a list of pieces, each line ending in its newline.
    A member's line is two shared pieces, its column's head and its row's
    tail, each formatted once per shape, so no per-member string is built."""
    m, n = p.dims.m, p.dims.n
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


def render_svg(p: PatternSet, cell: int = 16) -> str:
    """Static SVG 1.1: black circles for disks, outlined squares for whites."""
    # the object array behind the pieces is freed before the join, so the
    # transient is one list of references next to the output text
    return "".join(_svg_pieces(p, cell))


def pattern_to_document(p: PatternSet) -> dict:
    """The interchange form: plain ints, row-major sorted coordinate lists."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "m": p.dims.m,
        "n": p.dims.n,
        "black": p.black_rc.tolist(),
        "white": p.white_rc.tolist(),
        "gamma": gamma_formula(p.dims) if min(p.dims.m, p.dims.n) >= MIN_SIDE else None,
        "deviations": list(p.deviations),
        "transposed": p.transposed,
    }
    return doc


def dumps_document(doc: dict) -> str:
    """Compact, key-sorted JSON text with a trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class DocumentError(ValueError):
    """Structurally invalid pattern document."""


def _exact_int(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int:
        raise DocumentError(f"{key} must be an integer, got {value!r}")
    return value


def _pairs(doc: dict, key: str) -> np.ndarray:
    """A coordinate list as an int64 (k, 2) array; every entry must be a
    [row, col] list of two exact integers."""
    pairs = doc[key]
    if type(pairs) is not list or not set(map(type, pairs)) <= {list}:
        raise DocumentError(f"{key} must be a list of [row, col] pairs")
    if not set(map(len, pairs)) <= {2}:
        raise DocumentError(f"every {key} pair must have exactly 2 entries")
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int}:
        bad = next(v for v in flat if type(v) is not int)
        raise DocumentError(f"{key} coordinates must be integers, got {bad!r}")
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise DocumentError(f"{key} has a coordinate outside the 64-bit range") from None


def document_to_pattern(doc: dict) -> PatternSet:
    """Parse an interchange document back into a PatternSet.

    m, n and every coordinate must be exact JSON integers (no floats, no
    booleans), every coordinate entry a [row, col] pair and "deviations", if
    present, a list of strings; duplicates,
    black/white overlap and out-of-bounds members are rejected. Provenance
    tags are views of the positions; coordinates, dims, applied deviation ids
    and the build orientation survive the round trip. A missing "transposed"
    key reads as False; a present one must be a JSON boolean.
    """
    try:
        version = doc["schema_version"]
        m, n = _exact_int(doc, "m"), _exact_int(doc, "n")
        black, white = _pairs(doc, "black"), _pairs(doc, "white")
        deviations = doc.get("deviations", [])
        transposed = doc.get("transposed", False)
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed pattern document: {exc}") from exc
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r}")
    if type(deviations) is not list or not set(map(type, deviations)) <= {str}:
        raise DocumentError(f"deviations must be a list of id strings, got {deviations!r}")
    if not isinstance(transposed, bool):
        raise DocumentError(f"transposed must be true or false, got {transposed!r}")
    try:
        return PatternSet(GridDims(m, n), black, white, tuple(deviations), transposed)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
