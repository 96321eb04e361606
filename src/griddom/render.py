"""Rendering and serialization: ASCII, SVG, and the pattern JSON document."""

import json
from dataclasses import dataclass
from itertools import chain
from operator import add

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


def _centres(count: int, cell: int, shift: float = 0.0) -> list[str]:
    """Formatted pixel coordinate (i - 0.5) * cell - shift for i in 0..count."""
    return [f"{(i - 0.5) * cell - shift:g}" for i in range(count + 1)]


def render_svg(p: PatternSet, cell: int = 16) -> str:
    """Static SVG 1.1: black circles for disks, outlined squares for whites."""
    m, n = p.dims.m, p.dims.n
    wpx, hpx = n * cell, m * cell
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{wpx}" height="{hpx}" viewBox="0 0 {wpx} {hpx}">',
        f'<rect width="{wpx}" height="{hpx}" fill="white"/>',
    ]
    for i in range(m + 1):
        y = i * cell
        out.append(f'<line x1="0" y1="{y}" x2="{wpx}" y2="{y}" '
                   'stroke="#ccc" stroke-width="1"/>')
    for j in range(n + 1):
        x = j * cell
        out.append(f'<line x1="{x}" y1="0" x2="{x}" y2="{hpx}" '
                   'stroke="#ccc" stroke-width="1"/>')
    rad = cell * 0.32
    side = cell * 0.56
    # each element is a per-column head plus a per-row tail, both formatted
    # once, joined member by member with C-level map over the plain columns
    shapes = (
        (p.black_rc, 0.0, '<circle cx="{}" cy="', f'{{}}" r="{rad:g}" fill="black"/>'),
        (p.white_rc, side / 2, '<rect x="{}" y="',
         f'{{}}" width="{side:g}" height="{side:g}" '
         'fill="white" stroke="black" stroke-width="1.5"/>'),
    )
    for rc, shift, head, tail in shapes:
        heads = [head.format(x) for x in _centres(n, cell, shift)]
        tails = [tail.format(y) for y in _centres(m, cell, shift)]
        out.extend(map(add, map(heads.__getitem__, rc[:, 1].tolist()),
                       map(tails.__getitem__, rc[:, 0].tolist())))
    out.append("</svg>")
    return "\n".join(out) + "\n"


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
    booleans) and every coordinate entry a [row, col] pair; duplicates,
    black/white overlap and out-of-bounds members are rejected. Provenance
    tags are views of the positions; coordinates, dims, applied deviation ids
    and the build orientation survive the round trip. A missing "transposed"
    key reads as False; a present one must be a JSON boolean.
    """
    try:
        version = doc["schema_version"]
        m, n = _exact_int(doc, "m"), _exact_int(doc, "n")
        black, white = _pairs(doc, "black"), _pairs(doc, "white")
        deviations = tuple(str(d) for d in doc.get("deviations", []))
        transposed = doc.get("transposed", False)
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed pattern document: {exc}") from exc
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r}")
    if not isinstance(transposed, bool):
        raise DocumentError(f"transposed must be true or false, got {transposed!r}")
    try:
        return PatternSet(GridDims(m, n), black, white, deviations, transposed)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
