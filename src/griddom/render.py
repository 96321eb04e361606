"""Rendering and serialization: ASCII, SVG, and the pattern JSON document."""

import json
from dataclasses import dataclass

from .construction import PatternSet, gamma_formula, MIN_SIDE
from .grid import GridDims, Vertex

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
    rows = [["."] * n for _ in range(m)]
    for r, c in p.black:
        rows[r - 1][c - 1] = "B"
    for r, c in p.white:
        rows[r - 1][c - 1] = "W"
    lines = ["".join(row) for row in rows]
    if rulers:
        width = len(str(m))
        header = " " * (width + 1) + "".join(str(c % 10) for c in range(1, n + 1))
        lines = [header] + [f"{r:>{width}} {line}" for r, line in enumerate(lines, 1)]
    return RenderedGrid(lines=tuple(lines), legend=dict(LEGEND))


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
    for r, c in p.black:
        cx, cy = (c - 0.5) * cell, (r - 0.5) * cell
        out.append(f'<circle cx="{cx:g}" cy="{cy:g}" r="{rad:g}" fill="black"/>')
    for r, c in p.white:
        x, y = (c - 0.5) * cell - side / 2, (r - 0.5) * cell - side / 2
        out.append(f'<rect x="{x:g}" y="{y:g}" width="{side:g}" height="{side:g}" '
                   'fill="white" stroke="black" stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def pattern_to_document(p: PatternSet) -> dict:
    """The interchange form: plain ints, row-major sorted coordinate lists."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "m": p.dims.m,
        "n": p.dims.n,
        "black": [[r, c] for r, c in sorted(p.black)],
        "white": [[r, c] for r, c in sorted(p.white)],
        "gamma": gamma_formula(p.dims) if min(p.dims.m, p.dims.n) >= MIN_SIDE else None,
        "deviations": list(p.deviations),
        "transposed": p.transposed,
    }
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


class DocumentError(ValueError):
    """Structurally invalid pattern document."""


def document_to_pattern(doc: dict) -> PatternSet:
    """Parse an interchange document back into a PatternSet.

    Provenance tags are constructor metadata and do not survive the round
    trip; coordinates, dims, applied deviation ids and the build orientation
    do. A missing "transposed" key reads as False; a present one must be a
    JSON boolean.
    """
    try:
        version = doc["schema_version"]
        m, n = int(doc["m"]), int(doc["n"])
        black = [Vertex(int(r), int(c)) for r, c in doc["black"]]
        white = [Vertex(int(r), int(c)) for r, c in doc["white"]]
        deviations = tuple(str(d) for d in doc.get("deviations", []))
        transposed = doc.get("transposed", False)
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed pattern document: {exc}") from exc
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r}")
    if not isinstance(transposed, bool):
        raise DocumentError(f"transposed must be true or false, got {transposed!r}")
    dims = GridDims(m, n)
    for v in black + white:
        if not dims.in_bounds(v):
            raise DocumentError(f"coordinate {tuple(v)} out of bounds for {m}x{n}")
    if set(black) & set(white):
        raise DocumentError("black and white lists overlap")
    return PatternSet(dims=dims, black=tuple(sorted(black)),
                      white=tuple(sorted(white)), deviations=deviations,
                      transposed=transposed)
