"""Output checks that do not depend on griddom's own verifier.

Every constructed pattern and every oracle witness is recounted here with a
few lines of numpy, so a verifier bug cannot hide a constructor bug (or the
reverse). None of this runs inside a timed region.
"""

import numpy as np

# Exact optima for every (variant, width, length) the oracle-dp workload can
# draw, plus the small grids solved by brute force during warm-up. Values
# were computed with the profile DP; gamma(12x12) = 35 and gamma(13x13) = 40
# are the published grid domination numbers, and the small entries are
# re-derived by exhaustive search on every run.
ORACLE_PINS = {
    ("domination", 11): (29, 32, 35, 37, 40),
    ("domination", 12): (35, 38, 40, 43, 46),
    ("domination", 13): (40, 44, 47, 49, 53),
    ("one-two", 9): (20, 22, 24, 26, 29),
    ("one-two", 10): (24, 27, 29, 31, 34),
}
SMALL_PINS = {
    ("domination", 4, 4): 4, ("domination", 3, 5): 4,
    ("one-two", 4, 4): 4, ("one-two", 3, 5): 4,
}
KNOWN_GAMMA = {(12, 12): 35, (13, 13): 40}


def pinned_value(variant: str, width: int, length: int) -> int:
    if (variant, width, length) in SMALL_PINS:
        return SMALL_PINS[variant, width, length]
    return ORACLE_PINS[variant, width][length - width]


def gamma_closed_form(m: int, n: int) -> int:
    """floor((m+2)(n+2)/5) - 4, the domination number for m, n >= 16."""
    return (m + 2) * (n + 2) // 5 - 4


def coverage(m: int, n: int, members) -> tuple[np.ndarray, np.ndarray, int]:
    """(member mask, closed-neighbourhood member count, listed member count).

    members holds 1-based (row, col) pairs; out-of-range pairs raise.
    """
    rc = np.asarray(members, dtype=np.int64).reshape(-1, 2)
    rows, cols = rc[:, 0], rc[:, 1]
    if len(rc) and (rows.min() < 1 or rows.max() > m or cols.min() < 1 or cols.max() > n):
        raise ValueError(f"member out of bounds for {m}x{n}")
    pad = np.zeros((m + 2, n + 2), dtype=np.int8)
    pad[rows, cols] = 1
    inner = pad[1:-1, 1:-1]
    closed = inner + pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:]
    return inner.astype(bool), closed, len(rc)


def set_properties(m: int, n: int, members) -> dict:
    """Domination, [1,2] property and size of a member list, counted here."""
    mask, closed, listed = coverage(m, n, members)
    size = int(mask.sum())
    outside = closed[~mask]
    return {
        "distinct": size == listed,
        "size": size,
        "dominating": bool((closed >= 1).all()),
        "one_two": bool(((outside >= 1) & (outside <= 2)).all()),
        "closed": closed,
    }


def undominated_near(closed: np.ndarray, dropped) -> int:
    """Undominated cells within the closed neighbourhoods of the dropped
    members, from the coverage count of the remaining set."""
    m, n = closed.shape
    cells = {(r + dr, c + dc) for r, c in dropped
             for dr, dc in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))}
    return sum(1 for r, c in cells
               if 1 <= r <= m and 1 <= c <= n and closed[r - 1, c - 1] == 0)
