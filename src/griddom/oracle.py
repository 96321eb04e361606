"""Independent exact solvers for the domination numbers of small grids.

Two methods, kept deliberately separate from the constructor so they can act
as oracles for it:

  * exhaustive search over vertex subsets (grids up to 20 cells), returning
    the lexicographically least minimum witness;
  * a broken-profile dynamic program sweeping along the longer dimension,
    one cell at a time, over a frontier of width w = min(m, n) whose states
    are base-3 (domination) or base-4 ([1,2]-domination) codes.

Both variants share one vectorised transition rule and differ only in two
digit tables (`_RULES`, above which the frontier digits are described): a
digit after one more member neighbor, and a new non-member's digit by its
member neighbors so far. A cell leaves the frontier when its right neighbor
is decided, at which point it must not be uncovered.

A search from the initial state finds the codes that can enter each row
offset r (a small fraction of the 3**w or 4**w dense codes) and inverts the
successor map into predecessor tables: preds[k][j] is the k-th predecessor
of reachable state j. States are ordered by predecessor count, so preds[k]
is a prefix and holds no padding. The search and the table build both
locate a code by binary search over sorted reachable codes, so no array has
an entry per dense code. An index is uint16 where its row has at most 2**16
states (domination w <= 12, [1,2] w <= 10), int32 beyond. The tables depend
only on (variant, w), so they are built once and kept, read-only, in a cache
bounded by TABLE_CACHE_BYTES. Each cell step is then a gather-min over at
most five (domination) or three ([1,2]) such rows, plus 1 on the states
whose new digit r is 0, i.e. where a member is placed. Back-pointers are the
k of the chosen predecessor, logged per cell only for the states with a
choice, the prefix preds[1]; a state past it has one predecessor, k = 0. A
k is a digit in base K, the width's largest predecessor count (5 for
domination, 3 for [1,2]), and one byte holds the digits of D consecutive
columns, the most with K**D <= 256 (3 and 5 columns). The log is always
kept: it is about 14% of the work at most, so at every length DP_WORK_CAP
admits it is under 152 MB (151.3 MB at domination 16 x 37).

Every solve of width w sweeps at least w columns from the same start state,
so the first w columns are swept once, when the tables are built, and
cached with their values and log; a solve sweeps only the columns past
them. Each sweep's log is packed from its own first column, and a witness
is read back through the sweeps' logs in reverse.

A solve is admitted or refused before any search, on its work: the
reachable-state total committed for its width in REACHABLE_STATES, times
its length, against DP_WORK_CAP. That table lists only the widths whose own
square DP_WORK_CAP admits, so a wider width is refused at every length. A
cold table build checks its search's total against its entry, so the
tables depend on (variant, w) alone.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .grid import GridDims, Vertex

BRUTE_FORCE_CELL_CAP = 20
# largest m*n that exact_gamma_dp accepts: on thin strips its Python loops
# cost 20-40 us per cell whatever the state count (2x500000 took 40 s on a
# 2-vCPU VM), so a larger grid is refused rather than run for minutes
DP_CELL_CAP = 10**6
# largest work, reachable states x length, that exact_gamma_dp accepts (a
# 3-5 s sweep): it admits domination 16x16, [1,2] 14x14 and 12x1722, and
# is compared, before any search, with the work REACHABLE_STATES gives
DP_WORK_CAP = 2**30
# per variant, the reachable frontier states summed over the row offsets at
# each width 1, 2, ..., as _reachable_states finds them; a cold table build
# checks its search against its entry. It lists exactly the widths whose own
# square is within DP_WORK_CAP (at the next width, domination 17 and [1,2]
# 15, the search passed DP_WORK_CAP // w states), so a width past it is
# refused at every length. Every listed width keeps its B**w frontier codes
# within int32
REACHABLE_STATES = {
    "domination": (3, 15, 55, 178, 539, 1565, 4415, 12196, 33155, 89003,
                   236503, 623190, 1630587, 4240953, 10973375, 28266056),
    "one-two": (3, 19, 84, 326, 1184, 4123, 13946, 46185, 150510, 484318,
                1542606, 4872125, 15279590, 47631391),
}
# domination widths <= 13 and [1,2] widths <= 10 take 20.8 MB of tables and
# 6.7 MB of swept prefixes (the oracle-dp widths, domination 11-13 and [1,2]
# 9-10, 19.9 + 6.3 MB); one domination width-16 entry (306 MB) is never kept
TABLE_CACHE_BYTES = 64 * 2**20
VARIANTS = ("domination", "one-two")
_INF = np.int32(2**30)


class CapacityError(ValueError):
    """Requested instance exceeds the solver's stated capacity."""


@dataclass(frozen=True)
class OracleResult:
    """One exact solve. `work` counts subsets tried (brute force) or
    (reachable state, cell) pairs relaxed (profile DP) over the whole sweep,
    the cached prefix's columns included: the DP's is the figure compared
    with DP_WORK_CAP, after DP_CELL_CAP and any width cap, and before any
    search, its states read from REACHABLE_STATES. For the DP,
    `row_states[r]` is the number of reachable frontier codes entering row
    offset r, `states` its maximum, and `backpointer_bytes` the packed
    witness log's size over all length columns: ceil(length / D) bytes for
    each state with a choice (see exact_gamma_dp), of which the solve
    allocates ceil((length - w) / D) and the cached prefix holds the rest.
    They are (), 0 and 0 for brute force. Both methods always return a
    witness of `value` members."""

    dims: GridDims
    variant: str
    value: int
    witness: tuple[Vertex, ...]
    method: str
    work: int
    states: int = 0
    backpointer_bytes: int = 0
    row_states: tuple[int, ...] = ()


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

def exact_gamma_bruteforce(dims: GridDims, variant: str = "domination") -> OracleResult:
    """Minimum over all vertex subsets, smallest size first.

    Within one size, subsets are generated in lexicographic row-major order,
    so the first feasible one is the lexicographically least witness.
    """
    _check_variant(variant)
    m, n = dims.m, dims.n
    cells = m * n
    if cells > BRUTE_FORCE_CELL_CAP:
        raise CapacityError(
            f"{m}x{n} has {cells} > {BRUTE_FORCE_CELL_CAP} cells; "
            "use exact_gamma_dp instead"
        )
    def idx(r, c):
        return r * n + c
    open_masks = []
    for r in range(m):
        for c in range(n):
            mask = 0
            if r > 0: mask |= 1 << idx(r - 1, c)
            if r < m - 1: mask |= 1 << idx(r + 1, c)
            if c > 0: mask |= 1 << idx(r, c - 1)
            if c < n - 1: mask |= 1 << idx(r, c + 1)
            open_masks.append(mask)
    closed_masks = [om | (1 << i) for i, om in enumerate(open_masks)]
    full = (1 << cells) - 1
    work = 0
    for k in range(cells + 1):
        for combo in combinations(range(cells), k):
            work += 1
            dset = 0
            covered = 0
            for i in combo:
                dset |= 1 << i
                covered |= closed_masks[i]
            if covered != full:
                continue
            if variant == "one-two":
                ok = True
                rest = full & ~dset
                while rest:
                    i = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if not 1 <= (open_masks[i] & dset).bit_count() <= 2:
                        ok = False
                        break
                if not ok:
                    continue
            witness = tuple(Vertex(i // n + 1, i % n + 1) for i in combo)
            return OracleResult(dims=dims, variant=variant, value=k,
                                witness=witness, method="brute-force", work=work)
    raise AssertionError("the full vertex set is always feasible")


# ---------------------------------------------------------------------------
# Broken-profile dynamic program
# ---------------------------------------------------------------------------

# Frontier digits in base B = cover.size: 0 is a member, B - 1 a non-member
# not yet covered, and 1..B - 2 a non-member covered that many times
# (domination stops counting at 1). Per variant, two int32 digit tables, so
# that the codes stay int32: cover[d] is digit d after one more member
# neighbor, -1 where that move is pruned (a [1,2] non-member covered twice);
# fresh[k] is a new non-member's digit when it has k member neighbors so far.
_RULES = {
    "domination": (np.array((0, 1, 1), dtype=np.int32),
                   np.array((2, 1, 1), dtype=np.int32)),
    "one-two": (np.array((0, 2, -1, 1), dtype=np.int32),
                np.array((3, 1, 2), dtype=np.int32)),
}


def _successors(rule, codes: np.ndarray, r: int):
    """(place, no place) successors of frontier codes entering row r.

    The new cell's left neighbor (old digit r) leaves the frontier and its up
    neighbor (digit r - 1) stays. Placing a member covers both, and is
    pruned where either cannot be covered again; not placing is pruned where
    the left neighbor leaves uncovered. A pruned move maps to -1.
    """
    cover, fresh = rule
    base = cover.size
    pr = base ** r
    left = codes // pr % base
    cleared = codes - left * pr
    # np.take reads a digit table in about half the time of table[digits]
    pruned = np.take(cover < 0, left)
    members = (left == 0).astype(np.int8)
    place = cleared
    if r:
        pu = pr // base
        up = codes // pu % base
        covered = np.take(cover, up)
        pruned |= covered < 0
        members += up == 0
        place = cleared + (covered - up) * pu
        del up, covered     # freed first: no_place sets the build's peak
    place = np.where(pruned, -1, place)
    no_place = np.where(left == base - 1, -1,
                        cleared + np.take(fresh, members) * pr)
    return place, no_place


def _reachable_states(rule, width: int, init: int):
    """Sorted frontier codes that can enter each row offset r, in any column.

    Only newly found states are propagated, so the search stops at the first
    step that finds nothing new: every later step would start from nothing.
    A candidate is looked up among the states already found for its row
    offset by binary search, and the new ones are merged in, so each row's
    array stays sorted and no array has an entry per dense code. Its arrays
    hold about 16 B per state found.
    """
    # exact_gamma_dp admits only the widths REACHABLE_STATES lists, whose
    # B**width codes are all within int32
    found = [np.array([init], np.int32)] + [np.empty(0, np.int32)] * (width - 1)
    fresh, r = found[0], 0
    while fresh.size:
        nxt = (r + 1) % width
        cand = np.concatenate(_successors(rule, fresh, r))
        cand = np.sort(cand[cand >= 0])
        first = np.ones(cand.size, dtype=bool)   # first of a run of equal codes
        np.not_equal(cand[1:], cand[:-1], out=first[1:])
        fresh = cand[first]
        known = found[nxt]
        if known.size:
            at = np.searchsorted(known, fresh)
            fresh = fresh[known.take(at, mode="clip") != fresh]
        # a stable sort of two sorted runs is a merge
        found[nxt] = np.sort(np.concatenate((known, fresh)), kind="stable")
        r = nxt
    return found


def _index_type(size: int):
    """Index dtype of a table row over `size` states: uint16 while it fits."""
    return np.uint16 if size <= 1 << 16 else np.int32


def _predecessor_tables(rule, states, width: int):
    """Per row offset r: (preds, place) over the states leaving row r.

    Those states are put in table order: most predecessors first, ties by
    code. preds[k][j] is the table-order index, among the states entering
    row r, of the k-th predecessor of state j; preds[k] covers only the
    states with more than k predecessors, a prefix of the table order, so no
    entry is padding. The indices are uint16 where the states entering row
    r number at most 2**16, int32 otherwise. place[j] is true where the new
    digit r is 0, i.e. the cell becomes a member. Also returns the codes
    entering row 0 in table order.

    A successor code is found among the sorted states entering row r + 1 by
    binary search, so no array has an entry per dense code, and each
    states[r] but the first is released once its tables are built.
    """
    base = rule[0].size
    tables = []
    rank = None                   # sorted index -> table index, states[r]
    for r in range(width):
        src, dst = states[r], states[(r + 1) % width]
        if r:
            states[r] = None
        targets = np.concatenate(_successors(rule, src, r))
        ok = targets >= 0
        targets = targets[ok]
        index = _index_type(src.size)
        sources = np.tile(np.arange(src.size, dtype=index), 2)[ok]
        del ok
        if r:
            sources = rank[sources]
        targets = np.searchsorted(dst, targets)
        counts = np.bincount(targets, minlength=dst.size)
        order = np.argsort(-counts, kind="stable")
        rank = np.empty(dst.size, dtype=_index_type(dst.size))
        rank[order] = np.arange(dst.size, dtype=rank.dtype)
        # group the sources by target in table order; within a group they
        # keep their order, and the i-th of each group is a k = i predecessor
        targets = rank[targets]
        sources = sources[np.argsort(targets, kind="stable")]
        del targets
        counts = counts[order]
        starts = np.cumsum(counts) - counts
        preds = [sources[starts[:np.count_nonzero(counts > i)] + i]
                 for i in range(counts[0])]
        tables.append((preds, dst[order] // base ** r % base == 0))
    for p in tables[0][0]:        # row 0's sources get their order last
        p[:] = rank[p]
    return tables, states[0][order]


_table_cache: OrderedDict = OrderedDict()  # (variant, width) -> (entry, bytes)
_table_cache_lock = threading.Lock()


def _log_layout(tables):
    """(choices, radix, per_byte) of the witness log over `tables`: the
    choices[r] states entering row offset r with more than one predecessor
    (the prefix preds[1]) log a k, a k is a base-radix digit, radix the
    largest predecessor count, and one byte holds per_byte columns' digits."""
    choices = [preds[1].size if len(preds) > 1 else 0 for preds, _ in tables]
    radix = max(2, *(len(preds) for preds, _ in tables))
    per_byte = max(d for d in range(1, 9) if radix ** d <= 256)
    return choices, radix, per_byte


def _sweep(tables, start, columns: int):
    """Relax `columns` columns from `start`, the values of the states
    entering row 0, and return (the values of those states after them,
    logs). logs[r] is a (ceil(columns / per_byte), choices[r]) byte array
    whose byte col // per_byte holds, as digit col % per_byte, the k of row
    offset r in this sweep's column col."""
    choices, radix, per_byte = _log_layout(tables)
    logs = [np.zeros((-(-columns // per_byte), c), dtype=np.uint8)
            for c in choices]
    digits = np.empty(max(choices), dtype=np.uint8)
    top = max(place.size for _, place in tables)
    values = np.full(top, _INF, dtype=np.int32)
    values[:start.size] = start
    spare = np.empty(top, dtype=np.int32)
    gathered = np.empty(top, dtype=np.int32)
    better = np.empty(top, dtype=np.uint8)
    for col in range(columns):
        byte, digit = divmod(col, per_byte)
        for r, (preds, place) in enumerate(tables):
            out = spare[:place.size]
            head = preds[0].size
            # every index is in range; "clip" skips the buffered bounds check
            np.take(values, preds[0], out=out[:head], mode="clip")
            out[head:] = _INF       # the start state may have no predecessor
            # a byte's first column is written into the log in place, a
            # later one is scaled to its digit and added
            bp = logs[r][byte] if digit == 0 else digits[:logs[r].shape[1]]
            for k in range(1, len(preds)):
                n = preds[k].size
                cur, cand, less = out[:n], gathered[:n], better[:n]
                np.take(values, preds[k], out=cand, mode="clip")
                if k == 1:                  # preds[1] spans all of bp
                    np.less(cand, cur, out=bp)
                else:
                    # k rises, so the max keeps the last strictly better k:
                    # the argmin, ties to the lowest k (a masked copy is
                    # several times slower when many entries improve)
                    np.less(cand, cur, out=less)
                    np.maximum(bp[:n], np.multiply(less, k, out=less), out=bp[:n])
                np.minimum(cur, cand, out=cur)
            if digit:
                np.multiply(bp, radix ** digit, out=bp)
                np.add(logs[r][byte], bp, out=logs[r][byte])
            np.add(out, place, out=out)
            values, spare = spare, values
    return values[:tables[-1][1].size], logs


def _frontier_tables(variant: str, width: int):
    """(tables, init_index, final_ok, row_states, prefix, prefix_logs) for
    one variant and width; AssertionError if a cold build's search finds
    other than the width's REACHABLE_STATES total.

    tables are as `_predecessor_tables` returns them; init_index is the
    all-ones start state's index among the states entering row 0, and
    final_ok marks those of them that may end the sweep (no digit B - 1);
    row_states[r] is the size of the reachable set entering row offset r.
    Every solve of this width sweeps at least `width` columns from the start
    state, so those columns are swept here as their own sweep: prefix and
    prefix_logs are its values and log, as `_sweep` returns them. Every
    array is read-only. Entries are kept, least recently used evicted first,
    while their arrays total at most TABLE_CACHE_BYTES; a larger entry is
    returned without being kept.
    """
    key = (variant, width)
    with _table_cache_lock:
        hit = _table_cache.get(key)
        if hit is not None:
            _table_cache.move_to_end(key)
            return hit[0]
    rule = _RULES[variant]
    base = rule[0].size
    init = (base ** width - 1) // (base - 1)      # every frontier digit = 1
    states = _reachable_states(rule, width, init)
    row_states = tuple(s.size for s in states)
    if sum(row_states) != REACHABLE_STATES[variant][width - 1]:
        raise AssertionError("search disagrees with REACHABLE_STATES")
    tables, final_codes = _predecessor_tables(rule, states, width)
    init_index = int(np.flatnonzero(final_codes == init)[0])
    final_ok = np.ones(final_codes.size, dtype=bool)
    for j in range(width):
        final_ok &= final_codes // base ** j % base != base - 1
    start = np.full(final_codes.size, _INF, dtype=np.int32)
    start[init_index] = 0
    prefix, prefix_logs = _sweep(tables, start, width)
    prefix = prefix.copy()          # not a view of the sweep's larger buffer
    arrays = [final_ok, prefix, *prefix_logs] + [
        a for preds, place in tables for a in (*preds, place)]
    for a in arrays:
        a.flags.writeable = False
    entry = (tables, init_index, final_ok, row_states, prefix, prefix_logs)
    size = sum(a.nbytes for a in arrays)
    if size <= TABLE_CACHE_BYTES:
        with _table_cache_lock:
            _table_cache[key] = (entry, size)
            total = sum(s for _, s in _table_cache.values())
            while total > TABLE_CACHE_BYTES:
                total -= _table_cache.popitem(last=False)[1][1]
    return entry


def _reconstruct(tables, segments, final_index: int):
    """Follow the back-pointers from the final state to the initial one,
    through the (logs, columns) of each sweep, in sweep order, read in
    reverse. Each sweep's log is packed from its own first column, as
    `_sweep` writes it; an index past a log row has one predecessor, k = 0.
    Returns the (row offset, column) of every member and the start index."""
    _, radix, per_byte = _log_layout(tables)
    members = []
    index = final_index
    first = sum(columns for _, columns in segments)
    for logs, columns in reversed(segments):
        first -= columns
        for col in range(columns - 1, -1, -1):
            byte, digit = divmod(col, per_byte)
            weight = radix ** digit
            for r in range(len(tables) - 1, -1, -1):
                preds, place = tables[r]
                if place[index]:
                    members.append((r, first + col))
                bp = logs[r][byte]
                k = int(bp[index]) // weight % radix if index < bp.size else 0
                index = int(preds[k][index])
    return members, index


def exact_gamma_dp(
    dims: GridDims,
    variant: str = "domination",
    width_cap: int | None = None,
) -> OracleResult:
    """Exact minimum via the frontier DP; witness via back-pointers.

    The sweep runs along the longer dimension, so the frontier width is
    min(m, n). Before any table or log is built, CapacityError refuses, in
    order: more than DP_CELL_CAP cells (thin strips cost tens of
    microseconds per cell at any state count); a width over `width_cap`, if
    one is given; and, in one check, a width past REACHABLE_STATES
    (domination 17 and up, [1,2] 15 and up: even their squares are over
    DP_WORK_CAP) or work, reachable states x length, over DP_WORK_CAP, the
    states read from REACHABLE_STATES. The cached (variant, width) entry
    holds the tables and the sweep of the first width columns (see the
    module docstring), so a solve sweeps only the length - width columns
    past them, and reads its witness back through its own log and then the
    prefix's. `backpointer_bytes` is ceil(length / D) bytes per
    state with more than one predecessor, D = 3 for domination (5 at width
    1) and 5 for [1,2], the most base-K digits a byte holds, K the largest
    predecessor count; DP_WORK_CAP keeps it under 152 MB, so the witness is
    always returned.
    """
    _check_variant(variant)
    width, length = min(dims.m, dims.n), max(dims.m, dims.n)
    if width * length > DP_CELL_CAP:
        raise CapacityError(
            f"{dims.m}x{dims.n} has {width * length} > {DP_CELL_CAP} cells "
            "(DP_CELL_CAP)")
    if width_cap is not None and width > width_cap:
        raise CapacityError(f"frontier width {width} exceeds cap {width_cap}")
    totals = REACHABLE_STATES[variant]
    total = totals[width - 1] if width <= len(totals) else None
    if total is None or total * length > DP_WORK_CAP:
        work = (f"frontier width {width} is past REACHABLE_STATES "
                f"(widths 1-{len(totals)}): even its square is"
                if total is None else f"{total} reachable frontier states x "
                f"{length} columns = {total * length} (state, cell) pairs,")
        raise CapacityError(f"{work} over DP_WORK_CAP = {DP_WORK_CAP}")
    tables, init_index, final_ok, row_states, prefix, prefix_logs = \
        _frontier_tables(variant, width)
    values, logs = _sweep(tables, prefix, length - width)
    finals = np.where(final_ok, values, _INF)
    final_index = int(np.argmin(finals))
    value = int(finals[final_index])
    if value >= int(_INF):
        raise AssertionError("no feasible completion; the DP is inconsistent")
    cells, start = _reconstruct(
        tables, ((prefix_logs, width), (logs, length - width)), final_index)
    if start != init_index:
        raise AssertionError("back-pointer chain broken")
    if dims.m <= dims.n:
        witness = tuple(sorted(Vertex(r + 1, c + 1) for r, c in cells))
    else:
        witness = tuple(sorted(Vertex(c + 1, r + 1) for r, c in cells))
    if len(witness) != value:
        raise AssertionError("witness size disagrees with DP value")
    choices, _, per_byte = _log_layout(tables)
    return OracleResult(
        dims=dims, variant=variant, value=value, witness=witness,
        method="profile-dp", work=total * length,
        states=max(row_states),
        backpointer_bytes=sum(choices) * -(-length // per_byte),
        row_states=row_states,
    )
