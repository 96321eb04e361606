"""The three benchmark workloads.

Each workload turns the seed into its inputs, runs one closed-loop caller
over them in rounds, and checks every output with perfbench.checks outside
the timed region. An operation is one call of `op(inp, call)`, where `call`
is either tracing.direct or Tracer.call.

large-grids  one user session per grid: construct, JSON round trip, verify,
             corner check, count cross-check, ASCII and SVG. Six grids with
             sides of 600-1500 (and one 20 x ~20000 strip) whose working set
             is far larger than the CPU caches; work grows with m*n.
             count_cross_check takes the constructed pattern: it needs the
             build orientation, which the JSON document does not carry.
sweep-small  construct, verify and count cross-check on 100 grids per residue
             class with sides 16-80, where the fixed cost of each call
             dominates.
oracle-dp    exact_gamma_dp alone, with the witness kept at domination widths
             11-12 and [1,2] widths 9-10, plus a value-only width-13 solve
             whose back-pointer log is over budget; one operation solves one
             instance of each. No construction or verifier work.
"""

import json
import random
import time

import numpy as np

import griddom as g
from checks import (KNOWN_GAMMA, ORACLE_PINS, SMALL_PINS, gamma_closed_form,
                    pinned_value, set_properties, undominated_near)


def _side(rng, base: int) -> int:
    """base plus 0 or 5, drawn from the seed, so the residue class is kept."""
    return base + 5 * rng.randrange(2)


def member_array(p) -> np.ndarray:
    return np.concatenate([np.asarray(p.black, dtype=np.int64).reshape(-1, 2),
                           np.asarray(p.white, dtype=np.int64).reshape(-1, 2)])


def expected_excess(m: int, n: int) -> int:
    """Excess over the closed form the program declares for this class."""
    return getattr(g, "DEFICIT_CLASSES", {}).get((n % 5, m % 5), 0)


def check_pattern(p, m, n, verdict, stats) -> dict:
    """Independent recount of a constructed pattern, plus agreement of the
    program's verdict with it. Adds the excess to stats['excess'] and
    returns the recount, with props['ok'] set."""
    props = set_properties(m, n, member_array(p))
    excess = props["size"] - gamma_closed_form(m, n)
    stats["excess"][m, n] = excess
    props["ok"] = (props["distinct"] and props["dominating"] and props["one_two"]
                   and excess == expected_excess(m, n) and excess >= 0
                   and verdict.check("dominating").passed
                   and verdict.check("one_two").passed
                   and verdict.check("cardinality").passed == (excess == 0)
                   and verdict.check("interior_unique").passed
                   and verdict.cardinality == props["size"])
    return props


class _GridWorkload:
    """Shared parts of the two workloads that construct grids."""

    PROBE_GRIDS = 1          # grids measured under tracemalloc

    def round_inputs(self, k: int):
        order = list(self.grids)
        self.rng.shuffle(order)
        return order

    @staticmethod
    def cells(inp) -> int:
        return inp[0] * inp[1]

    @staticmethod
    def size(out) -> int:
        return out[0].cardinality

    def memory_probes(self):
        """(layer metric, function, args, normaliser) run under tracemalloc."""
        out = []
        for m, n in self.grids[:self.PROBE_GRIDS]:
            dims = g.GridDims(m, n)
            p = g.construct(dims)
            out.append(("construction.construct.peak_bytes_per_member", g.construct,
                        (dims,), p.cardinality))
            out.append(("verify.verify_pattern.peak_bytes_per_cell", g.verify_pattern,
                        (p,), m * n))
        return out


class LargeGrids(_GridWorkload):
    name = "large-grids"
    # (label, m base, n base); the class key is (n mod 5, m mod 5)
    SPECS = (
        ("direct-32", 602, 603),
        ("transposed-01", 601, 605),
        ("last-row-col2-21", 601, 607),
        ("phase-33", 603, 603),
        ("deficit-00", 1500, 600),
        ("thin-10", 20, 20001),
    )

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.grids = [(_side(rng, mb) if mb > 100 else mb, _side(rng, nb))
                      for _, mb, nb in self.SPECS]

    def warmup_inputs(self):
        return [(35 + (mb - 35) % 5, 35 + (nb - 35) % 5) for _, mb, nb in self.SPECS]

    @staticmethod
    def op(inp, call):
        p = call("construction.construct", g.construct, g.GridDims(*inp))
        doc = call("render.pattern_to_document", g.pattern_to_document, p)
        text = call("render.dumps_document", g.dumps_document, doc)
        parsed = call("render.json_loads", json.loads, text)
        p2 = call("render.document_to_pattern", g.document_to_pattern, parsed)
        verdict = call("verify.verify_pattern", g.verify_pattern, p2)
        corner = call("verify.corner_multiplicity_check", g.corner_multiplicity_check, p2)
        xcheck = call("verify.count_cross_check", g.count_cross_check, p)
        ascii_ = call("render.render_ascii", g.render_ascii, p2)
        svg = call("render.render_svg", g.render_svg, p2)
        # json.dumps escapes non-ASCII, so the length in characters is in bytes
        return p, len(text), p2, verdict, corner, xcheck, ascii_, svg

    def check(self, inp, out, stats) -> bool:
        m, n = inp
        p, json_bytes, p2, verdict, corner, xcheck, ascii_, svg = out
        stats["json_bytes"].append(json_bytes)
        props = check_pattern(p, m, n, verdict, stats)
        closed = props["closed"]
        black, white = len(p.black), len(p.white)
        text = str(ascii_)
        return (props["ok"] and xcheck.ok
                and (p2.dims.m, p2.dims.n) == (m, n)
                and sorted(p2.black) == sorted(p.black)
                and sorted(p2.white) == sorted(p.white)
                and all(closed[r - 1, c - 1] == cov
                        for (r, c), cov in corner.corner_coverage.items())
                and len(ascii_.lines) == m and all(len(line) == n for line in ascii_.lines)
                and text.count("B") == black and text.count("W") == white
                and svg.count("<circle") == black and svg.count("<rect") - 1 == white)

    def negative_inputs(self):
        return list(self.grids)

    def negative(self, inp) -> bool:
        """Drop 1-8 interior disks from the grid's document and expect a
        failed verdict whose undominated total matches a local recount."""
        m, n = inp
        p = g.construct(g.GridDims(m, n))
        black = np.asarray(p.black, dtype=np.int64).reshape(-1, 2)
        inner = black[(black[:, 0] >= 3) & (black[:, 0] <= m - 2)
                      & (black[:, 1] >= 3) & (black[:, 1] <= n - 2)]
        picks = self.rng.sample(range(len(inner)), self.rng.randint(1, 8))
        dropped = {(int(inner[i, 0]), int(inner[i, 1])) for i in picks}
        doc = g.pattern_to_document(p)
        doc["black"] = [rc for rc in doc["black"] if tuple(rc) not in dropped]
        mutated = g.document_to_pattern(doc)
        verdict = g.verify_pattern(mutated)
        members = member_array(mutated)
        report = g.coverage_map(mutated.dims, [tuple(v) for v in members.tolist()])
        expected = undominated_near(set_properties(m, n, members)["closed"], dropped)
        return (not verdict.ok and expected >= 1
                and report.undominated_total == expected)


class SweepSmall(_GridWorkload):
    name = "sweep-small"
    PER_CLASS = 100
    SIDES = range(16, 81)
    PROBE_GRIDS = 25

    def __init__(self, rng: random.Random):
        self.rng = rng
        grids = []
        for rm in range(5):
            for rn in range(5):
                ms = [s for s in self.SIDES if s % 5 == rm]
                ns = [s for s in self.SIDES if s % 5 == rn]
                pairs = [(a, b) for a in ms for b in ns]
                grids.extend(rng.sample(pairs, self.PER_CLASS))
        self.grids = grids

    def warmup_inputs(self):
        return [(16 + (rm - 16) % 5, 16 + (rn - 16) % 5) for rm in range(5) for rn in range(5)]

    @staticmethod
    def op(inp, call):
        p = call("construction.construct", g.construct, g.GridDims(*inp))
        verdict = call("verify.verify_pattern", g.verify_pattern, p)
        xcheck = call("verify.count_cross_check", g.count_cross_check, p)
        return p, verdict, xcheck

    def check(self, inp, out, stats) -> bool:
        p, verdict, xcheck = out
        return check_pattern(p, inp[0], inp[1], verdict, stats)["ok"] and xcheck.ok


class OracleDP:
    name = "oracle-dp"
    # (variant, frontier width, width_cap); width 13 runs value-only because
    # its back-pointer log is over the solver's byte budget
    CATEGORIES = (("domination", 11, None), ("domination", 12, None),
                  ("one-two", 9, None), ("one-two", 10, None),
                  ("domination", 13, 13))

    def __init__(self, rng: random.Random):
        self.rng = rng
        # length offsets form a Latin square: round k gives category c the
        # offset (start[c] + k) mod 5, so each round solves all five offsets
        # once and each category cycles through its five lengths
        self.start = rng.sample(range(5), 5)

    def warmup_inputs(self):
        return [tuple((variant, m, n, None) for variant, m, n in SMALL_PINS)]

    def round_inputs(self, k: int):
        """One operation per round: a batch of one solve per category, so
        every operation does a comparable mix of work."""
        batch = []
        for (variant, w, cap), start in zip(self.CATEGORIES, self.start):
            length = w + (start + k) % 5
            m, n = (w, length) if self.rng.random() < 0.5 else (length, w)
            batch.append((variant, m, n, cap))
        self.rng.shuffle(batch)
        return [tuple(batch)]

    @staticmethod
    def cells(inp) -> int:
        return sum(m * n for _, m, n, _ in inp)

    @staticmethod
    def size(out) -> int:
        return sum(res.work for res, _ in out)

    @staticmethod
    def op(inp, call):
        out = []
        for variant, m, n, cap in inp:
            start = time.perf_counter_ns()
            res = call("oracle.exact_gamma_dp", g.exact_gamma_dp, g.GridDims(m, n),
                       variant=variant, width_cap=cap)
            out.append((res, (time.perf_counter_ns() - start) / 1e9))
        return out

    def check(self, inp, out, stats) -> bool:
        return all([self.check_solve(solve, res, secs, stats)
                    for solve, (res, secs) in zip(inp, out)])

    @staticmethod
    def check_solve(solve, res, secs, stats) -> bool:
        variant, m, n, _ = solve
        w, length = min(m, n), max(m, n)
        stats["solves"].append((res.work, secs))
        if res.witness is None:
            stats["kept"].append(0)
            return res.witness_dropped and res.value == pinned_value(variant, w, length)
        stats["kept"].append(1)
        base = 3 if variant == "domination" else 4
        stats["bp_bytes"].append(base ** w * w * length)
        props = set_properties(m, n, res.witness)
        return (res.value == pinned_value(variant, w, length)
                and props["distinct"] and props["size"] == res.value
                and props["dominating"]
                and (variant == "domination" or props["one_two"]))

    def warmup_extra(self) -> list[bool]:
        """Brute force agrees with the pins on every grid of <= 20 cells,
        and the pins agree with the published optima."""
        out = [g.exact_gamma_bruteforce(g.GridDims(m, n), variant).value == value
               for (variant, m, n), value in SMALL_PINS.items()]
        out += [ORACLE_PINS["domination", w][n - w] == value
                for (w, n), value in KNOWN_GAMMA.items()]
        return out

    def memory_probes(self):
        return [("oracle.peak_bytes", g.exact_gamma_dp, (g.GridDims(w, w), variant, cap), 1)
                for variant, w, cap in self.CATEGORIES]


WORKLOADS = {cls.name: cls for cls in (LargeGrids, SweepSmall, OracleDP)}

