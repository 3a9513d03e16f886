"""Seeded op schedules for the three benchmark workloads.

An op is one CLI command.  Every schedule is an endless sequence of blocks
of ops drawn from `random.Random` seeded by the workload name and the seed
alone, so the same seed always yields the same ops in the same order.  Runs
stop only between blocks, and each block holds the same mix of op kinds and
sizes, so a run's mix does not depend on where it stops.  This module uses only the
standard library and never imports alequot: the inputs are built from the
closed-form descriptions in the README, not by the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import gcd

WORKLOADS = ("exact-sweep", "long-chain", "radial")

# exact-sweep draws surface quotients until the Hirzebruch-Jung chain is at
# most this long; longer chains are the long-chain workload's job, and letting
# the rare a ~ r chains in would make the mean op cost hinge on a few draws.
SWEEP_MAX_CHAIN = 24
SWEEP_R_MAX = 400
LONG_CHAIN_LENGTHS = (100, 200)
LONG_CHAIN_BLOCK = 6
RADIAL_LADDER = (1024, 2048, 4096)
# Every SHORT_WINDOW_EVERY-th radial config also runs once on the short fit
# window (s_max = 100, 256 nodes), which exits 2 at seed (ROADMAP bug B).
SHORT_WINDOW_EVERY = 3


@dataclass(frozen=True)
class Op:
    command: str          # CLI subcommand
    args: tuple           # positional arguments, or () when the op reads `text`
    text: str | None = None  # contents of the input file, if the command reads one
    meta: tuple = ()      # (key, value) pairs the correctness checks need
    block: int = 0        # index of the block the op belongs to

    @property
    def info(self) -> dict:
        return dict(self.meta)

    @property
    def exact(self) -> bool:
        return self.command != "radial"


def hj_digits(r: int, a: int) -> list[int]:
    """Descending continued fraction r/a = b_1 - 1/(b_2 - ...), b_j >= 2."""
    digits = []
    x, y = r, a
    while y:
        b = -(-x // y)
        digits.append(b)
        x, y = y, b * y - x
    return digits


def quotient_of_digits(digits) -> tuple[int, int]:
    """(r, a) with r/a = [[b_1, ..., b_k]]; coprime because every step is unimodular."""
    num, den = digits[-1], 1
    for b in reversed(digits[:-1]):
        num, den = b * num - den, num
    return num, den


def family_fan_text(r: int, a: int) -> str:
    """The five-cone 1/r(1,1,a) fan of the README in the subdivision file format."""
    m = (r + 1) // a
    v, e2, e3 = (r, r - 1, r - a), (0, 1, 0), (0, 0, 1)
    w1, w2 = (1, 1, 1), (m, m, m - 1)
    cones = ((w1, e2, e3), (v, w1, e3), (w2, e2, w1), (v, w2, w1), (v, e2, w2))
    lines = [f"# five-cone fan for 1/{r}(1, 1, {a})", "dim 3", f"quotient {r} 1 {a}"]
    for cone in cones:
        lines.append("cone " + " | ".join(" ".join(map(str, g)) for g in cone))
    return "\n".join(lines) + "\n"


def _surface_op(r: int, a: int) -> Op:
    return Op("resolve2d", (r, a), meta=(("r", r), ("a", a)))


def _family_op(command: str, r: int, a: int) -> Op:
    meta = (("r", r), ("a", a))
    if command == "resolve3d":
        return Op(command, (r, a), meta=meta)
    return Op(command, (), text=family_fan_text(r, a), meta=meta)


def _admissible_family(rng: random.Random) -> tuple[int, int]:
    """(r, a) with a >= 3, r > a + 2, a | r + 1 and r <= SWEEP_R_MAX."""
    a = rng.randint(3, 30)
    m = rng.randint(3 if a == 3 else 2, (SWEEP_R_MAX + 1) // a)
    return a * m - 1, a


def _short_chain(rng: random.Random) -> tuple[int, int]:
    while True:
        r = rng.randint(3, SWEEP_R_MAX)
        a = rng.randrange(1, r)
        if gcd(a, r) == 1 and len(hj_digits(r, a)) <= SWEEP_MAX_CHAIN:
            return r, a


def exact_sweep(rng: random.Random):
    """The README ops, then blocks of eight resolve2d ops, one resolve3d and
    one check-subdivision op."""
    yield [_surface_op(7, 3), _family_op("resolve3d", 7, 4), _family_op("check-subdivision", 7, 4)]
    while True:
        block = [_surface_op(*_short_chain(rng)) for _ in range(8)]
        block.insert(4, _family_op("resolve3d", *_admissible_family(rng)))
        block.append(_family_op("check-subdivision", *_admissible_family(rng)))
        yield block


def long_chain(rng: random.Random):
    """Chains of 100 to 200 curves, in blocks with one length from each sixth
    of that range.  A third are the crepant A_k chains (a = r - 1); the rest
    carry one -3 curve at a random position (a = r - 2 when it sits at the
    end), which makes r grow like k^2/4 instead of k."""
    lo, hi = LONG_CHAIN_LENGTHS
    edges = [lo + (hi - lo) * j // LONG_CHAIN_BLOCK for j in range(LONG_CHAIN_BLOCK + 1)]
    while True:
        crepant = [j < LONG_CHAIN_BLOCK // 3 for j in range(LONG_CHAIN_BLOCK)]
        rng.shuffle(crepant)
        block = []
        for j in range(LONG_CHAIN_BLOCK):
            k = rng.randint(edges[j], edges[j + 1])
            digits = [2] * k
            if not crepant[j]:
                digits[rng.randrange(k)] = 3
            block.append(_surface_op(*quotient_of_digits(digits)))
        rng.shuffle(block)
        yield block


def run_file_text(n: int, calabi_c: float, c: float, nodes: int, s_max: float | None = None) -> str:
    lines = [f"n = {n}", "r = 7", f"C = {calabi_c}", "s0 = 5.0", "w = 2.0", f"c = {c}"]
    if s_max is not None:
        lines.append(f"s_max = {s_max}")
    lines.append(f"nodes = {nodes}")
    return "\n".join(lines) + "\n"


def _radial_op(n: int, calabi_c: float, c: float, nodes: int, s_max=None) -> Op:
    meta = (("n", n), ("C", calabi_c), ("c", c), ("nodes", nodes), ("s_max", s_max))
    return Op("radial", (), text=run_file_text(n, calabi_c, c, nodes, s_max), meta=meta)


def radial(rng: random.Random):
    """Configs come in blocks of twelve, one for each n in {2, 3, 4},
    sign of the bump amplitude c and half of that sign's |c| range, in a
    seeded order.  C and |c| within its half are drawn per config, on the
    scale the README and the test suite use (C in [0.5, 2], |c| <= 0.5).  A
    negative bump keeps |c| >= 0.2: smaller ones can cancel the tail constant
    C + n int t^(n-1) (e^f0 - 1) for n = 2, and then there is no s^(1-n)
    tail to fit.  Whether a solve stalls depends mostly on n and c, so whole
    blocks give every run the same mix of stalls."""
    while True:
        kinds = [(n, sign, half) for n in (2, 3, 4) for sign in (-1, 1) for half in (0, 1)]
        rng.shuffle(kinds)
        block = []
        for j, (n, sign, half) in enumerate(kinds):
            lo, hi = (0.2, 0.4) if sign < 0 else (0.05, 0.25)
            calabi_c = round(rng.uniform(0.5, 2.0), 3)
            c = round(sign * (lo + (hi - lo) * (half + rng.random()) / 2), 3)
            block += [_radial_op(n, calabi_c, c, nodes) for nodes in RADIAL_LADDER]
            if j % SHORT_WINDOW_EVERY == 0:
                block.append(_radial_op(n, calabi_c, c, 256, s_max=100))
        yield block


SCHEDULES = {"exact-sweep": exact_sweep, "long-chain": long_chain, "radial": radial}

# One fixed, seed-independent op per workload, run once before anything is
# timed: it is the "first op" that set-up time includes.
WARMUP = {
    "exact-sweep": _surface_op(7, 3),
    "long-chain": _surface_op(101, 100),
    "radial": _radial_op(3, 1.0, -0.25, 1024),
}


def schedule(workload: str, seed: int):
    """The workload's ops in order, each tagged with its block index."""
    blocks = SCHEDULES[workload](random.Random(f"alequot-bench/{workload}/{seed}"))
    for index, block in enumerate(blocks):
        for op in block:
            yield replace(op, block=index)
