"""Random instance generation and the reduction verification engine.

Generation is rejection-free and constructive: occurrence/degree/overlap
budgets are enforced by drawing against per-item credit counters. Every
generator is deterministic in its seed; trial i of a verification run uses
seed + i, so the trials of one run can be split into seed ranges.

A `verify` or `fit` run generates the instance of every trial, prepares
each distinct generated instance once, and settles each distinct prepared
instance once: reduce and, for `verify`, both deciders, the witness checks
and the validation of the output under its plan's tags. Later trials that
meet an equal input reuse its outcome under their own seeds (`_trials`).
The results are those of deciding every trial.
"""

from __future__ import annotations

import struct
import time
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache, partial

from . import oracles, reductions
from .instances import (
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    Parity,
    UGraph,
    Unit,
    XceInstance,
    XorSystem,
    serialize,
    validate,
)


class GenerationError(ValueError):
    """Unsatisfiable generation constraint combination."""


MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
TWO53 = float(1 << 53)
# The fixed bounds of the generated classes, and the chance that an xce or
# ap2dm element is drawn exempt
OCC_BOUND = 3
OVERLAP_BOUND = 4
COL_BOUND = 3
EXEMPTION_DENSITY = 0.3
# _shuffled_front reads the front of a shuffle of at least this many items
# from one numpy batch; below it, it shuffles a copy with `shuffle`, which
# is faster up to about 75 items, 100 for a front of 8 (at 28: 6 us against
# 15; 2-CPU x86 host). Above 32, `scale`'s bench warm-up would not import
# numpy and its setup_s would fall with no saving. It exceeds 12, the longest
# list a default-size family fronts, so default runs never import numpy.
FRONT_SHUFFLE_MIN = 28


@cache
def _numpy():
    """numpy, then GAMMA, MIX1, MIX2 and the shift counts 30, 27, 31 as
    numpy uint64 scalars, for `_next64_batch`. Imported on the first
    `_shuffled_front` of FRONT_SHUFFLE_MIN or more items, so a run that
    takes none starts without numpy; the scalars are built once, as a
    Python int operand would cost NumPy 2 a conversion on every array
    operation."""
    import numpy as np

    return np, *map(np.uint64, (GAMMA, MIX1, MIX2, 30, 27, 31))


def _lanes(k: int) -> tuple:
    """ONES, GAMMA*RAMP, MASK (1, (k - i)*GAMMA, the low 64 bits in 128-bit
    lane i, whose draw is the block's (k - i)th) and the low words' unpack."""
    ones = ((1 << 128 * k) - 1) // ((1 << 128) - 1)
    ramp = GAMMA * sum((k - i) << 128 * i for i in range(k))
    return ones, ramp, ones * MASK64, struct.Struct("<" + "Q8x" * k).unpack


# A fresh SplitMix64 fills FILL_FIRST draws, each later fill twice the last
# up to FILL_MAX, and one right after a batch, as _gen_xce and _gen_lin draw
# 1 to 3 between batches. A fill takes 0.6 us at 1 lane, 2.7 at 16 and 15.6
# at 128, a scalar draw 0.44 us (2-CPU x86); default trials average 20-40.
FILL_FIRST, FILL_MAX = 16, 128
_BLOCKS = {1 << i: _lanes(1 << i) for i in range(FILL_MAX.bit_length())}


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea, Flood 2014). Portable: the whole
    algorithm is a few lines, so any implementation can reproduce the
    stream. State advances by the golden-gamma constant; output is the
    finalizing mix of the new state.

    From state s, draw k is the mix of s + k*GAMMA mod 2**64, so `_fill`
    computes a block of draws in one int, one per 128-bit lane, for every
    draw method to pop. No carry crosses a lane: a lane is masked to 64 bits
    before each multiply, so its product fits in 128 bits; the same mask
    after each xor-shift clears what `>>` shifts in from the lane above.
    Blocks are 16, 32, 64, then 128 lanes, and 1, 2, 4, ... after a numpy
    batch. `state` counts the draws handed out so far, not the buffered ones."""

    def __init__(self, seed: int):
        self._end = seed & MASK64  # the state after the last computed draw
        self._buf: list[int] = []  # computed draws not handed out, the next one last
        self._block = FILL_FIRST  # lanes of the next fill

    @property
    def state(self) -> int:
        return (self._end - len(self._buf) * GAMMA) & MASK64

    def _fill(self) -> int:
        """Compute the next block into the empty buffer; hand out its first draw."""
        ones, ramp, mask, unpack = _BLOCKS[k := self._block]
        self._block = min(2 * k, FILL_MAX)
        z = (self._end * ones + ramp) & mask
        z = ((z ^ (z >> 30)) & mask) * MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * MIX2 & mask
        z ^= z >> 31  # the high words it leaves are never read
        self._end = (self._end + k * GAMMA) & MASK64
        if k == 1:
            return z
        self._buf.extend(unpack(z.to_bytes(16 * k, "little")))
        return self._buf.pop()

    def next64(self) -> int:
        return self._buf.pop() if self._buf else self._fill()

    def _next64_batch(self, k: int):
        """The next k outputs as a numpy uint64 array, from `state`; the
        buffer is dropped. `_shuffled_front` draws through it from
        FRONT_SHUFFLE_MIN items; this is redlab's only use of numpy, which
        the first such draw imports (`_numpy`)."""
        np, gamma, mix1, mix2, s30, s27, s31 = _numpy()
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= gamma  # wraps mod 2**64
        z += np.uint64(self.state)
        z ^= z >> s30
        z *= mix1
        z ^= z >> s27
        z *= mix2
        z ^= z >> s31
        self._end = (self.state + k * GAMMA) & MASK64
        self._buf.clear()
        self._block = 1
        return z

    def randrange(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via modulo (documented, portable):
        next64() % n."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return (self._buf.pop() if self._buf else self._fill()) % n

    def randint(self, a: int, b: int) -> int:
        if b < a:
            raise ValueError("randint needs a <= b")
        return a + (self._buf.pop() if self._buf else self._fill()) % (b - a + 1)

    def chance(self, p: float) -> bool:
        """(next64() >> 11) / 2**53 < p."""
        return ((self._buf.pop() if self._buf else self._fill()) >> 11) / TWO53 < p

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list):
        """Fisher-Yates from the end: swap i with randrange(i + 1) for
        i = len-1 .. 1, one draw each."""
        buf = self._buf  # _fill refills this same list
        for i in range(len(seq) - 1, 0, -1):
            j = (buf.pop() if buf else self._fill()) % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]


@dataclass(frozen=True)
class GenSpec:
    """What to generate: problem class, size knobs, degree bound, seed.

    max_size bounds the primary size knob (variables, vertices, elements);
    the per-trial instance size is drawn from [1, max_size]. sat_bias is the
    fraction of trials that plant a witness (assignment, path, cover).
    """

    problem: str
    max_size: int
    seed: int = 0
    clauses: int | None = None  # exact clause count for 2sat3, None = draw
    max_clauses: int | None = None  # cap on the drawn clause count
    deg_bound: int = 3
    max_rows: int = 8
    sat_bias: float = 0.5
    # joint cap on n + m_cls for 2sat3 (shapes sat2_to_2cvc3's default draws)
    vc_budget: int | None = None


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _shuffled_front(items: list, k: int, rng: SplitMix64) -> list:
    """The first k items of a shuffled copy of items, which stay as they
    are. The same items and the same n - 1 draws as `rng.shuffle` on a copy
    cut to k, but without the swaps.

    Step i (i = n-1 .. 1) of the shuffle swaps positions i and j_i. Undoing
    the steps from i = 1 upward traces the item that ends at position p < k
    back to where it started: steps 1 .. k-1 touch only positions below k
    and are replayed; after them the traced position v lies below every
    step left, so only a step that targets v moves it, to that step's own
    position. The earliest such step is first[v], and the chain from p
    through first ends at the start. A self-swap at step i makes first[i]
    = i, but no chain reaches i: it enters position i only through step i,
    whose target then lies below i."""
    n = len(items)
    if n < FRONT_SHUFFLE_MIN or k >= n:
        out = items[:]
        rng.shuffle(out)
        return out[:k]
    np = _numpy()[0]
    j = np.empty(n, dtype=np.int64)  # j[i]: the target of step i; draws run i = n-1 .. 1
    j[:0:-1] = rng._next64_batch(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
    lo = max(k, 1)
    first = np.full(n, n, dtype=np.int64)  # n: no step left targets v
    np.minimum.at(first, j[lo:], np.arange(lo, n))
    pos = list(range(k))
    for i in range(k - 1, 0, -1):
        a = int(j[i])
        pos[i], pos[a] = pos[a], pos[i]
    out = []
    for v in pos:
        while first[v] < n:
            v = int(first[v])
        out.append(items[v])
    return out


def _discard(ascending: list[int], x: int):
    """Remove x from an ascending list that holds it."""
    del ascending[bisect_left(ascending, x)]


def _take_front(open_: deque, count: int, credit: list[int]) -> list[int]:
    """The first `count` elements of open_ (all of them if fewer), each
    charged one credit; those with credit left stay in front, in order."""
    firsts = [open_.popleft() for _ in range(min(count, len(open_)))]
    for u in firsts:
        credit[u] -= 1
    open_.extendleft(u for u in reversed(firsts) if credit[u] > 0)
    return firsts


def _plant_unsat_core(n: int, cap: int, rng: SplitMix64) -> list[tuple[int, int]] | None:
    """An unsatisfiable exact clean occ<=3 core: implication chains
    x ~> !x (through fresh variables p_i) and !x ~> x (through a bridge
    variable c and fresh q_i). Needs 4 variables and 5 clauses minimum;
    polarities are flipped per variable for variety. None if it cannot fit.
    """
    if n < 4 or cap < 5:
        return None
    budget_vars = n - 4
    budget_cls = cap - 5
    a = 1 + rng.randrange(1 + min(2, budget_vars, budget_cls))
    budget_vars -= a - 1
    budget_cls -= a - 1
    b = 1 + rng.randrange(1 + min(2, budget_vars, budget_cls))
    ids = _shuffled_front(list(range(1, n + 1)), 2 + a + b, rng)
    x, c = ids[0], ids[1]
    ps = ids[2:2 + a]
    qs = ids[2 + a:2 + a + b]
    sign = {v: (1 if rng.chance(0.5) else -1) for v in ids}

    def lit(v: int, positive: bool) -> int:
        return sign[v] * v if positive else -sign[v] * v

    clauses = [(lit(x, False), lit(ps[0], True))]
    for p1, p2 in zip(ps, ps[1:]):
        clauses.append((lit(p1, False), lit(p2, True)))
    clauses.append((lit(ps[-1], False), lit(x, False)))
    clauses.append((lit(x, True), lit(c, True)))
    clauses.append((lit(c, False), lit(qs[0], True)))
    for q1, q2 in zip(qs, qs[1:]):
        clauses.append((lit(q1, False), lit(q2, True)))
    clauses.append((lit(qs[-1], False), lit(c, False)))
    return clauses


def _gen_2sat3(spec: GenSpec, rng: SplitMix64) -> CnfFormula:
    # An explicit clause count pins n to the size knob; otherwise n is drawn.
    n = spec.max_size if spec.clauses is not None else rng.randint(1, spec.max_size)
    cap = (OCC_BOUND * n) // 2
    if spec.vc_budget is not None:
        cap = min(cap, spec.vc_budget - n)
    if spec.max_clauses is not None:
        cap = min(cap, spec.max_clauses)
    if n < 2:
        cap = 0  # a clean 2-literal clause needs two distinct variables
    if spec.clauses is not None:
        if n < 2:
            slots, why = 0, f"a 2-literal clause needs two distinct variables, and there is {n}"
        else:
            slots, why = (OCC_BOUND * n) // 2, f"floor({OCC_BOUND}*{n}/2) literal slots"
        if not 0 <= spec.clauses <= slots:
            raise GenerationError(f"clause count {spec.clauses} is outside 0..{slots} ({why})")
        m = spec.clauses
        cap = min(cap, m)  # a planted core must fit the exact count
    else:
        m = rng.randint(0, max(0, cap))
    # trial mix: planted satisfying assignment / planted unsatisfiable core
    # (random alone is YES-heavy at these sizes) / fully random
    roll = (rng.next64() >> 11) / TWO53
    planted = roll < spec.sat_bias
    want_core = not planted and roll < spec.sat_bias + (1.0 - spec.sat_bias) / 2
    sigma = [rng.chance(0.5) for _ in range(n + 1)]
    credits = [OCC_BOUND] * (n + 1)
    clauses: list[tuple[int, int]] = []
    if want_core:
        core = _plant_unsat_core(n, cap, rng)
        if core is not None:
            clauses.extend(core)
            for clause in core:
                for l in clause:
                    credits[abs(l)] -= 1
            m = max(m, len(core))
    # buckets[c]: the variables with c > 0 credits left, ascending
    buckets: list[list[int]] = [[] for _ in range(OCC_BOUND + 1)]
    for v in range(1, n + 1):
        if credits[v] > 0:
            buckets[credits[v]].append(v)
    live = sum(map(len, buckets))
    for _ in range(m - len(clauses)):
        if live < 2:
            if spec.clauses is None:
                break  # drawn count: stop at the credit frontier
            raise GenerationError("occurrence credits stranded; lower the clause count")
        # draw the two largest credits (rng tie-breaks) so credits never
        # concentrate on a single variable
        top = len(buckets) - 1
        while not buckets[top]:
            top -= 1
        firsts = buckets[top]
        i1 = rng.randrange(len(firsts))
        v1 = firsts[i1]
        if len(firsts) > 1:  # v2 from the same bucket, v1 left out
            i2 = rng.randrange(len(firsts) - 1)
            v2 = firsts[i2 + (i2 >= i1)]
        else:
            second = top - 1
            while not buckets[second]:
                second -= 1
            seconds = buckets[second]
            v2 = seconds[rng.randrange(len(seconds))]
        for v in (v1, v2):
            _discard(buckets[credits[v]], v)
            credits[v] -= 1
            if credits[v]:
                insort(buckets[credits[v]], v)
            else:
                live -= 1
        if planted:
            true_slot = rng.randrange(2)
            lits = []
            for slot, v in enumerate((v1, v2)):
                if slot == true_slot:
                    lits.append(v if sigma[v] else -v)
                else:
                    lits.append(v if rng.chance(0.5) else -v)
        else:
            lits = [v if rng.chance(0.5) else -v for v in (v1, v2)]
        clauses.append(tuple(lits))
    rng.shuffle(clauses)
    return CnfFormula(n, tuple(clauses))


def _gen_ugraph(spec: GenSpec, rng: SplitMix64) -> UGraph:
    n = rng.randint(1, spec.max_size)
    k = spec.deg_bound
    planted = rng.chance(spec.sat_bias)
    deg = [0] * (n + 1)
    edges: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    # Plant a 2-checkered cover: pick V'; edges either leave V' or join two
    # V' vertices whose degrees stay <= 2 (so the edge is a grip).
    inside = {v for v in range(1, n + 1) if rng.chance(0.5)} if planted else set()
    for _ in range(rng.randint(0, 2 * n)):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in present or deg[u] >= k or deg[v] >= k:
            continue
        if planted and (u in inside) == (v in inside) and (
                u not in inside or deg[u] >= 2 or deg[v] >= 2):
            continue  # uncovered, or a V' edge that would not be a grip
        present.add(e)
        edges.append(e)
        deg[u] += 1
        deg[v] += 1
    return UGraph(n, tuple(edges))


def _gen_dstcon_raw(spec: GenSpec, rng: SplitMix64) -> Digraph:
    """Small raw reachability instances shaped so that normalize_dstcon
    yields at most max_size vertices: componentwise degree <= 2, indegree of
    s and outdegree of t <= 1, no direct s->t edge at the size limit."""
    n = rng.randint(1, max(1, spec.max_size - 2))
    s, t = 1, n
    planted = rng.chance(spec.sat_bias)
    indeg = [0] * (n + 1)
    outdeg = [0] * (n + 1)
    present: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []

    def room(u, v):
        if u == v or (u, v) in present:
            return False
        if outdeg[u] >= 2 or indeg[v] >= 2:
            return False
        if v == s and indeg[s] >= 1:
            return False
        if u == t and outdeg[t] >= 1:
            return False
        if (u, v) == (s, t) and n + 3 > spec.max_size:
            return False  # subdivision would overflow the target size
        return True

    def add(u, v):
        present.add((u, v))
        edges.append((u, v))
        outdeg[u] += 1
        indeg[v] += 1

    if planted and n >= 2:
        waypoints = [v for v in range(2, n) if rng.chance(0.5)]
        path = [s] + waypoints + [t]
        for u, v in zip(path, path[1:]):
            if room(u, v):
                add(u, v)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if room(u, v):
            add(u, v)
    return Digraph(n, tuple(edges), s, t)


def _gen_digraph4(spec: GenSpec, rng: SplitMix64) -> Digraph:
    """Digraphs with total degree <= deg_bound (GenSpec's default 3; the
    reduce_degree_dstcon plan draws with 4)."""
    n = rng.randint(1, spec.max_size)
    k = spec.deg_bound
    deg = [0] * (n + 1)
    present: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    planted = rng.chance(spec.sat_bias)
    s, t = rng.randint(1, n), rng.randint(1, n)

    def add(u, v):
        if u != v and (u, v) not in present and deg[u] < k and deg[v] < k:
            present.add((u, v))
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1

    if planted and s != t:
        nodes = [v for v in range(1, n + 1) if v not in (s, t) and rng.chance(0.4)]
        path = [s] + nodes + [t]
        for u, v in zip(path, path[1:]):
            add(u, v)
    for _ in range(rng.randint(0, 2 * n)):
        add(rng.randint(1, n), rng.randint(1, n))
    return Digraph(n, tuple(edges), s, t)


def _gen_xce(spec: GenSpec, rng: SplitMix64) -> XceInstance:
    nx = rng.randint(1, spec.max_size)
    planted = rng.chance(spec.sat_bias)
    credits = [2] * (nx + 1)  # 2-overlapping budget per element
    sets: list[tuple[int, ...]] = []
    if planted:
        # partition the universe into sets of <= 3: an exact cover exists
        elems = list(range(1, nx + 1))
        rng.shuffle(elems)
        i = 0
        while i < len(elems):
            size = min(rng.randint(1, 3), len(elems) - i)
            sets.append(tuple(sorted(elems[i:i + size])))
            for e in elems[i:i + size]:
                credits[e] -= 1
            i += size
    extra = rng.randint(0, nx)
    avail = [e for e in range(1, nx + 1) if credits[e] > 0]  # ascending
    for _ in range(extra):
        if not avail:
            break
        size = min(rng.randint(1, 3), len(avail))
        chosen = _shuffled_front(avail, size, rng)
        for e in chosen:
            credits[e] -= 1
            if credits[e] == 0:
                _discard(avail, e)
        sets.append(tuple(sorted(chosen)))
    exempt = tuple(e for e in range(1, nx + 1) if rng.chance(EXEMPTION_DENSITY))
    return XceInstance(nx, exempt, tuple(sets))


def _gen_ap2dm(spec: GenSpec, rng: SplitMix64) -> Ap2dmInstance:
    nx = rng.randint(1, spec.max_size)
    k = OVERLAP_BOUND - 1  # non-trivial budget per side
    out_credit = [k] * (nx + 1)
    in_credit = [k] * (nx + 1)
    present: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []

    def add(u, v) -> bool:
        if u == v or (u, v) in present or out_credit[u] <= 0 or in_credit[v] <= 0:
            return False
        present.add((u, v))
        pairs.append((u, v))
        out_credit[u] -= 1
        in_credit[v] -= 1
        return True

    for _ in range(rng.randint(0, 2 * nx)):
        add(rng.randint(1, nx), rng.randint(1, nx))
    # exemption set, then fix the connectivity promise; elements that cannot
    # be connected are dropped from R rather than rejected
    exempt = {e for e in range(1, nx + 1) if rng.chance(EXEMPTION_DENSITY)}
    if exempt == set(range(1, nx + 1)) and nx >= 1:
        exempt.discard(rng.randint(1, nx))
    # An exempt element without a non-exempt partner on one side is offered
    # every non-exempt element in ascending order on that side. It has no
    # pair with any of them there, so it pairs with the first ones whose
    # credit on the other side is left, as many as its own credit allows.
    # open_in / open_out: those non-exempt elements, ascending. Every pair
    # added here joins the current exempt element to a non-exempt one, so
    # the drawn pairs settle which exempt elements need linking.
    has_out = {u for u, w in pairs if u in exempt and w not in exempt}
    has_in = {w for u, w in pairs if w in exempt and u not in exempt}
    non_exempt = [u for u in range(1, nx + 1) if u not in exempt]
    open_in = deque(u for u in non_exempt if in_credit[u] > 0)
    open_out = deque(u for u in non_exempt if out_credit[u] > 0)
    keep = []
    for v in sorted(exempt):
        ok = True
        if v not in has_out:
            firsts = _take_front(open_in, out_credit[v], in_credit)
            out_credit[v] -= len(firsts)
            pairs.extend((v, u) for u in firsts)
            ok = bool(firsts)
        if ok and v not in has_in:
            firsts = _take_front(open_out, in_credit[v], out_credit)
            in_credit[v] -= len(firsts)
            pairs.extend((u, v) for u in firsts)
            ok = bool(firsts)
        if ok:
            keep.append(v)
    return Ap2dmInstance(nx, tuple(keep), tuple(pairs))


def _gen_lin(mode: str):
    def gen(spec: GenSpec, rng: SplitMix64) -> LinSystem:
        n = rng.randint(1, spec.max_size)
        m = rng.randint(0, spec.max_rows)
        k = COL_BOUND
        col_credit = [k] * (n + 1)
        entries: list[tuple[int, int, int]] = []
        rows: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
        avail = list(range(1, n + 1))  # columns with credit left, ascending
        for r in range(1, m + 1):
            width = rng.choice((0, 1, 1, 2, 2, 2))
            for c in _shuffled_front(avail, width, rng):
                v = 0
                while v == 0:
                    v = rng.randint(-3, 3)
                entries.append((r, c, v))
                rows[r].append((c, v))
                col_credit[c] -= 1
                if col_credit[c] == 0:
                    _discard(avail, c)
        planted = rng.chance(spec.sat_bias)
        x = [rng.randrange(2) for _ in range(n + 1)]
        lower: list[int] = []
        upper: list[int] = []
        for r in range(1, m + 1):
            val = sum(v * x[c] for c, v in rows[r])
            if planted:
                if mode == "geq":
                    lower.append(val - rng.randint(0, 2))
                elif mode == "eq":
                    lower.append(val)
                else:
                    lower.append(val - rng.randint(0, 2))
                    upper.append(val + rng.randint(0, 2))
            else:
                lo = rng.randint(-4, 4)
                if mode == "band":
                    lower.append(lo)
                    upper.append(lo + rng.randint(0, 3))
                else:
                    lower.append(lo)
        return LinSystem(mode, m, n, k, tuple(entries), tuple(lower),
                         tuple(upper) if mode == "band" else None)

    return gen


def _gen_xor(spec: GenSpec, rng: SplitMix64) -> XorSystem:
    n = rng.randint(1, spec.max_size)
    m = rng.randint(0, 2 * n)
    planted = rng.chance(spec.sat_bias)
    sigma = [rng.randrange(2) for _ in range(n + 1)]
    cons = []
    for _ in range(m):
        if n >= 2 and rng.chance(0.7):
            u = rng.randint(1, n)
            v = u
            while v == u:
                v = rng.randint(1, n)
            c = (sigma[u] ^ sigma[v]) if planted else rng.randrange(2)
            cons.append(Parity(u, v, c))
        else:
            u = rng.randint(1, n)
            c = sigma[u] if planted else rng.randrange(2)
            cons.append(Unit(u, c))
    return XorSystem(n, tuple(cons))


GENERATORS = {
    "2sat3": _gen_2sat3,
    "ugraph3": _gen_ugraph,
    "dstcon_raw": _gen_dstcon_raw,
    "digraph4": _gen_digraph4,
    "xce": _gen_xce,
    "ap2dm": _gen_ap2dm,
    "lin_geq": _gen_lin("geq"),
    "lin_band": _gen_lin("band"),
    "lin_eq": _gen_lin("eq"),
    "xor": _gen_xor,
}


def generate(spec: GenSpec, trial: int = 0):
    """Deterministic instance for (spec, trial): the rng seed is seed+trial."""
    gen = GENERATORS.get(spec.problem)
    if gen is None:
        raise GenerationError(f"unknown problem class {spec.problem!r}")
    return gen(spec, SplitMix64(spec.seed + trial))


# ---------------------------------------------------------------------------
# Verification engine
# ---------------------------------------------------------------------------


@dataclass
class VerifyResult:
    name: str
    trials: int
    equiv_failures: list[tuple[int, str]] = field(default_factory=list)
    shortness_failures: list[tuple[int, str]] = field(default_factory=list)
    structural_failures: list[tuple[int, str]] = field(default_factory=list)
    findings: list[tuple[int, str]] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)  # (seed, reason)
    max_ratio: float = 0.0
    wall_time: float = 0.0

    def to_text(self, include_timing: bool = True) -> str:
        lines = [
            f"VERIFY\t{self.name}",
            f"TRIALS\t{self.trials}",
            f"EQUIV_FAILURES\t{len(self.equiv_failures)}",
            f"SHORT_FAILURES\t{len(self.shortness_failures)}",
            f"STRUCT_FAILURES\t{len(self.structural_failures)}",
            f"FINDINGS\t{len(self.findings)}",
            f"MAX_RATIO\t{self.max_ratio:.6f}",
        ]
        for seed, _ in self.equiv_failures:
            lines.append(f"COUNTEREXAMPLE\t{seed}\t{self.name}_seed{seed}.txt")
        for seed, reason in self.skipped:
            lines.append(f"SKIPPED\t{seed}\t{reason}")
        if include_timing:
            lines.append(f"WALLTIME\t{self.wall_time:.3f}")
        return "\n".join(lines) + "\n"


def _normalized(g: Digraph) -> Digraph:
    """A raw reachability instance in normal form."""
    return reductions.normalize_dstcon(g)[0]


@dataclass(frozen=True)
class VerifierPlan:
    """How to verify one reduction: generator family, optional preparation
    step (normalize, build a gadget), the reduction, and the `validate` tags
    that state its output contract. Both sides are decided through
    `oracles.DECIDERS`, by instance class; a reduction whose output is a bool
    is its own verdict."""

    genspec: GenSpec
    prepare: object | None  # instance -> instance (e.g. normalize)
    reduce: object  # instance -> (instance or bool, report)
    out_tags: dict = field(default_factory=dict)  # validate(out, out_tags) must be empty


def default_plans() -> dict[str, VerifierPlan]:
    """Default verification families, built when called so that each binds
    the reductions as they are then. Their sizes and clause caps fix the
    default-size draws that the verify and benchmark goldens pin; `resolve`
    sets the seed."""
    return {
        "sat2_to_2cvc3": VerifierPlan(
            GenSpec("2sat3", max_size=10, vc_budget=13),
            reductions.normalize_2sat3, reductions.sat2_to_2cvc3, {"deg_bound": 3}),
        "cvc3_to_sat2": VerifierPlan(
            GenSpec("ugraph3", max_size=14),
            None, reductions.cvc3_to_sat2),
        "sat2_to_3xce2": VerifierPlan(
            GenSpec("2sat3", max_size=8, max_clauses=6),
            reductions.normalize_2sat3, reductions.sat2_to_3xce2, {"exactly_2": True}),
        "xce2_to_2lp": VerifierPlan(
            GenSpec("xce", max_size=9),
            None, reductions.xce2_to_2lp),
        "lp_to_2lp": VerifierPlan(
            GenSpec("lin_geq", max_size=10, max_rows=8),
            None, reductions.lp_to_2lp),
        "twolp_to_lp": VerifierPlan(
            GenSpec("lin_band", max_size=6, max_rows=6),
            None, reductions.twolp_to_lp),
        "le_to_xor2sat": VerifierPlan(
            GenSpec("lin_eq", max_size=12, max_rows=8),
            None, reductions.le_to_xor2sat),
        "normalize_2sat3": VerifierPlan(
            GenSpec("2sat3", max_size=12),
            None, reductions._normalize_2sat3_op, {"normal_form": True}),
        "normalize_dstcon": VerifierPlan(
            GenSpec("digraph4", max_size=6, deg_bound=3),
            None, reductions.normalize_dstcon, {"normal_form": True}),
        "dstcon_to_ap2dm": VerifierPlan(
            GenSpec("dstcon_raw", max_size=5),
            _normalized, reductions.dstcon_to_ap2dm, {"overlap_bound": 4}),
        "reduce_degree_dstcon": VerifierPlan(
            GenSpec("digraph4", max_size=10, deg_bound=4),
            None, reductions.reduce_degree_dstcon, {"deg_bound": 3}),
    }


# Deliberately corrupted reduction variants for mutation-sensitivity checks.


def _bad_sat2_to_2cvc3(f: CnfFormula):
    """Wires the first clause slot to the vertex of the flipped literal, so
    the graph encodes a different formula than the input."""
    g, rep = reductions.sat2_to_2cvc3(f)
    if not f.clauses:
        return g, rep
    lit = f.clauses[0][0]
    n = f.num_vars
    good_vertex = 2 * abs(lit) - (1 if lit > 0 else 0)
    bad_vertex = 2 * abs(lit) - (0 if lit > 0 else 1)
    slot_vertex = 2 * n + 1  # c1[1]
    rewired = tuple(
        (min(bad_vertex, slot_vertex), max(bad_vertex, slot_vertex))
        if e == (min(good_vertex, slot_vertex), max(good_vertex, slot_vertex))
        else e
        for e in g.edges)
    return UGraph(g.num_vertices, rewired), rep


def _bad_cvc3_to_sat2(g: UGraph):
    """Drops the exclusivity clause on non-grip edges: keeps only the
    clauses whose first literal is positive."""
    f, rep = reductions.cvc3_to_sat2(g)
    return CnfFormula(f.num_vars, tuple(c for c in f.clauses if c[0] > 0)), rep


def _bad_xce2_to_2lp(x: XceInstance):
    """Ignores the exemption set: every row is pinned to [1,1], so exact
    covers that leave an exempt element uncovered are lost."""
    out, rep = reductions.xce2_to_2lp(x)
    bad = LinSystem("band", out.num_rows, out.num_cols, out.col_bound,
                    out.entries, tuple(1 for _ in out.lower), out.upper)
    return bad, rep


def _bad_dstcon_to_ap2dm(g: Digraph):
    """Omits the per-vertex layer couplings, severing the exemption promise
    routes between the layers. Element ids follow the layout in
    `reductions.dstcon_to_ap2dm`'s docstring."""
    out, rep = reductions.dstcon_to_ap2dm(g)
    inner = [v for v in range(1, g.num_vertices + 1) if v not in (g.s, g.t)]
    n = len(inner)
    coupling_ids = set()
    for idx, v in enumerate(inner):
        lay0 = 3 + idx
        lay1 = 3 + n + idx
        lay2 = 3 + 2 * n + idx
        coupling_ids.add((lay2, lay0))
        coupling_ids.add((lay0, lay1))
    pruned = tuple(p for p in out.pairs if p not in coupling_ids)
    return Ap2dmInstance(out.universe_size, out.exempt, pruned), rep


CORRUPTED = {
    "bad_sat2_to_2cvc3": ("sat2_to_2cvc3", _bad_sat2_to_2cvc3),
    "bad_cvc3_to_sat2": ("cvc3_to_sat2", _bad_cvc3_to_sat2),
    "bad_xce2_to_2lp": ("xce2_to_2lp", _bad_xce2_to_2lp),
    "bad_dstcon_to_ap2dm": ("dstcon_to_ap2dm", _bad_dstcon_to_ap2dm),
}


def _ap2dm_gadget(g: Digraph) -> Ap2dmInstance:
    """The matching gadget of a raw reachability instance."""
    return reductions.dstcon_to_ap2dm(_normalized(g))[0]


def resolve(name: str, seed: int = 1, max_size: int | None = None) -> VerifierPlan:
    """The plan a `verify` or `fit` name means, drawing trial t from seed
    + t: a default plan; for `ap2dm_to_dstcon_queries` the oracle
    reduction's own verdict against the matching oracle, over the matching
    gadgets of small raw reachability instances; or for a corrupted fixture
    its base plan with the fixture as its reduce. max_size, when given,
    replaces the family's size knob and drops its clause caps (vc_budget,
    max_clauses), so every plan scales with it alike."""
    base, bad = CORRUPTED.get(name, (name, None))
    if base == "ap2dm_to_dstcon_queries":
        plan = VerifierPlan(GenSpec("dstcon_raw", max_size=5), _ap2dm_gadget, partial(
            reductions.ap2dm_to_dstcon_queries, oracle=oracles.dstcon_oracle))
    else:
        plan = default_plans().get(base)
    if plan is None:
        raise GenerationError(f"unknown reduction {name!r}")
    sizes = {} if max_size is None else {"max_size": max_size, "vc_budget": None,
                                         "max_clauses": None}
    return replace(plan, genspec=replace(plan.genspec, seed=seed, **sizes),
                   reduce=bad or plan.reduce)


# Each level of the memo of one `verify` or `fit` run (see _trials) keeps at
# most this many entries, the least recently used out first. 64 holds every
# distinct instance of 1000 default `dstcon_raw` draws at seed 1 (49). An
# entry keeps its key instance alive: 64 raw `xce` instances at --max-size
# 1000 add 2.7 MB (9%) to the 30.3 MB peak RSS of `verify xce2_to_2lp
# --trials 1000 --max-size 1000` (256 would add 10 MB), and the prepared level
# takes `verify sat2_to_3xce2`'s from 33.1 to 33.3 MB at the same flags. Of the
# 13000 trials of the 13 `verify_mix` names at seed 1, 16.5% hit the raw
# level and 13.4% the prepared one (75% of the calls that reach it).
MEMO_ENTRIES = 64


@dataclass(frozen=True)
class _Trial:
    """What the stages after generation leave for the folds, for one
    prepared instance, or a skip of `prepare` for one raw instance. A run's
    memo hands the same record to every trial whose instance prepares to an
    equal one, so nothing mutates it: the record is frozen, `struct` is a
    tuple, and the folds and their callers only read `report`. A skipped
    trial carries only the reason."""

    report: object = None  # ReductionReport, or None
    equiv: bool = True  # both oracles agree (True when not decided)
    struct: tuple[str, ...] = ()
    skipped: str | None = None


def _decide_output(out) -> tuple[bool | None, bool]:
    """(yes, whether the checker accepts a YES witness) for a reduction's
    output; yes is None when its decider raises ValueError or IndexError on
    an output that `validate` rejects too. On a valid output that error is
    the decider's fault and propagates; a BudgetError always does."""
    if isinstance(out, bool):
        return out, True
    try:
        yes, _, ok = oracles.decide(out)
    except oracles.BudgetError:
        raise
    except (ValueError, IndexError):
        if validate(out):
            return None, True
        raise
    return yes, ok


def _prepare(plan: VerifierPlan, settle, raw) -> _Trial:
    """`settle`'s record of the prepared instance of a generated one, or a
    skip when `prepare` rejects the instance or goes over an oracle budget."""
    try:
        src = plan.prepare(raw)
    except (oracles.BudgetError, reductions.PreconditionError) as exc:
        return _Trial(skipped=str(exc))
    return settle(src)


def _settle(plan: VerifierPlan, decide: bool, src) -> _Trial:
    """reduce on a prepared instance (the generated one when the plan has
    no `prepare`), then with `decide` both oracles, the checks of their YES
    witnesses, and `validate` on an output that is not a bool, under the
    plan's `out_tags`: each violation is a `<rule>:<detail>` structural
    failure. An instance over an oracle budget or outside a reduction's
    precondition is skipped rather than ending the run. A malformed output
    that its decider cannot decide is also an `undecidable:<class>`
    structural failure, with equivalence undecided."""
    try:
        out, report = plan.reduce(src)
        if not decide:
            return _Trial(report)
        yes_in, _, ok_in = oracles.decide(src)
        yes_out, ok_out = _decide_output(out)
    except (oracles.BudgetError, reductions.PreconditionError) as exc:
        return _Trial(skipped=str(exc))
    struct = [f"witness:{type(x).__name__}"
              for x, ok in ((src, ok_in), (out, ok_out)) if not ok]
    if yes_out is None:
        struct.append(f"undecidable:{type(out).__name__}")
    if not isinstance(out, bool):
        struct += [f"{v.rule}:{v.detail}" for v in validate(out, plan.out_tags)]
    return _Trial(report, yes_out is None or yes_in == yes_out, tuple(struct))


def _trials(plan: VerifierPlan, trials: int,
            decide: bool) -> Iterator[tuple[int, object, _Trial]]:
    """(seed, generated instance, record) for each trial of one run, in
    trial order. Every trial runs `generate`, since each draws its own
    stream; the rest depends only on the plan and the instance (instances
    are immutable, reductions and oracles pure), so each stage runs once per
    distinct input it reads: `_prepare` per generated instance, `_settle`
    per prepared one (per generated one for a plan with no `prepare`). Each
    level's memo belongs to this call and holds MEMO_ENTRIES instances at
    most. An error other than a skip is stored at neither level and
    propagates at the first trial that meets it."""
    settle = lru_cache(maxsize=MEMO_ENTRIES)(partial(_settle, plan, decide))
    if plan.prepare:
        settle = lru_cache(maxsize=MEMO_ENTRIES)(partial(_prepare, plan, settle))
    for t in range(trials):
        raw = generate(plan.genspec, t)
        yield plan.genspec.seed + t, raw, settle(raw)


def verify(name: str, plan: VerifierPlan, trials: int) -> VerifyResult:
    """Generate / prepare / reduce / compare both oracles, `trials` times,
    under the run's name, for a plan `resolve` or a test builds.

    Failures never abort the run; each kind is collected with a reproducing
    seed and the serialized instance, and a trial over an oracle budget or
    outside a reduction's precondition is recorded as skipped.
    """
    started = time.perf_counter()
    result = VerifyResult(name=name, trials=trials)
    for seed, raw, rec in _trials(plan, trials, decide=True):
        if rec.skipped is not None:
            result.skipped.append((seed, rec.skipped))
            continue
        if not rec.equiv:
            result.equiv_failures.append((seed, serialize(raw)))
        report = rec.report
        if report is not None:
            if not report.shortness_ok:
                result.shortness_failures.append((seed, serialize(raw)))
            # the input parameter is clamped into N+ and every k1 is >= 1
            result.max_ratio = max(result.max_ratio, (report.output_param.value - report.k2)
                                   / (report.k1 * report.input_param.value))
        result.structural_failures.extend((seed, msg) for msg in rec.struct)
    result.wall_time = time.perf_counter() - started
    return result


# The old name of `verify`, bound to the same function object, since the
# benchmark's span tracer (bench/spans.py) wraps it by this name; the
# benchmark re-record of ROADMAP item 11 retires it.
verify_m_reduction = verify


def verify_T_reduction(trials: int, seed: int = 1, max_size: int | None = None) -> VerifyResult:
    """The exploratory oracle-reduction run: the plan of
    `ap2dm_to_dstcon_queries` over arbitrary random 4-overlapping instances
    in place of its matching gadgets, with disagreements recorded as
    findings only. Per-query sizes are enforced against the |X| bound.
    max_size defaults to 5.

    Linkage needs no separate symmetry check: under a perfect matching, v
    links to w exactly when w = pi^k(v) for some even k >= 2 (acceptance
    criterion 8), and then v = pi^(L-k)(w) on their common cycle of length
    L, where L - k is even whenever L is even and every offset qualifies
    when L is odd. So linkage is symmetric on every matching by proof.
    """
    name = "ap2dm_to_dstcon_queries"
    plan = resolve(name, seed, max_size)
    plan = replace(plan, genspec=replace(plan.genspec, problem="ap2dm"), prepare=None)
    result = verify(name + "_exploratory", plan, trials)
    result.findings, result.equiv_failures = result.equiv_failures, []
    return result


def fit_shortness(name: str, trials: int, seed: int = 1) -> dict:
    """Observed input/output size pairs, the tightest fitting constants, and
    a ratio histogram, alongside the declared constants. The trials are
    those of `verify` on `resolve(name, seed)`, with the oracle stages left
    out."""
    pairs: list[tuple[int, int]] = []
    declared = None
    plan = resolve(name, seed)
    for _, _, rec in _trials(plan, trials, decide=False):
        if rec.report is None:
            continue
        declared = (rec.report.k1, rec.report.k2)
        pairs.append((rec.report.input_param.value, rec.report.output_param.value))
    k1, k2 = declared if declared else (1, 0)
    fit_k1 = max((o / i) for i, o in pairs) if pairs else 0.0  # with k2 = 0
    fit_k2 = max((o - k1 * i) for i, o in pairs) if pairs else 0  # with declared k1
    max_ratio = max(((o - k2) / (k1 * i)) for i, o in pairs) if pairs else 0.0
    hist: dict[str, int] = {}
    for i, o in pairs:
        bucket = f"{(o - k2) / (k1 * i):.2f}"
        hist[bucket] = hist.get(bucket, 0) + 1
    return {
        "name": name,
        "declared": (k1, k2),
        "observed_pairs": len(pairs),
        "max_ratio": max_ratio,
        "fit_k1_with_k2_0": fit_k1,
        "fit_k2_with_declared_k1": fit_k2,
        "histogram": dict(sorted(hist.items())),
    }
