"""Reference routes the tests compare the deciders against (not collected).

`first_hit` is the one exhaustive scan. The cover and exact-cover searches
prune, in the same order, since cover plans reach 26 vertices; the linkage
tests are the matching definitions by the letter.
"""

from __future__ import annotations

from itertools import product

from redlab.instances import Ap2dmInstance, Parity, UGraph, XceInstance, XorSystem


def first_hit(n: int, digits: tuple, accepts):
    """The first n-digit vector over `digits`, in lexicographic order with
    the first digit most significant, that `accepts` takes, or None."""
    return next((bits for bits in product(digits, repeat=n) if accepts(bits)), None)


def parities_hold(x: XorSystem, bits: tuple[int, ...]) -> bool:
    """Does the 0/1 vector, variable v at bits[v-1], meet every constraint?"""
    return all((bits[con.u - 1] ^ bits[con.v - 1] if isinstance(con, Parity)
                else bits[con.u - 1]) == con.c for con in x.constraints)


def solve_2cvc_enum(g: UGraph) -> tuple[bool, set[int] | None]:
    """Backtracking over the vertices in index order, out before in, with
    each edge checked once its larger endpoint is decided."""
    n = g.num_vertices
    deg = g.degrees()
    # Edge constraints attached to the larger endpoint.
    pending: list[list[tuple[int, bool]]] = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        pending[max(u, v)].append((min(u, v), g.is_grip((u, v), deg)))

    in_set = [False] * (n + 1)

    def extend(v: int) -> bool:
        if v > n:
            return True
        for choice in (False, True):
            in_set[v] = choice
            ok = True
            for earlier, is_grip in pending[v]:
                if not choice and not in_set[earlier]:
                    ok = False  # uncovered edge
                    break
                if choice and in_set[earlier] and not is_grip:
                    ok = False  # non-grip edge fully covered
                    break
            if ok and extend(v + 1):
                return True
        return False

    if extend(1):
        return True, {v for v in range(1, n + 1) if in_set[v]}
    return False, None


def solve_xce_enum(x: XceInstance) -> tuple[bool, list[int] | None]:
    """Backtracking over the collection in index order, included before
    excluded, with per-element use counters."""
    exempt = set(x.exempt)
    need = [e for e in range(1, x.universe_size + 1) if e not in exempt]
    remaining = [0] * (x.universe_size + 1)  # undecided sets still covering e
    for s in x.sets:
        for e in s:
            remaining[e] += 1
    for e in need:
        if remaining[e] == 0:
            return False, None
    count = [0] * (x.universe_size + 1)
    chosen: list[int] = []

    def extend(i: int, uncovered: int) -> bool:
        if i == len(x.sets):
            return uncovered == 0
        s = x.sets[i]
        # include set i
        if all(count[e] == 0 for e in s):
            newly = 0
            for e in s:
                count[e] = 1
                remaining[e] -= 1
                if e not in exempt:
                    newly += 1
            chosen.append(i + 1)
            if extend(i + 1, uncovered - newly):
                return True
            chosen.pop()
            for e in s:
                count[e] = 0
                remaining[e] += 1
        # exclude set i
        dead = False
        for e in s:
            remaining[e] -= 1
            if remaining[e] == 0 and count[e] == 0 and e not in exempt:
                dead = True
        if not dead and extend(i + 1, uncovered):
            return True
        for e in s:
            remaining[e] += 1
        return False

    if extend(0, len(need)):
        return True, list(chosen)
    return False, None


def linked_by_chain(a: Ap2dmInstance, pi: tuple[int, ...], v: int, w: int) -> bool:
    """Literal chain test: an odd-length series z_1..z_t with (v,z_1), the
    consecutive pairs, and (z_t,w) all in the matching.

    In a perfect matching the witness series is forced: z_1 = pi(v) and
    z_{i+1} = pi(z_i), so the search walks pi and tests (z_t, w) at each odd
    t up to 2|X|-1, past which the walk has certainly cycled.
    """
    z = pi[v - 1]  # z_1
    for _ in range(a.universe_size):  # t = 1, 3, 5, ...
        if pi[z - 1] == w:
            return True
        z = pi[pi[z - 1] - 1]  # z_{t+2}
    return False


def linked_by_power(pi: tuple[int, ...], v: int, w: int) -> bool:
    """Permutation-power test: w = pi^k(v) for some even k with 2 <= k <= 2|X|."""
    z = v
    for k in range(1, 2 * len(pi) + 1):
        z = pi[z - 1]
        if k % 2 == 0 and k >= 2 and z == w:
            return True
    return False
