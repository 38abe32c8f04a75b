"""The naive oracles and Hypothesis strategies that the test modules share.

Each oracle works from the definitions alone, by brute force: the
breadth-first closure of the generators, every coefficient vector, every
pair of subsets, every pair of int masks over a window.  None imports a
private name of `finpow`, so an oracle shares no code with the core it
checks.
"""

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from finpow.arith import QPoint2
from finpow.backend import MonoidSpec
from finpow.power import FinSet


def closure(gens, zero, fits) -> set:
    """Breadth-first closure of the generators among the points that fit."""
    out, frontier = {zero}, {zero}
    while frontier:
        frontier = {q + g for q in frontier for g in gens if fits(q + g)} - out
        out |= frontier
    return out


def naive_members(gens, top) -> set:
    """The members of the monoid generated by `gens` in the box [0, top]: up
    to `top` on the line, up to it in each coordinate in the plane.  Every
    generator is nonnegative in each coordinate, so the partial sums of a
    representation of a member of the box stay inside it."""
    if isinstance(top, QPoint2):
        zero = QPoint2(Fraction(0), Fraction(0))
        return closure(gens, zero, lambda q: q.x <= top.x and q.y <= top.y)
    return closure(gens, Fraction(0), lambda q: q <= top)


def naive_divisors(elems, members: set) -> list:
    """The common divisors of the elements, the d in M with every e - d in
    M, ascending; `members` holds M up to the largest element."""
    return sorted(d for d in members if all(e - d in members for e in elems))


def naive_atoms(gens) -> list:
    """The atoms: the generators that the closure of the others misses."""
    return [g for i, g in enumerate(gens) if g not in naive_members(gens[:i] + gens[i + 1:], g)]


def naive_representations(b, gens) -> list:
    """All coefficient vectors over gens summing to b, of rank 1 or 2, in
    ascending order.  Every generator is nonzero and nonnegative in each
    coordinate, so a residual that leaves the box [0, b] is dropped."""
    zero = b - b
    out = []

    def inside(r):
        return r.x >= 0 and r.y >= 0 if isinstance(r, QPoint2) else r >= 0

    def rec(i, rest, acc):
        if i == len(gens):
            if rest == zero:
                out.append(tuple(acc))
            return
        k = 0
        while inside(rest):
            rec(i + 1, rest, acc + [k])
            rest, k = rest - gens[i], k + 1

    rec(0, b, [])
    return out


def naive_factorizations(b, atoms) -> set:
    """The factorizations of b over the atoms, each the (atom, count) pairs
    of its nonzero counts."""
    return {
        tuple((a, k) for a, k in zip(atoms, vec) if k) for vec in naive_representations(b, atoms)
    }


def oracle_pairs(s, members: set) -> set:
    """Every (U, V) of finite subsets of M with U + V = s.

    `members` must hold every member of M below the elements of s.  U ranges
    over the subsets of the divisors of the elements of s with at most |s|
    elements, V over the subsets of the divisors m with U + m inside s."""
    target = set(s.elems)
    divs = sorted(d for d in members if any(x - d in members for x in target))
    pairs = set()
    for k in range(1, len(s) + 1):
        for u in itertools.combinations(divs, k):
            fit = [m for m in divs if all(e + m in target for e in u)]
            for j in range(1, len(fit) + 1):
                for v in itertools.combinations(fit, j):
                    if {e + m for e in u for m in v} == target:
                        pairs.add((u, v))
    return pairs


def window_pairs(members, n: int) -> dict:
    """Every (U, V) of nonempty sets of members of the window [0, n] whose
    sumset lies in it, listed under that sumset, as int masks.

    `members` holds the members of M in the window as ints, on the lattice
    of the spec's scaled form.  Bit i of a mask stands for the element i,
    so U + V is the OR of V << u over the u in U.  M holds no negative
    element, so every (U, V) with U + V = T for a T in the window is here."""
    subsets = [0]
    for m in sorted(members):
        subsets += [s | 1 << m for s in subsets]
    subsets = sorted(subsets)[1:]
    pairs: dict = {}
    for u in subsets:
        elems = [i for i in range(u.bit_length()) if u >> i & 1]
        # max V is at most n - max U; the masks ascend, and so do their maxima
        room = 1 << (n - elems[-1] + 1)
        for v in subsets:
            if v >= room:
                break
            w = 0
            for e in elems:
                w |= v << e
            pairs.setdefault(w, []).append((u, v))
    return pairs


def finsets(pool, max_size: int = 3):
    """Sets of one to `max_size` elements drawn from `pool`."""
    return st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=max_size).map(
        lambda xs: FinSet(tuple(xs))
    )


numerical_specs = st.lists(st.integers(2, 7), min_size=1, max_size=3, unique=True).map(
    lambda gs: MonoidSpec.numerical(*gs)
)
small_rationals = st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 2, 3, 4, 6)))
puiseux_specs = st.lists(small_rationals, min_size=1, max_size=3, unique=True).map(
    lambda gs: MonoidSpec.puiseux(*gs)
)
small_points = st.builds(
    QPoint2,
    st.builds(Fraction, st.integers(0, 3), st.sampled_from((1, 2, 3))),
    st.builds(Fraction, st.integers(0, 3), st.sampled_from((1, 2, 4))),
).filter(lambda g: g > QPoint2(Fraction(0), Fraction(0)))
rank2_specs = st.lists(small_points, min_size=1, max_size=3, unique=True).map(
    lambda gs: MonoidSpec.rank2(*gs)
)
