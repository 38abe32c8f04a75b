"""Chains, atom divisors, canonical decompositions, and the rank-2 machinery."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpow.arith import InvalidInputError, QPoint2
from finpow.atomicity import (
    PROJECTION_GAP,
    PROJECTION_HEADS,
    UNATTAINABLE_OFFSET,
    DescentReport,
    accp_chain_explore,
    atom_divisors,
    canonical_decomp_Q,
    ffm_count,
    is_furstenberg_sample,
    k_of,
    lemma54_sum_witness,
    p_accp_chain_explore,
    p_furstenberg_divisor,
    rank2_atom,
    thm55_projection_check,
    tidf_implies_atomic_check,
)
from finpow.backend import Budget, MonoidSpec, clear_caches, member
from finpow.power import FinSet, is_p_atom, singleton, sumset, zero_set
from oracles import finsets, naive_atoms, naive_members, numerical_specs, oracle_pairs

N23 = MonoidSpec.numerical(2, 3)


class TestAccpChains:
    def test_numerical_chain(self):
        rep = accp_chain_explore(6, N23)
        assert rep.chain == (6, 4, 2, 0)
        assert rep.stabilized
        assert rep.length == 4

    def test_chain_steps_are_proper_divisors(self):
        rep = accp_chain_explore(12, N23)
        for a, b in zip(rep.chain, rep.chain[1:]):
            assert b != a and member(a - b, N23)

    def test_maxlen_truncation(self):
        rep = accp_chain_explore(30, N23, maxlen=2)
        assert not rep.stabilized
        assert rep.length == 3  # the start plus maxlen descent steps

    def test_set_chain(self):
        rep = p_accp_chain_explore(FinSet((4, 5, 6, 7)), N23)
        assert rep.stabilized
        profile = [len(s) for s in rep.chain]
        assert all(a >= b for a, b in zip(profile, profile[1:]))
        assert rep.chain[-1] == FinSet((0,))


class TestFurstenberg:
    def test_numerical_sample(self):
        rep = is_furstenberg_sample(N23, 50)
        assert rep.ok and bool(rep)

    def test_bound_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            is_furstenberg_sample(N23, 0)

    def test_a_rank2_spec_is_refused_before_any_node(self):
        # the members below a bound are listed for rank-1 specs only; the
        # refusal comes before the atoms are read, so a cold cache costs 0
        clear_caches()
        bud = Budget(0)
        with pytest.raises(InvalidInputError, match="^Furstenberg sample requires a rank-1 spec$"):
            is_furstenberg_sample(MonoidSpec.of_family("RANK2-5.3", 2, (F(7, 3),)), F(1), bud)
        assert bud.used == 0

    def test_p_divisor_of_atom_is_itself(self):
        assert p_furstenberg_divisor(FinSet((2, 3)), N23) == FinSet((2, 3))

    def test_p_divisor_via_singleton(self):
        d = p_furstenberg_divisor(singleton(4), N23)
        assert d == singleton(2)

    def test_p_divisor_is_certified_atom_divisor(self):
        s = FinSet((4, 5, 6, 7))
        d = p_furstenberg_divisor(s, N23)
        assert is_p_atom(d, N23).is_atom
        from finpow.power import divides_in_P

        assert divides_in_P(d, s, N23) is not None

    def test_zero_set_rejected(self):
        with pytest.raises(InvalidInputError):
            p_furstenberg_divisor(singleton(0), N23)


class TestAtomDivisorsAndCounts:
    def test_atom_divisors(self):
        assert atom_divisors(6, N23) == [2, 3]
        assert atom_divisors(2, N23) == [2]

    @pytest.mark.parametrize(
        "b, spec",
        [
            (F(6), MonoidSpec.rank2(QPoint2(F(0), F(1)), QPoint2(F(1), F(0)))),
            (QPoint2(F(0), F(6)), N23),
        ],
    )
    def test_atom_divisors_refuses_an_element_of_the_wrong_kind(self, b, spec):
        # refused before `atoms`, which would spend nodes on a cold cache
        clear_caches()
        bud = Budget(0)
        with pytest.raises(InvalidInputError, match="does not match spec"):
            atom_divisors(b, spec, bud)
        assert bud.used == 0

    def test_ffm_counts(self):
        assert ffm_count(6, N23) == 2  # 2+2+2 and 3+3
        assert ffm_count(7, N23) == 1  # 2+2+3
        assert ffm_count(0, N23) == 1  # the empty product

    def test_descent_check(self):
        rep = tidf_implies_atomic_check(N23, 30)
        assert rep.ok
        assert 0 < rep.max_descent <= 15

    def test_a_descent_report_is_true_iff_ok(self):
        assert tidf_implies_atomic_check(N23, 30) and not DescentReport(False, counterexample=F(1))


# ---------------------------------------------------------------------------
# Brute-force oracles over small generated numerical specs


def naive_is_p_atom(s: FinSet, members: set) -> bool:
    return s.elems != (0,) and all(
        u == (0,) or v == (0,) for u, v in oracle_pairs(s, members)
    )


def naive_furstenberg_divisor(s: FinSet, spec: MonoidSpec, members: set) -> FinSet:
    """The atom `p_furstenberg_divisor` picks: s itself if it is an atom, else
    the least atom dividing the largest nonzero d with {d} dividing s, else
    the least (size, elements) proper divisor with two or more elements."""
    if naive_is_p_atom(s, members):
        return s
    divs = {u for u, _ in oracle_pairs(s, members)}
    single = [u[0] for u in divs if len(u) == 1 and u != (0,)]
    if single:
        d = max(single)
        return singleton(next(a for a in naive_atoms(spec.generators) if d - a in members))
    return FinSet(min((u for u in divs if len(u) >= 2 and u != s.elems), key=lambda u: (len(u), u)))


def naive_max_descent(spec: MonoidSpec, bound: int) -> int:
    """The most steps q -> q - (least atom dividing q) from a member up to
    the bound down to 0."""
    members, ats = naive_members(spec.generators, bound), naive_atoms(spec.generators)
    worst = 0
    for b in sorted(members):
        if 0 < b <= bound:
            q, steps = b, 0
            while q:
                q -= next(a for a in ats if q - a in members)
                steps += 1
            worst = max(worst, steps)
    return worst


class TestAtomicityOracles:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_p_furstenberg_divisor(self, spec, data):
        part = finsets(naive_members(spec.generators, 8))
        s = data.draw(st.one_of(part, st.tuples(part, part).map(lambda p: sumset(*p))))
        if s == zero_set(spec):
            with pytest.raises(InvalidInputError):
                p_furstenberg_divisor(s, spec)
            return
        members = naive_members(spec.generators, s.max)
        got = p_furstenberg_divisor(s, spec)
        assert got == naive_furstenberg_divisor(s, spec, members)
        # the certificate: an atom of P_fin(M) that divides s
        assert naive_is_p_atom(got, members)
        assert any(u == got.elems for u, _ in oracle_pairs(s, members))

    @given(numerical_specs, st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_tidf_implies_atomic_check(self, spec, bound):
        rep = tidf_implies_atomic_check(spec, bound)
        assert rep.ok and rep.counterexample is None
        assert rep.max_descent == naive_max_descent(spec, bound)


class TestCanonicalDecomp:
    def test_k_values(self):
        assert k_of(F(7, 3)) == 0
        assert k_of(F(32, 15)) == 1
        assert k_of(F(38, 15)) == 0

    def test_decomp_32_15(self):
        d = canonical_decomp_Q(F(32, 15))
        assert d.ell == 1
        assert d.coeffs == ((3, 1), (5, 4))
        assert d.value == F(32, 15)

    def test_decomp_38_15(self):
        d = canonical_decomp_Q(F(38, 15))
        assert d.ell == 2
        assert d.coeffs == ((3, 1), (5, 1))

    def test_integer_decomp(self):
        d = canonical_decomp_Q(F(3))
        assert d.ell == 3 and d.coeffs == ()

    def test_decomp_with_a_large_prime(self):
        d = canonical_decomp_Q(F(1, 3) + F(1, 10007))
        assert d.ell == 0
        assert d.coeffs == ((3, 1), (10007, 1))

    def test_even_denominator_rejected(self):
        with pytest.raises(InvalidInputError, match="^1/2 has even denominator$"):
            canonical_decomp_Q(F(1, 2))

    def test_repeated_prime_rejected(self):
        for q in (F(1, 9), F(2, 75), F(1, 3 * 10007**2)):
            with pytest.raises(InvalidInputError, match="has a repeated odd prime"):
                canonical_decomp_Q(q)

    def test_random_reconstruction(self):
        rng = random.Random(20260826)
        primes = (3, 5, 7, 11, 13)
        for _ in range(200):
            ell = rng.randrange(-3, 4)
            chosen = rng.sample(primes, rng.randrange(0, 4))
            q = F(ell) + sum((F(rng.randrange(0, p), p) for p in chosen), F(0))
            d = canonical_decomp_Q(q)
            assert d.value == q
            assert all(0 < c < p for p, c in d.coeffs)


class TestRank2Atoms:
    def test_branch_heads(self):
        a = rank2_atom(F(7, 3), "A")
        assert a == QPoint2(F(1, 5), F(7, 3) + F(1))
        b = rank2_atom(F(7, 3), "B")
        assert b.x == F(1, 7)

    def test_k_shifts_second_coordinate(self):
        # k(32/15) = 1, so the dyadic tail is 1/2.
        a = rank2_atom(F(32, 15), "A")
        assert a.y == F(32, 15) + F(1, 2)

    def test_domain_and_branch_validation(self):
        with pytest.raises(InvalidInputError):
            rank2_atom(F(7, 2), "A")
        with pytest.raises(InvalidInputError):
            rank2_atom(F(7, 3), "C")


class TestLemma54:
    def test_baseline_identity(self):
        cert = lemma54_sum_witness(F(7, 3), F(7, 3), branches=("A", "B"))
        assert cert.p == 5
        assert cert.right[0] == rank2_atom(F(32, 15), "A")
        assert cert.right[1] == rank2_atom(F(38, 15), "B")
        assert cert.increment == QPoint2(F(0), F(1, 2))
        assert cert.multiplicity == 1
        assert cert.resums_exactly()

    def test_same_branch_identity(self):
        cert = lemma54_sum_witness(F(7, 3), F(7, 3), branches=("A", "A"))
        assert cert.increment == QPoint2(F(0), F(1, 2))
        assert cert.resums_exactly()

    def test_random_inputs(self):
        rng = random.Random(99)
        primes = (3, 5, 7, 11)
        for _ in range(25):
            def draw():
                while True:
                    ps = rng.sample(primes, rng.randrange(1, 3))
                    q = F(2) + sum((F(rng.randrange(1, p), p) for p in ps), F(0))
                    if F(2) < q < F(3):
                        return q

            cert = lemma54_sum_witness(draw(), draw())
            assert cert.resums_exactly()

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            lemma54_sum_witness(F(1, 3), F(7, 3))


class TestThm55Projection:
    SPEC = MonoidSpec.rank2(
        QPoint2(F(0), F(1, 2)),
        QPoint2(F(0), F(1, 4)),
        rank2_atom(F(7, 3), "A"),
        rank2_atom(F(7, 3), "B"),
    )

    def test_constants(self):
        assert PROJECTION_HEADS == (F(0), F(1, 5), F(1, 7))
        assert PROJECTION_GAP == F(2, 35)
        assert UNATTAINABLE_OFFSET == F(1, 35)

    def test_vacuous(self):
        assert thm55_projection_check([], self.SPEC).ok

    @pytest.mark.parametrize("atoms", [[], [FinSet((F(2),))]])
    def test_a_rank1_spec_is_refused(self, atoms):
        with pytest.raises(InvalidInputError, match="^thm55_projection_check needs a rank-2 spec$"):
            thm55_projection_check(atoms, N23, Budget(0))

    def test_structural_atoms_pass(self):
        g = rank2_atom(F(7, 3), "A")
        h = rank2_atom(F(7, 3), "B")
        zero = QPoint2(F(0), F(0))
        atoms = [
            FinSet((g,)),
            FinSet((zero, g)),
            FinSet((QPoint2(F(0), F(1, 4)), h)),
        ]
        rep = thm55_projection_check(atoms, self.SPEC)
        assert rep.ok and rep, rep.detail

    def test_an_offset_of_exactly_the_gap_passes(self):
        # {h, g} is an atom whose minimum h has x = 1/7, and g has x = 1/5:
        # its offset 2/35 is the gap itself, which is attained
        h, g = rank2_atom(F(7, 3), "B"), rank2_atom(F(7, 3), "A")
        assert g.x - h.x == PROJECTION_GAP
        rep = thm55_projection_check([FinSet((h, g))], self.SPEC)
        assert rep.ok, rep.detail

    def test_trichotomy_violation(self):
        bad = FinSet((QPoint2(F(2, 35), F(1)),))
        rep = thm55_projection_check([bad], self.SPEC)
        assert not rep.ok and not rep
        assert rep.detail == "first-coordinate trichotomy violated"

    def test_the_identity_is_refused(self):
        with pytest.raises(InvalidInputError, match=r"^the identity \{0\} is not a candidate atom$"):
            thm55_projection_check([zero_set(self.SPEC)], self.SPEC)

    def test_a_set_that_decomposes_fails(self):
        # {0, (0, 1/4), (0, 1/2)} = {0, (0, 1/4)} + {0, (0, 1/4)}
        bad = FinSet(tuple(QPoint2(F(0), F(k, 4)) for k in range(3)))
        rep = thm55_projection_check([bad], self.SPEC)
        assert (rep.ok, rep.detail, rep.violation) == (False, "input set is not an atom", bad)

    @pytest.mark.parametrize(
        "x, detail",
        [(F(1, 35), "unattainable offset 1/35 attained"), (F(1, 70), "offset inside the gap")],
    )
    def test_an_offset_below_the_gap_fails(self, x, detail):
        # {(0, 1), (x, 1)} is an atom over <(0, 1), (x, 1)>, its offset x
        low, high = QPoint2(F(0), F(1)), QPoint2(x, F(1))
        rep = thm55_projection_check([FinSet((low, high))], MonoidSpec.rank2(low, high))
        assert (rep.ok, rep.detail, rep.violation) == (False, detail, high)
