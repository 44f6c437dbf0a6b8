"""Unit tests for linear atom extraction, simplex, and integer search."""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import INT, add, int_const, mul, neg, sub, var
from repro.smt.intsolve import IntBudgetExceeded, check_integer
from repro.smt.linear import (
    _ATOM_MEMO,
    LinAtom,
    NonlinearError,
    _build_atom,
    atom_from_comparison,
    atom_order_key,
    clear_memo,
    linearize,
    make_atom,
)
from repro.smt.simplex import check_rational
from repro.smt.terms import Kind, SortError
from tests.test_smt_property import int_terms

x = var("x", INT)
y = var("y", INT)
z = var("z", INT)


class TestLinearize:
    def test_constant(self):
        coeffs, k = linearize(int_const(7))
        assert coeffs == {} and k == 7

    def test_variable(self):
        coeffs, k = linearize(x)
        assert coeffs == {x: 1} and k == 0

    def test_sum_and_negation(self):
        coeffs, k = linearize(sub(add(x, y, int_const(3)), x))
        assert coeffs == {x: 0, y: 1} and k == 3

    def test_scaling(self):
        coeffs, k = linearize(mul(int_const(3), add(x, int_const(2))))
        assert coeffs == {x: 3} and k == 6

    def test_nonlinear_rejected(self):
        with pytest.raises(NonlinearError):
            linearize(mul(x, y))

    def test_neg_neg(self):
        coeffs, k = linearize(neg(neg(x)))
        assert coeffs == {x: 1}


    def test_leaves_no_cyclic_garbage(self):
        term = add(mul(int_const(3), sub(x, y)), neg(add(z, int_const(4))))
        gc.collect()
        gc.disable()
        try:
            assert linearize(term) == ({x: 3, y: -3, z: -1}, -4)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCanonicalAtoms:
    def test_gcd_tightening(self):
        # 3x <= 4  tightens to  x <= 1.
        atom = make_atom({x: 3}, 4)
        assert atom.coeffs == ((x, 1),) and atom.constant == 1

    def test_gcd_tightening_negative(self):
        # -3x <= -1  tightens to  -x <= -1, i.e. x >= 1.
        atom = make_atom({x: -3}, -1)
        assert atom.coeffs == ((x, -1),) and atom.constant == -1

    def test_negation_roundtrip(self):
        atom = make_atom({x: 1, y: -1}, 3)
        neg_atom = atom.negate()
        assert neg_atom.constant == -4
        assert dict(neg_atom.coeffs) == {x: -1, y: 1}

    def test_trivial_atoms(self):
        assert make_atom({}, 0).is_trivially_true
        assert make_atom({}, -1).is_trivially_false

    def test_atom_from_lt_adjusts_constant(self):
        atom = atom_from_comparison(Kind.LT, x, int_const(5))
        assert atom.constant == 4

    def test_tightening_floors_negative_constants(self):
        # 2x - 4y <= -3  tightens to  x - 2y <= floor(-3/2) = -2.
        atom = make_atom({x: 2, y: -4}, -3)
        assert atom.constant == -2 and type(atom.constant) is int

    def test_order_key_is_structural(self):
        atoms = [
            make_atom({y: 1}, 0),
            make_atom({x: 1, y: -1}, 2),
            make_atom({x: 1}, 5),
            make_atom({x: 1, y: -1}, -1),
            make_atom({x: -1}, 5),
        ]
        ordered = sorted(atoms, key=atom_order_key)
        assert [str(a) for a in ordered] == [
            "-1*x <= 5",
            "x <= 5",
            "x + -1*y <= -1",
            "x + -1*y <= 2",
            "y <= 0",
        ]
        # Equal atoms, and only those, share a key.
        assert atom_order_key(make_atom({y: -1, x: 1}, 2)) == atom_order_key(atoms[1])

    def test_zero_coefficients_dropped(self):
        atom = make_atom({x: 0, y: 1}, 2)
        assert dict(atom.coeffs) == {y: 1}


class TestAtomMemo:
    """``atom_from_comparison`` memoizes across calls; the memo must be
    invisible."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([Kind.LE, Kind.LT]), int_terms(2), int_terms(2))
    def test_memoized_atom_is_uncached_atom(self, kind, left, right):
        atom = atom_from_comparison(kind, left, right)
        assert atom_from_comparison(kind, left, right) is atom
        assert atom == _build_atom(kind, left, right)

    def test_failures_raise_every_time_and_are_not_memoized(self):
        clear_memo()
        for _ in range(2):
            with pytest.raises(NonlinearError):
                atom_from_comparison(Kind.LE, mul(x, y), z)
            with pytest.raises(SortError):
                atom_from_comparison(Kind.EQ, x, y)
        assert not _ATOM_MEMO


class TestSimplex:
    def test_feasible_box(self):
        atoms = [make_atom({x: 1}, 5), make_atom({x: -1}, -3)]  # 3 <= x <= 5
        result = check_rational(atoms)
        assert result.feasible
        assert Fraction(3) <= result.assignment[x] <= Fraction(5)

    def test_infeasible_bounds(self):
        atoms = [make_atom({x: 1}, 2), make_atom({x: -1}, -3)]  # x<=2 and x>=3
        assert not check_rational(atoms).feasible

    def test_row_interaction(self):
        # x + y <= 1, x >= 1, y >= 1 is infeasible.
        atoms = [
            make_atom({x: 1, y: 1}, 1),
            make_atom({x: -1}, -1),
            make_atom({y: -1}, -1),
        ]
        assert not check_rational(atoms).feasible

    def test_three_variable_chain(self):
        # x <= y <= z <= x forces equality; feasible.
        atoms = [
            make_atom({x: 1, y: -1}, 0),
            make_atom({y: 1, z: -1}, 0),
            make_atom({z: 1, x: -1}, 0),
        ]
        result = check_rational(atoms)
        assert result.feasible
        assert result.assignment[x] == result.assignment[y] == result.assignment[z]

    def test_strict_cycle_infeasible(self):
        # x < y < x  encoded over integers as x <= y-1, y <= x-1.
        atoms = [make_atom({x: 1, y: -1}, -1), make_atom({y: 1, x: -1}, -1)]
        assert not check_rational(atoms).feasible

    def test_unbounded_direction(self):
        atoms = [make_atom({x: -1, y: 1}, 0)]  # y <= x
        assert check_rational(atoms).feasible


    def test_bounds_only_values_are_ints_clamped_from_zero(self):
        atoms = [
            make_atom({x: 1}, 5),
            make_atom({x: -1}, -3),  # 3 <= x <= 5
            make_atom({y: 1}, -2),  # y <= -2
            make_atom({z: -1}, 4),  # z >= -4: 0 already fits
        ]
        result = check_rational(atoms)
        assert result.feasible and result.pivots == 0
        assert list(result.assignment.items()) == [(x, 3), (y, -2), (z, 0)]
        assert all(type(v) is int for v in result.assignment.values())

    def test_one_pivot_gives_exact_fractions(self):
        # 2x + 3y >= 7 with x <= 0.  x cannot move up, so Bland's rule
        # pivots on y: y = 7/3, and the row becomes y = -1/3 s - 2/3 x.
        atoms = [make_atom({x: -2, y: -3}, -7), make_atom({x: 1}, 0)]
        result = check_rational(atoms)
        assert result.feasible and result.pivots == 1
        assert list(result.assignment.items()) == [
            (("__slack__", 0), -7),
            (x, 0),
            (y, Fraction(7, 3)),
        ]
        assert type(result.assignment[x]) is int
        assert type(result.assignment[y]) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
                st.integers(-6, 6),
            ),
            max_size=6,
        )
    )
    def test_assignment_is_exact_and_never_float(self, rows):
        atoms = [make_atom({x: a, y: b, z: c}, k) for a, b, c, k in rows]
        result = check_rational(atoms)
        assert all(type(v) in (int, Fraction) for v in result.assignment.values())
        if result.feasible:
            for atom in atoms:
                total = sum(c * result.assignment.get(v, 0) for v, c in atom.coeffs)
                assert total <= atom.constant


class TestIntegerSearch:
    def test_integral_model_returned(self):
        atoms = [make_atom({x: 2}, 7), make_atom({x: -2}, -7)]  # 7/2 <= ... tight
        # After tightening: x <= 3 and x >= 4: infeasible.
        result = check_integer(atoms)
        assert not result.feasible

    def test_branch_and_bound_finds_lattice_point(self):
        # 2x + 2y = 4 with x, y >= 0: rational center may be fractional.
        atoms = [
            make_atom({x: 2, y: 2}, 4),
            make_atom({x: -2, y: -2}, -4),
            make_atom({x: -1}, 0),
            make_atom({y: -1}, 0),
        ]
        result = check_integer(atoms)
        assert result.feasible
        assert result.model[x] + result.model[y] == 2

    def test_model_satisfies_all_atoms(self):
        atoms = [
            make_atom({x: 3, y: 5}, 22),
            make_atom({x: -1}, -1),
            make_atom({y: -1}, -2),
        ]
        result = check_integer(atoms)
        assert result.feasible
        m = result.model
        assert 3 * m[x] + 5 * m[y] <= 22 and m[x] >= 1 and m[y] >= 2

    def test_budget_raises(self):
        atoms = [make_atom({x: 1, y: -1}, 0)]
        with pytest.raises(IntBudgetExceeded):
            check_integer(atoms, budget=0)

    def test_work_counters(self):
        # 2x + 3y = 7, x, y >= 0 needs branching: the root relaxation
        # puts y at 7/3.
        atoms = [
            make_atom({x: 2, y: 3}, 7),
            make_atom({x: -2, y: -3}, -7),
            make_atom({x: -1}, 0),
            make_atom({y: -1}, 0),
        ]
        result = check_integer(atoms)
        assert result.feasible and 2 * result.model[x] + 3 * result.model[y] == 7
        assert result.nodes > 1 and result.pivots > 0
        with pytest.raises(IntBudgetExceeded) as raised:
            check_integer(atoms, budget=1)
        assert raised.value.nodes == 1 and raised.value.pivots > 0

    def test_empty_conjunction_feasible(self):
        assert check_integer([]).feasible

    def test_trivially_false_atom(self):
        assert not check_integer([LinAtom((), -1)]).feasible
