"""Unit tests for the term simplifier."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.smt.simplify as simplify_module
from repro import smt
from repro.smt import (
    BOOL,
    INT,
    add,
    and_,
    array_sort,
    bool_const,
    distinct,
    eq,
    false,
    iff,
    implies,
    int_const,
    ite,
    le,
    lt,
    mul,
    neg,
    not_,
    or_,
    select,
    store,
    true,
    var,
)
from repro.smt.linear import _ATOM_MEMO, atom_from_comparison
from repro.smt.simplify import simplify
from repro.smt.terms import Kind
from tests.test_smt_property import bool_terms, int_terms

x = var("x", INT)
y = var("y", INT)
p = var("p", BOOL)
q = var("q", BOOL)
mem = var("m", array_sort(INT, INT))


class TestConstantFolding:
    def test_arithmetic(self):
        assert simplify(add(int_const(2), int_const(3))) is int_const(5)
        assert simplify(mul(int_const(4), int_const(5))) is int_const(20)
        assert simplify(neg(int_const(7))) is int_const(-7)

    def test_comparisons(self):
        assert simplify(le(int_const(1), int_const(2))).is_true
        assert simplify(lt(int_const(2), int_const(2))).is_false
        assert simplify(eq(int_const(3), int_const(3))).is_true

    def test_nested_folding(self):
        term = add(add(x, int_const(1)), add(int_const(2), int_const(3)))
        result = simplify(term)
        # Constants collected: x + 6.
        assert result.kind is Kind.ADD
        consts = [a for a in result.args if a.is_const]
        assert len(consts) == 1 and consts[0].payload == 6


class TestBooleanIdentities:
    def test_double_negation(self):
        assert simplify(not_(not_(p))) is p

    def test_and_absorbs_true(self):
        assert simplify(and_(p, true())) is p

    def test_and_short_circuits_false(self):
        assert simplify(and_(p, false(), q)).is_false

    def test_or_short_circuits_true(self):
        assert simplify(or_(p, true())).is_true

    def test_complementary_literals(self):
        assert simplify(and_(p, not_(p))).is_false
        assert simplify(or_(p, not_(p))).is_true

    def test_flattening_and_dedup(self):
        assert simplify(and_(and_(p, q), p)) is simplify(and_(p, q))

    def test_implies(self):
        assert simplify(implies(false(), p)).is_true
        assert simplify(implies(true(), p)) is p
        assert simplify(implies(p, false())) is not_(p)

    def test_iff(self):
        assert simplify(iff(p, p)).is_true
        assert simplify(iff(p, true())) is p
        assert simplify(iff(p, false())) is not_(p)

    def test_ite(self):
        assert simplify(ite(true(), x, y)) is x
        assert simplify(ite(false(), x, y)) is y
        assert simplify(ite(p, x, x)) is x
        assert simplify(ite(p, true(), false())) is p
        assert simplify(ite(p, false(), true())) is not_(p)

    def test_eq_reflexive(self):
        assert simplify(eq(x, x)).is_true

    def test_distinct_repeated_var(self):
        assert simplify(distinct(x, x)).is_false

    def test_distinct_constants(self):
        assert simplify(distinct(int_const(1), int_const(2))).is_true
        assert simplify(distinct(int_const(1), int_const(1))).is_false


class TestReadOverWrite:
    def test_same_index_hit(self):
        term = select(store(mem, x, int_const(5)), x)
        assert simplify(term) is int_const(5)

    def test_distinct_constant_indices_skip(self):
        term = select(store(mem, int_const(0), int_const(5)), int_const(1))
        assert simplify(term) is select(mem, int_const(1))

    def test_symbolic_indices_become_ite(self):
        term = select(store(mem, x, int_const(5)), y)
        result = simplify(term)
        assert result.kind is Kind.ITE

    def test_chain_of_writes(self):
        chain = store(store(mem, int_const(0), int_const(1)), int_const(1), int_const(2))
        assert simplify(select(chain, int_const(0))) is int_const(1)
        assert simplify(select(chain, int_const(1))) is int_const(2)


class TestIdempotence:
    def test_simplify_twice_is_stable(self):
        terms = [
            and_(p, or_(q, not_(p))),
            select(store(mem, x, y), add(x, int_const(0))),
            ite(eq(x, y), add(x, int_const(1)), y),
        ]
        for term in terms:
            once = simplify(term)
            assert simplify(once) is once


class TestMemo:
    """``simplify`` memoizes across calls; the memo must be invisible."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(int_terms(2), bool_terms(2)))
    def test_warm_result_is_cold_result(self, term):
        first = simplify(term)  # the memo is warm from earlier examples
        warm = simplify(term)
        simplify_module.clear_memo()
        cold = simplify(term)
        assert first is cold and warm is cold

    def test_reset_service_clears_both_memos(self):
        simplify(and_(p, lt(x, y)))
        atom_from_comparison(Kind.LE, x, y)
        assert simplify_module._MEMO and _ATOM_MEMO
        smt.reset_service()
        assert not simplify_module._MEMO and not _ATOM_MEMO

    def test_guard_chain_is_not_resimplified(self, monkeypatch):
        # The symbolic executor's path guard grows one conjunct at a time:
        # g = simplify(g and c).  Each step must reuse the simplified
        # prefix instead of re-simplifying the whole chain (quadratic:
        # 60,699 rebuilds for 200 steps without the memo).
        rebuilds = 0
        rebuild = simplify_module._rebuild

        def counting(term, args):
            nonlocal rebuilds
            rebuilds += 1
            return rebuild(term, args)

        monkeypatch.setattr(simplify_module, "_rebuild", counting)
        simplify_module.clear_memo()
        conjuncts = [lt(var(f"x{i}", INT), int_const(i)) for i in range(200)]
        guard = true()
        for conjunct in conjuncts:
            guard = simplify(and_(guard, conjunct))
        assert guard is and_(*conjuncts)
        assert rebuilds <= 1200
