"""Tests for the mini-C symbolic executor (Otter substitute)."""

import gc

import pytest

from repro import smt
from repro.mixy.c import parse_program
from repro.mixy.c.typeinfo import TypeInfo
from repro.mixy.symexec import CErrKind, CSymConfig, CSymExecutor, _Frame


def run_function(source, name, make_args=None, config=None):
    program = parse_program(source)
    executor = CSymExecutor(program, config)
    fn = program.functions[name]
    args = make_args(executor) if make_args else []
    results = list(executor.execute_function(fn, args, executor.initial_state()))
    return executor, results


class TestValuesAndControl:
    def test_concrete_arithmetic(self):
        _, results = run_function("int f(void) { return 2 + 3 * 4; }", "f")
        assert [str(r.ret) for r in results] == ["14"]

    def test_locals_and_assignment(self):
        src = "int f(void) { int x = 5; x = x + 1; return x; }"
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(6)

    def test_if_forks_on_symbolic(self):
        src = "int f(int c) { if (c) { return 1; } return 0; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("c")]
        )
        assert sorted(str(r.ret) for r in results) == ["0", "1"]
        assert ex.stats["forks"] == 1

    def test_concrete_condition_no_fork(self):
        src = "int f(void) { int c = 1; if (c) { return 1; } return 0; }"
        ex, results = run_function(src, "f")
        assert len(results) == 1 and results[0].ret is smt.int_const(1)

    def test_infeasible_branch_pruned(self):
        src = """
        int f(int c) {
          if (c > 0) {
            if (c < 0) { return 99; }
            return 1;
          }
          return 0;
        }
        """
        _, results = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("c")])
        assert "99" not in {str(r.ret) for r in results}

    def test_while_loop_concrete(self):
        src = """
        int f(void) {
          int i = 0; int acc = 0;
          while (i < 5) { acc = acc + i; i = i + 1; }
          return acc;
        }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(10)

    def test_loop_bound_warns(self):
        src = "void f(int n) { int i = 0; while (i < n) { i = i + 1; } }"
        ex, _results = run_function(
            src,
            "f",
            make_args=lambda e: [e.fresh_symbol("n")],
            config=CSymConfig(max_loop_unroll=4),
        )
        assert any(w.kind is CErrKind.LOOP_BOUND for w in ex.warnings)

    def test_logical_and_or(self):
        src = "int f(int a, int b) { return (a && b) || !a; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("a"), e.fresh_symbol("b")]
        )
        assert results  # evaluates without forking (conditions are terms)


class TestNullDereference:
    def test_definite_null_deref(self):
        src = "int f(void) { int *p = NULL; return *p; }"
        ex, results = run_function(src, "f")
        assert any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)
        assert results == []  # the path dies at the error

    def test_maybe_null_deref(self):
        src = "int f(int *p) { return *p; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("p")]
        )
        assert any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)
        # Execution continues on the non-null resolution.
        assert len(results) == 1

    def test_null_check_is_respected(self):
        """Path sensitivity: no warning under `if (p != NULL)`."""
        src = "int f(int *p) { if (p != NULL) { return *p; } return 0; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("p")]
        )
        assert not any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)
        assert len(results) == 2

    def test_null_overwritten_before_deref(self):
        """Flow sensitivity: NULL then malloc then deref is clean — the
        paper's x->obj = NULL; x->obj = malloc(...) idiom."""
        src = """
        struct box { int *obj; };
        int f(void) {
          struct box b;
          b.obj = NULL;
          b.obj = (int *) malloc(sizeof(int));
          return *(b.obj);
        }
        """
        ex, results = run_function(src, "f")
        assert not any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)

    def test_write_through_null(self):
        src = "void f(void) { int *p = NULL; *p = 1; }"
        ex, _ = run_function(src, "f")
        assert any(w.kind is CErrKind.NULL_DEREF for w in ex.warnings)

    def test_warnings_deduplicated(self):
        src = """
        int f(int c) {
          int *p = NULL;
          if (c) { return *p; }
          return *p;
        }
        """
        ex, _ = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("c")])
        null_warnings = [w for w in ex.warnings if w.kind is CErrKind.NULL_DEREF]
        assert len(null_warnings) == 1  # same description, reported once


class TestMemoryModel:
    def test_struct_fields_are_separate_cells(self):
        src = """
        struct pair { int a; int b; };
        int f(void) {
          struct pair p;
          p.a = 1;
          p.b = 2;
          return p.a + p.b;
        }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(3)

    def test_pointer_to_local(self):
        src = "int f(void) { int x = 7; int *p = &x; *p = 8; return x; }"
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(8)

    def test_double_pointer_update(self):
        src = """
        void clear(int **pp) { *pp = NULL; }
        int f(void) {
          int x = 3;
          int *p = &x;
          clear(&p);
          return p == NULL;
        }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(1)

    def test_lazy_materialization(self):
        """Dereferencing an unconstrained pointer materializes an object
        (paper Section 4.2's lazy initialization)."""
        src = "int f(int **pp) { if (pp != NULL) { return **pp; } return 0; }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("pp")]
        )
        assert ex.stats["lazy_objects"] >= 1

    def test_malloc_is_nonnull(self):
        src = "int f(void) { int *p = (int *) malloc(sizeof(int)); return p == NULL; }"
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(0)


class TestCalls:
    def test_inline_call(self):
        src = """
        int add(int a, int b) { return a + b; }
        int f(void) { return add(2, 3); }
        """
        _, results = run_function(src, "f")
        assert results[0].ret is smt.int_const(5)

    def test_callee_forks_propagate(self):
        src = """
        int sign(int x) { if (x < 0) { return 0 - 1; } return 1; }
        int f(int x) { return sign(x); }
        """
        _, results = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("x")])
        assert len(results) == 2

    def test_recursion_depth_capped(self):
        src = "int f(int n) { return f(n); }"
        ex, results = run_function(
            src, "f", make_args=lambda e: [e.fresh_symbol("n")],
            config=CSymConfig(max_call_depth=4),
        )
        assert any(w.kind is CErrKind.RECURSION for w in ex.warnings)

    def test_extern_call_havocs(self):
        src = """
        int external_thing(int x);
        int f(void) { return external_thing(1); }
        """
        _, results = run_function(src, "f")
        assert len(results) == 1 and not results[0].ret.is_const

    def test_function_pointer_known_targets(self):
        src = """
        int h1(void) { return 1; }
        int h2(void) { return 2; }
        int f(int c) {
          int (*h)(void);
          h = h1;
          if (c) { h = h2; }
          return h();
        }
        """
        _, results = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("c")])
        assert sorted(str(r.ret) for r in results) == ["1", "2"]

    def test_symbolic_function_pointer_unsupported(self):
        """Case 4's mechanism: an opaque function pointer cannot be called."""
        src = """
        void f(void (*h)(void)) { h(); }
        """
        ex, _ = run_function(src, "f", make_args=lambda e: [e.fresh_symbol("h")])
        assert any(w.kind is CErrKind.UNSUPPORTED for w in ex.warnings)


class TestCallArguments:
    SOURCE = """
int g(int a, int b, int c);
int h(void) { if (symbolic()) { return 2; } return 3; }
int k(int a, int b, int c) { return a * 100 + b * 10 + c; }
int f(void) { return g(1, 2, 4); }
int fork(void) { return k(1, h(), 4); }
"""

    def _call(self, name):
        program = parse_program(self.SOURCE)
        executor = CSymExecutor(program)
        fn = program.functions[name]
        frame = _Frame(
            fn, {}, TypeInfo(program, {}), 0,
            lazy_budget=executor.config.max_lazy_objects_per_path,
        )
        return executor, frame, fn.body.stmts[0].value

    def test_each_argument_outcome_gets_its_own_call(self):
        executor, frame, call = self._call("fork")
        outcomes = list(executor._eval_call(call, frame, executor.initial_state()))
        assert sorted(str(ret) for _, ret in outcomes) == ["124", "134"]

    def test_leaves_no_cyclic_garbage(self):
        executor, frame, call = self._call("f")
        state = executor.initial_state()
        gc.collect()
        gc.disable()
        try:
            outcomes = list(executor._eval_call(call, frame, state))
            assert len(outcomes) == 1
            del outcomes
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNaming:
    """Per-hint fresh-symbol naming and the marks the block store uses
    to replay a skipped execution's consumption."""

    def test_names_count_per_hint(self):
        executor = CSymExecutor(parse_program("int f(void) { return 0; }"))
        names = [str(executor.fresh_symbol(h)) for h in ("a", "b", "a")]
        assert names == ["a!1", "b!1", "a!2"]
        executor.reset_block_counters()
        assert str(executor.fresh_symbol("a")) == "a!1"

    def test_fast_forward_replays_consumption_per_hint(self):
        program = parse_program("int f(int *p) { return *p; }")
        cold, warm = CSymExecutor(program), CSymExecutor(program)
        for executor in (cold, warm):
            executor.fresh_symbol("outer")
        marks = cold.counter_marks()
        state = cold.initial_state()
        args = [cold.fresh_symbol("p")]
        list(cold.execute_function(program.functions["f"], args, state))
        symbols, addresses = cold.consumed_since(marks)
        assert symbols["p"] == 1 and "outer" not in symbols
        warm.fast_forward(symbols, addresses)
        for hint in ("outer", "p", "mem"):
            assert str(warm.fresh_symbol(hint)) == str(cold.fresh_symbol(hint))
        state = cold.initial_state()
        _, cold_obj = cold.allocate_object(state, program.functions["f"].ret, "x")
        _, warm_obj = warm.allocate_object(state, program.functions["f"].ret, "x")
        assert warm_obj.base == cold_obj.base
