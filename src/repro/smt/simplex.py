"""Exact rational simplex for feasibility of conjunctions of linear atoms.

This is the "general simplex" of Dutertre and de Moura (the algorithm used
inside most SMT solvers, including the paper's STP-era contemporaries):
every input row ``e <= k`` introduces a slack variable ``s = e`` with upper
bound ``k``; the tableau expresses basic variables over non-basic ones; a
pivoting loop with Bland's rule repairs bound violations and either reaches
a feasible assignment or proves infeasibility.

All arithmetic is exact, so the verdicts are sound — there is no
floating-point drift.  It is also *int-first*: atoms have integer
coefficients and constants, so bounds, row coefficients and the initial
assignment are plain Python ``int``.  A :class:`fractions.Fraction` appears
only where a pivot divides by a coefficient that does not divide evenly
(:func:`_div`); every other operation is int or mixed int/``Fraction``
arithmetic, which stays exact.  No value is ever a ``float``.  A
conjunction with no multi-variable row (bounds only) never pivots: its
answer is each variable clamped from 0 into its bounds.

The result is a function of the atom sequence alone: variables are
ordered by first appearance, Bland's rule follows that order, and the
returned assignment lists them in it.  Callers that want the same answer
in every process pass atoms in a canonical order
(:func:`repro.smt.linear.atom_order_key`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Optional, Union

from repro.smt.linear import LinAtom

#: An exact simplex value: ``int`` until a pivot divides unevenly.
Number = Union[int, Fraction]


@dataclass
class SimplexResult:
    feasible: bool
    assignment: dict[Hashable, Number] = field(default_factory=dict)
    #: Pivots the check took (an exact, deterministic work counter).
    pivots: int = 0


def _div(a: Number, b: Number) -> Number:
    """Exact ``a / b``: an ``int`` when it divides evenly, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class Simplex:
    """Feasibility checker over rationals with per-variable bounds."""

    def __init__(self) -> None:
        # Tableau: rows[basic] = {nonbasic: coeff}; basic = sum(coeff * nb).
        self._rows: dict[Hashable, dict[Hashable, Number]] = {}
        self._assignment: dict[Hashable, Number] = {}
        self._lower: dict[Hashable, Number] = {}
        self._upper: dict[Hashable, Number] = {}
        self._slack_index: dict[tuple[tuple[Hashable, int], ...], Hashable] = {}
        self._order: dict[Hashable, int] = {}
        self.pivots = 0

    # -- construction --------------------------------------------------------

    def _register(self, v: Hashable) -> None:
        if v not in self._order:
            self._order[v] = len(self._order)
            self._assignment[v] = 0

    def add_atom(self, atom: LinAtom) -> None:
        """Assert ``atom`` (``sum coeffs <= constant``)."""
        if not atom.coeffs:
            if atom.constant < 0:
                # Trivially false row: encode as 0 <= -1 via an impossible
                # bound on a dedicated variable.
                v = ("__false__",)
                self._register(v)
                self._set_upper(v, -1)
                self._set_lower(v, 0)
            return
        if len(atom.coeffs) == 1:
            ((v, c),) = atom.coeffs
            self._register(v)
            bound = _div(atom.constant, c)
            if c > 0:
                self._set_upper(v, bound)
            else:
                self._set_lower(v, bound)
            return
        key = atom.coeffs
        slack = self._slack_index.get(key)
        if slack is None:
            slack = ("__slack__", len(self._slack_index))
            self._slack_index[key] = slack
            self._register(slack)
            row: dict[Hashable, Number] = {}
            for v, c in atom.coeffs:
                self._register(v)
                row[v] = c
            self._rows[slack] = row
            self._recompute(slack)
        self._set_upper(slack, atom.constant)

    def _set_upper(self, v: Hashable, bound: Number) -> None:
        current = self._upper.get(v)
        if current is None or bound < current:
            self._upper[v] = bound

    def _set_lower(self, v: Hashable, bound: Number) -> None:
        current = self._lower.get(v)
        if current is None or bound > current:
            self._lower[v] = bound

    def set_bounds(
        self, v: Hashable, lower: Optional[Number], upper: Optional[Number]
    ) -> None:
        """Externally constrain a variable (used by branch-and-bound)."""
        self._register(v)
        if lower is not None:
            self._set_lower(v, lower)
        if upper is not None:
            self._set_upper(v, upper)

    def _recompute(self, basic: Hashable) -> None:
        assignment = self._assignment
        total: Number = 0
        for v, c in self._rows[basic].items():
            total += c * assignment[v]
        assignment[basic] = total

    # -- solving --------------------------------------------------------------

    def check(self) -> SimplexResult:
        """Decide feasibility of all asserted rows and bounds."""
        lower, upper = self._lower, self._upper
        # Immediately contradictory bounds are infeasible regardless of the
        # tableau, and catching them here keeps the pivot loop cycle-free.
        for v, lo in lower.items():
            hi = upper.get(v)
            if hi is not None and lo > hi:
                return SimplexResult(False)
        # Ensure non-basic variables sit within their own bounds.
        rows, assignment = self._rows, self._assignment
        for v in self._order:
            if v in rows:
                continue
            value = assignment[v]
            lo, hi = lower.get(v), upper.get(v)
            if lo is not None and value < lo:
                self._update_nonbasic(v, lo)
            elif hi is not None and value > hi:
                self._update_nonbasic(v, hi)
        if not rows:
            # Bounds only: the clamped assignment is the answer.
            return SimplexResult(True, dict(assignment))
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return SimplexResult(True, dict(assignment), self.pivots)
            basic, need_increase = violated
            pivot = self._find_pivot(basic, need_increase)
            if pivot is None:
                return SimplexResult(False, pivots=self.pivots)
            target = lower[basic] if need_increase else upper[basic]
            self._pivot_and_update(basic, pivot, target)
            self.pivots += 1

    def _find_violated_basic(self) -> Optional[tuple[Hashable, bool]]:
        candidates = sorted(self._rows, key=self._order.__getitem__)
        for basic in candidates:
            value = self._assignment[basic]
            lo = self._lower.get(basic)
            if lo is not None and value < lo:
                return basic, True
            hi = self._upper.get(basic)
            if hi is not None and value > hi:
                return basic, False
        return None

    def _find_pivot(self, basic: Hashable, need_increase: bool) -> Optional[Hashable]:
        row = self._rows[basic]
        for nonbasic in sorted(row, key=self._order.__getitem__):  # Bland's rule
            coeff = row[nonbasic]
            value = self._assignment[nonbasic]
            hi = self._upper.get(nonbasic)
            lo = self._lower.get(nonbasic)
            if need_increase:
                can_help = (coeff > 0 and (hi is None or value < hi)) or (
                    coeff < 0 and (lo is None or value > lo)
                )
            else:
                can_help = (coeff > 0 and (lo is None or value > lo)) or (
                    coeff < 0 and (hi is None or value < hi)
                )
            if can_help:
                return nonbasic
        return None

    def _update_nonbasic(self, v: Hashable, value: Number) -> None:
        delta = value - self._assignment[v]
        if delta == 0:
            return
        self._assignment[v] = value
        for basic, row in self._rows.items():
            coeff = row.get(v)
            if coeff:
                self._assignment[basic] += coeff * delta

    def _pivot_and_update(
        self, basic: Hashable, nonbasic: Hashable, target: Number
    ) -> None:
        row = self._rows.pop(basic)
        coeff = row.pop(nonbasic)
        # basic = coeff * nonbasic + rest  =>  nonbasic = (basic - rest)/coeff
        new_row: dict[Hashable, Number] = {basic: _div(1, coeff)}
        for v, c in row.items():
            new_row[v] = _div(-c, coeff)
        self._rows[nonbasic] = new_row
        # Substitute into every other row.
        for other, other_row in self._rows.items():
            if other is nonbasic:
                continue
            c = other_row.pop(nonbasic, None)
            if c:
                for v, nc in new_row.items():
                    updated = other_row.get(v, 0) + c * nc
                    if updated:
                        other_row[v] = updated
                    else:
                        other_row.pop(v, None)
        # Drive the (old) basic variable's value to its violated bound by
        # moving the (new) basic variable.
        delta = target - self._assignment[basic]
        self._assignment[basic] = target
        self._assignment[nonbasic] += _div(delta, coeff)
        for b in self._rows:
            if b is not nonbasic:
                self._recompute(b)


def check_rational(
    atoms: Iterable[LinAtom],
    bounds: Optional[dict[Hashable, tuple[Optional[Number], Optional[Number]]]] = None,
) -> SimplexResult:
    """One-shot rational feasibility of a conjunction of atoms."""
    simplex = Simplex()
    for atom in atoms:
        simplex.add_atom(atom)
    if bounds:
        for v, (lo, hi) in bounds.items():
            simplex.set_bounds(v, lo, hi)
    return simplex.check()
