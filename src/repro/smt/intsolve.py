"""Integer feasibility for conjunctions of linear atoms.

Strategy: gcd-tightened atoms (see :mod:`repro.smt.linear`) + exact
rational simplex + branch-and-bound on fractional variables.  Tightening
already refutes the classic divisibility traps (e.g. ``3x - 3y = 1``);
branch-and-bound resolves the rest of the population MIX generates.

Arithmetic is int-first end to end: the simplex keeps ``int`` values
until a pivot divides (see :mod:`repro.smt.simplex`), and the branch
bounds are the ``int`` floor and ceiling of the fractional value.  The
search is a deterministic function of the atom sequence; the lazy loop
(:meth:`repro.smt.solver.Solver.check`) and the service's direct path
pass atoms sorted by :func:`repro.smt.linear.atom_order_key`, so the
simplex calls, pivots and branch-and-bound nodes of a query are the same
in every process.  :class:`IntResult` reports the last two as work
counters.

Branch-and-bound over unbounded polyhedra is not a decision procedure for
full linear integer arithmetic, so the search carries a budget; exhausting
it raises :class:`IntBudgetExceeded` and the top-level solver reports
``UNKNOWN`` rather than guessing.  None of the formulas produced by the
analyses in this repository come close to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor
from typing import Hashable, Optional, Sequence

from repro.smt.linear import LinAtom
from repro.smt.simplex import Number, check_rational


class IntBudgetExceeded(Exception):
    """Branch-and-bound ran out of budget; feasibility is unknown."""

    def __init__(self, nodes: int, pivots: int) -> None:
        super().__init__()
        #: Work spent before giving up (same meaning as on IntResult).
        self.nodes = nodes
        self.pivots = pivots


@dataclass
class IntResult:
    feasible: bool
    model: dict[Hashable, int]
    #: Branch-and-bound nodes explored: one rational simplex check each.
    nodes: int = 0
    #: Simplex pivots summed over those checks.
    pivots: int = 0


Bounds = dict[Hashable, tuple[Optional[int], Optional[int]]]


def check_integer(atoms: Sequence[LinAtom], budget: int = 4000) -> IntResult:
    """Decide integer feasibility of the conjunction of ``atoms``."""
    for atom in atoms:
        if atom.is_trivially_false:
            return IntResult(False, {})
    nontrivial = [a for a in atoms if a.coeffs]
    return _branch(nontrivial, budget)


def _branch(atoms: Sequence[LinAtom], budget: int) -> IntResult:
    # Depth-first with an explicit stack: branch chains can run hundreds
    # of cuts deep on wide integer ranges, which would blow the Python
    # recursion limit long before the search budget.
    stack: list[Bounds] = [{}]
    nodes = pivots = 0
    while stack:
        bounds = stack.pop()
        if nodes >= budget:
            raise IntBudgetExceeded(nodes, pivots)
        nodes += 1
        result = check_rational(atoms, bounds)
        pivots += result.pivots
        if not result.feasible:
            continue
        fractional = _pick_fractional(result.assignment)
        if fractional is None:
            model = {
                v: int(value)
                for v, value in result.assignment.items()
                if not isinstance(v, tuple)  # drop internal slack variables
            }
            return IntResult(True, model, nodes, pivots)
        v, value = fractional
        lo, hi = bounds.get(v, (None, None))
        down = dict(bounds)
        down[v] = (lo, floor(value))
        up = dict(bounds)
        up[v] = (ceil(value), hi)
        stack.append(up)
        stack.append(down)  # LIFO: the down branch is explored first
    return IntResult(False, {}, nodes, pivots)


def _pick_fractional(
    assignment: dict[Hashable, Number]
) -> Optional[tuple[Hashable, Number]]:
    for v, value in assignment.items():
        if isinstance(v, tuple):
            continue  # slack or internal variables need not be integral
        if value.denominator != 1:
            return v, value
    return None
