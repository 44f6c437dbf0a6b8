"""Linear integer atoms: extraction from terms and canonicalization.

After preprocessing (:mod:`repro.smt.preprocess`) every integer-sorted leaf
is a plain variable, so each arithmetic atom denotes a linear constraint

    c1*x1 + ... + cn*xn <= k        (all ci, k integers)

:class:`LinAtom` is the canonical, hashable form of such a constraint.
Canonicalization divides by the gcd of the coefficients and *tightens* the
constant (``k -> floor(k / g)``), which is sound and complete over the
integers and lets the rational simplex refute systems such as
``3x - 3y = 1`` that plain branch-and-bound cannot.

:func:`atom_from_comparison` is memoized across calls on ``(kind, left,
right)``.  Building an atom is a pure function of interned terms, which
hash by identity and are held by the term table for the life of the
process, so a key is never reused for another comparison; ``LinAtom`` is
frozen, so every caller can share one instance, and threads racing to
fill an entry store equal atoms.  A comparison that raises (nonlinear,
ill-sorted) is not recorded and raises again on every call.
:func:`repro.smt.service.reset_service` clears the memo, so a fresh
service starts as cold as a fresh process.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro.smt.terms import INT, Kind, SortError, Term


class NonlinearError(SortError):
    """Raised when a term is not linear in its integer variables."""


@dataclass(frozen=True)
class LinAtom:
    """Canonical linear constraint ``sum(coeffs) <= constant``.

    ``coeffs`` maps variable terms to non-zero integer coefficients and is
    stored as a sorted tuple so atoms are hashable and syntactically
    comparable.  The negation of a ``LinAtom`` is again a ``LinAtom``
    because the domain is the integers: ``not (e <= k)  ==  -e <= -k-1``.
    """

    coeffs: tuple[tuple[Term, int], ...]
    constant: int

    def negate(self) -> "LinAtom":
        flipped = tuple((v, -c) for v, c in self.coeffs)
        return make_atom(dict(flipped), -self.constant - 1)

    @property
    def is_trivially_true(self) -> bool:
        return not self.coeffs and 0 <= self.constant

    @property
    def is_trivially_false(self) -> bool:
        return not self.coeffs and 0 > self.constant

    def __str__(self) -> str:
        if not self.coeffs:
            return f"0 <= {self.constant}"
        parts = []
        for v, c in self.coeffs:
            parts.append(f"{c}*{v}" if c != 1 else str(v))
        return f"{' + '.join(parts)} <= {self.constant}"


def make_atom(coeffs: dict[Term, int], constant: int) -> LinAtom:
    """Build a canonical atom from raw coefficients (gcd-tightened)."""
    nonzero = {v: c for v, c in coeffs.items() if c != 0}
    if not nonzero:
        return LinAtom((), constant)
    g = 0
    for c in nonzero.values():
        g = gcd(g, abs(c))
    if g > 1:
        nonzero = {v: c // g for v, c in nonzero.items()}
        constant //= g  # floor division: the integer tightening
    ordered = tuple(sorted(nonzero.items(), key=lambda item: str(item[0])))
    return LinAtom(ordered, constant)


def atom_order_key(atom: LinAtom) -> tuple:
    """The canonical order of atoms handed to the integer engine.

    A structural key: the atom's (variable name, coefficient) pairs in
    their canonical order, then its constant.  Integer variables are
    interned by name, so two atoms share a key only if they are equal.
    Sorting by it makes the simplex and branch-and-bound path of a
    conjunction independent of object ids, hence the same in every
    process (set and SAT-variable orders follow ids).
    """
    return tuple((v.payload, c) for v, c in atom.coeffs), atom.constant


def linearize(term: Term) -> tuple[dict[Term, int], int]:
    """Decompose an integer term into (coefficients, constant).

    Leaves must be integer constants or variables; raises
    :class:`NonlinearError` on symbolic products or other kinds (those must
    have been eliminated by preprocessing).
    """
    if term.sort != INT:
        raise SortError(f"linearize expects an Int term, got {term.sort}")
    coeffs: dict[Term, int] = {}
    constant = 0
    # Depth-first, left to right, with an explicit stack (a recursive
    # closure would leave a reference cycle behind on every call).
    stack: list[tuple[Term, int]] = [(term, 1)]
    while stack:
        node, scale = stack.pop()
        kind = node.kind
        if kind is Kind.CONST_INT:
            constant += scale * node.payload  # type: ignore[operator]
        elif kind is Kind.VAR:
            coeffs[node] = coeffs.get(node, 0) + scale
        elif kind is Kind.ADD:
            stack.extend((a, scale) for a in reversed(node.args))
        elif kind is Kind.NEG:
            stack.append((node.args[0], -scale))
        elif kind is Kind.MUL:
            left, right = node.args
            if left.kind is Kind.CONST_INT:
                stack.append((right, scale * left.payload))  # type: ignore[operator]
            elif right.kind is Kind.CONST_INT:
                stack.append((left, scale * right.payload))  # type: ignore[operator]
            else:
                raise NonlinearError(f"nonlinear product: {node}")
        else:
            raise NonlinearError(
                f"unexpected integer leaf {node} (kind {kind.value}); "
                "preprocessing should have replaced it with a variable"
            )
    return coeffs, constant


#: (kind, left, right) -> atom for every comparison built since the last
#: :func:`clear_memo` (see the module docstring)
_ATOM_MEMO: dict[tuple[Kind, Term, Term], LinAtom] = {}


def atom_from_comparison(kind: Kind, left: Term, right: Term) -> LinAtom:
    """Build the canonical atom for ``left <= right`` or ``left < right``."""
    key = (kind, left, right)
    atom = _ATOM_MEMO.get(key)
    if atom is None:
        atom = _ATOM_MEMO[key] = _build_atom(kind, left, right)
    return atom


def clear_memo() -> None:
    """Forget every memoized atom (``smt.reset_service`` calls this)."""
    _ATOM_MEMO.clear()


def _build_atom(kind: Kind, left: Term, right: Term) -> LinAtom:
    """The uncached builder behind :func:`atom_from_comparison`."""
    lc, lk = linearize(left)
    rc, rk = linearize(right)
    coeffs = dict(lc)
    for v, c in rc.items():
        coeffs[v] = coeffs.get(v, 0) - c
    constant = rk - lk
    if kind is Kind.LT:
        constant -= 1  # over integers, e < k  iff  e <= k - 1
    elif kind is not Kind.LE:
        raise SortError(f"not a comparison kind: {kind}")
    return make_atom(coeffs, constant)
