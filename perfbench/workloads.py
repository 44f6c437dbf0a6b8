"""Seeded input generators and known answers for the benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the
same bytes.  The analyzer only ever sees the generated text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.mixy.corpus_vsftpd import (
    PARALLEL_BLOCKS,
    annotation_subsets,
    mini_vsftpd,
    parallel_vsftpd,
)

#: Depth of the staircase arithmetic trees.  Depth 3 would make the
#: rational simplex the largest layer, but one depth-3 op takes 10-26 s
#: on a noisy 2-core host, two per run, and its run-to-run spread
#: exceeded the benchmark's bound in two of four ten-seed sets; at depth 2
#: (about 5 s, seven ops per run) preprocessing and service self time
#: lead and the simplex is third.
STAIRCASE_DEPTH = 2

#: The staircase's single known finding, fixed by construction: the
#: last block hands ``g_stage_2`` to ``sysutil_free`` whatever its
#: branching tree is.
STAIRCASE_WARNING = "nonnull parameter p_ptr of sysutil_free"


def staircase(seed: int, depth: int = STAIRCASE_DEPTH) -> str:
    """``parallel_vsftpd(depth)`` with the leaf constants of every
    block's branching tree drawn from ``seed``.

    Shape, guards and stage coupling are untouched: six blocks, the
    bounding shell, one stage falling per fixpoint round.  Seed 0 is
    ``parallel_vsftpd(depth)`` byte for byte.  No guard reads ``r``, so
    every seed does the same solver work; redrawing guard coefficients
    instead changes the cost of one analysis several-fold (README.md)."""
    base = parallel_vsftpd(depth)
    if seed == 0:
        return base
    rng = random.Random(f"staircase:{seed}")
    return _LEAF.sub(lambda m: f"r = r + {rng.randint(1, 99)};", base)


_LEAF = re.compile(r"r = r \+ (\d+);")


def staircase_leaf_edit(source: str, block: int, value: int) -> str:
    """``source`` with the first leaf constant of worker block ``block``
    set to ``value``: a one-function edit that changes no branch guard."""
    name = PARALLEL_BLOCKS[block]
    start = source.index(f"int {name}(")
    leaf = _LEAF.search(source, start)
    return f"{source[:leaf.start(1)]}{value}{source[leaf.end(1):]}"


# -- vsftpd-wide --------------------------------------------------------------

#: Warning count of one mini-vsftpd copy per cumulative annotation
#: subset (index into ``annotation_subsets()``): EXPERIMENTS.md E2'.
E2PRIME_WARNINGS = (4, 4, 3, 0, 0)

#: Copies per wide program: one cold analysis then takes a few seconds.
WIDE_COPIES = 20

# Words of the mini-C language itself, never renamed.
_C_WORDS = frozenset(
    "int char void struct if else while return sizeof malloc NULL MIX "
    "nonnull typed symbolic assume check const".split()
)
_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_STRING = re.compile(r'"[^"]*"')


def rename_copy(source: str, copy: int) -> str:
    """Suffix every identifier outside string literals with ``_c<copy>``
    so ``copy`` shares no global name with any other copy."""

    def rename_words(text: str) -> str:
        return _WORD.sub(
            lambda m: m.group(0)
            if m.group(0) in _C_WORDS
            else f"{m.group(0)}_c{copy}",
            text,
        )

    out: list[str] = []
    last = 0
    for literal in _STRING.finditer(source):
        out.append(rename_words(source[last:literal.start()]))
        out.append(literal.group(0))
        last = literal.end()
    out.append(rename_words(source[last:]))
    return "".join(out)


@dataclass(frozen=True)
class WideProgram:
    source: str
    #: Annotation-subset index of each copy, in copy order.
    subsets: tuple[int, ...]

    @property
    def expected_per_copy(self) -> dict[int, int]:
        return {c: E2PRIME_WARNINGS[s] for c, s in enumerate(self.subsets)}

    @property
    def expected_warnings(self) -> int:
        return sum(self.expected_per_copy.values())


def wide_subsets(seed: int, copies: int = WIDE_COPIES) -> tuple[int, ...]:
    """Each copy's annotation subset.  Every subset appears equally often
    (up to rounding) and the seed draws the order, so programs of
    different seeds do comparable work."""
    schedule = len(E2PRIME_WARNINGS)
    subsets = [i % schedule for i in range(copies)]
    random.Random(f"wide:{seed}").shuffle(subsets)
    return tuple(subsets)


def wide(seed: int, copies: int = WIDE_COPIES) -> WideProgram:
    """``copies`` identifier-renamed copies of ``mini_vsftpd`` plus a
    ``main`` that calls each copy's entry point."""
    return wide_from_subsets(wide_subsets(seed, copies))


def wide_from_subsets(subsets: tuple[int, ...]) -> WideProgram:
    """The wide program whose copy ``c`` carries annotation subset
    ``subsets[c]``."""
    copies = len(subsets)
    schedule = annotation_subsets()
    parts = [
        rename_copy(mini_vsftpd(schedule[s]), c) for c, s in enumerate(subsets)
    ]
    calls = "\n".join(f"  total = total + main_c{c}();" for c in range(copies))
    parts.append(
        f"int main(void) {{\n  int total;\n  total = 0;\n{calls}\n  return total;\n}}\n"
    )
    return WideProgram("\n".join(parts), subsets)


_COPY_TAG = re.compile(r"_c(\d+)\b")


def copies_named(line: str) -> set[int]:
    """The copy indices a warning line mentions."""
    return {int(m.group(1)) for m in _COPY_TAG.finditer(line)}


# -- known-answer checks ------------------------------------------------------
#
# Each takes the deterministic result lines of one analysis (the warnings,
# then the "N warning(s)" summary, as `repro mixy` and `repro serve`
# print them) and returns None when they match the known answer, else
# the reason they do not.


def _warning_lines(lines: list[str]) -> tuple[list[str], str | None]:
    if not lines:
        return [], "no output"
    body, summary = lines[:-1], lines[-1]
    if summary != f"{len(body)} warning(s)":
        return body, f"summary {summary!r} does not count {len(body)} warnings"
    return body, None


def check_staircase(lines: list[str]) -> str | None:
    body, error = _warning_lines(lines)
    if error:
        return error
    if len(body) != 1 or STAIRCASE_WARNING not in body[0]:
        return f"expected the single {STAIRCASE_WARNING!r} warning, got {body!r}"
    return None


def check_wide(program: WideProgram, lines: list[str]) -> str | None:
    body, error = _warning_lines(lines)
    if error:
        return error
    if len(body) != program.expected_warnings:
        return f"expected {program.expected_warnings} warnings, got {len(body)}"
    per_copy = {c: 0 for c in range(len(program.subsets))}
    for line in body:
        named = copies_named(line)
        if len(named) != 1 or not named <= per_copy.keys():
            return f"warning names functions of copies {sorted(named)}: {line!r}"
        per_copy[named.pop()] += 1
    if per_copy != program.expected_per_copy:
        return f"per-copy warnings {per_copy} != expected {program.expected_per_copy}"
    return None


# -- proves -------------------------------------------------------------------

#: Known verdict of each ``examples/properties`` file: 6 PROVED,
#: 3 COUNTEREXAMPLE, 1 BUDGET.
PROPERTY_VERDICTS = {
    "assume_narrows.mix": "PROVED",
    "backsolve_diff.c": "COUNTEREXAMPLE",
    "backsolve_sum.mix": "COUNTEREXAMPLE",
    "clamp_bounded.mix": "PROVED",
    "interval.c": "PROVED",
    "midpoint_bounds.c": "PROVED",
    "overflow_guard.mix": "COUNTEREXAMPLE",
    "sum_commutes.mix": "PROVED",
    "unbounded_loop.c": "BUDGET",
    "vacuous_assume.mix": "PROVED",
}
