"""Real Monge-Ampere measures of admissible piecewise-linear convex functions.

The measure assigns to each vertex of the linearity subdivision the exact
volume of the subdifferential there; for admissible functions the cells
partition the polytope, so the total mass equals its volume.  Vertices and
cells come from the function's one `geometry.subdivision` walk (O(k) exact
operations per vertex and per edge for k pieces), as integer vertices X / q
and the indices of each cell's pieces; a function that
`geometry.dual_transform` returns is handed them instead, read off the
cells it found, and is not walked.  `real_measure` is the one routine that
turns the cells into the measure: `ma_measure` (which checks
admissibility first), `mixed_ma`, the solver's residual and the
variational pairings all read it.  The analytic-side measure is the same
atom list scaled by n! and tagged with monomial points, built from the
real measure only when it is read.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm

from .geometry import (
    DiscreteMeasure,
    DimensionError,
    PLConvexFunction,
    Polytope,
    Record,
    as_point,
    cell_sums,
    is_admissible,
    support_function,
    vscale,
)


class AdmissibilityError(ValueError):
    """Function/polytope pair fails the slope conditions."""


class DegeneratePolytopeError(ValueError):
    """Operation requires a full-dimensional polytope."""


class MonomialPoint(Record):
    """Label for the multiplicative seminorm attached to a point of N_R."""

    v: tuple


class ToricMAResult(Record):
    measure_NR: DiscreteMeasure
    degree: Fraction

    @cached_property
    def measure_an(self) -> tuple:
        """((MonomialPoint, mass), ...): the real atoms, their masses times
        n!, built on first read."""
        V = self.measure_NR.integer_form[0]
        scale = factorial(len(V[0])) if V else 1
        return tuple((MonomialPoint(p), scale * m) for p, m in self.measure_NR.atoms)


def degree(delta: Polytope) -> Fraction:
    """n! Vol(delta): the self-intersection number of the polarization."""
    return factorial(delta.dim) * delta.volume()


def real_measure(g: PLConvexFunction) -> DiscreteMeasure:
    """Real Monge-Ampere measure of g: the mass at each vertex X / q of g's
    subdivision, its walk or the cells that `dual_transform` handed it, is
    the volume of its cell, A / (n! D^n), with A the integer sum
    `cell_sums` of the integer slopes S_i of the cell's pieces over g's
    slope denominator D.  The measure is the integer form of the vertices
    over the lcm L of their q and of the sums A over n! D^n, with no
    Fraction.  No admissibility check: `ma_measure` makes it."""
    S, D, _, _ = g.integer_form
    cells = g.subdivision[0]
    L = lcm(*(q for _, q, _ in cells))
    return DiscreteMeasure._of_form([X if q == L else vscale(L // q, X) for X, q, _ in cells], L,
                                    [cell_sums([S[i] for i in ring])[0] for _, _, ring in cells],
                                    factorial(g.dim) * D ** g.dim)


def ma_measure(g: PLConvexFunction, delta: Polytope) -> ToricMAResult:
    """Real Monge-Ampere measure of g (`real_measure`), for g admissible
    for delta (AdmissibilityError otherwise), with the degree of delta;
    the n!-scaled analytic copy is built on first read."""
    if not is_admissible(g, delta):
        raise AdmissibilityError(
            "function is not admissible for the polytope "
            "(slope outside, or missing vertex slope)"
        )
    return ToricMAResult(real_measure(g), degree(delta))


def point_mass_solution(delta: Polytope, v0) -> PLConvexFunction:
    """Translate of the support function; its MA measure is Vol(delta) at v0."""
    if not delta.is_full_dimensional():
        raise DegeneratePolytopeError("polytope is not full-dimensional")
    return support_function(delta).translate(as_point(v0))


def mixed_ma(gs, delta: Polytope) -> DiscreteMeasure:
    """Mixed Monge-Ampere measure of n admissible functions, by polarization.

    (1/n!) sum over nonempty S of (-1)^(n-|S|) MA(sum of g_i, i in S);
    the inner sums are admissible for the dilated polytope |S| * delta.
    Symmetric and multilinear, with total mass Vol(delta).
    """
    gs = list(gs)
    n = delta.dim
    if len(gs) != n:
        raise DimensionError(f"expected {n} functions, got {len(gs)}")
    for g in gs:
        if not is_admissible(g, delta):
            raise AdmissibilityError("every argument must be admissible for the polytope")
    total = DiscreteMeasure.from_atoms([])
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            h = gs[subset[0]]
            for i in subset[1:]:
                h = h + gs[i]
            total = total + real_measure(h).scale((-1) ** (n - r))
    return total.scale(Fraction(1, factorial(n)))
