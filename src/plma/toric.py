"""Real Monge-Ampere measures of admissible piecewise-linear convex functions.

The measure assigns to each vertex of the linearity subdivision the exact
volume of the subdifferential there; for admissible functions the cells
partition the polytope, so the total mass equals its volume.  Vertices and
cells come from the function's one `geometry.subdivision` walk (O(k) exact
operations per vertex and per edge for k pieces), as integer vertices X / q
and the indices of each cell's pieces; a function that
`geometry.dual_transform` returns is handed them instead, read off the
cells it found, and is not walked.  The analytic-side measure is the same
atom list scaled by n! and tagged with monomial points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .geometry import (
    DiscreteMeasure,
    DimensionError,
    PLConvexFunction,
    Polytope,
    _point,
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


@dataclass(frozen=True)
class MonomialPoint:
    """Label for the multiplicative seminorm attached to a point of N_R."""

    v: tuple


@dataclass(frozen=True)
class ToricMAResult:
    measure_NR: DiscreteMeasure
    measure_an: tuple  # ((MonomialPoint, mass), ...)
    degree: Fraction


def degree(delta: Polytope) -> Fraction:
    """n! Vol(delta): the self-intersection number of the polarization."""
    return factorial(delta.dim) * delta.volume()


def ma_measure(g: PLConvexFunction, delta: Polytope, check: bool = True) -> ToricMAResult:
    """Real Monge-Ampere measure of g, plus its n!-scaled analytic copy.

    The atoms are the vertices X / q of g's subdivision, its walk or the
    cells that `dual_transform` handed it.  The mass at a vertex is the
    volume of its cell, A / (n! D^n), with A the integer sum `cell_sums`
    of the integer slopes S_i of the cell's pieces over g's slope
    denominator D.  The real measure is the integer form of the vertices
    over the lcm L of their q and of the sums A over n! D^n, with no
    Fraction; the analytic side builds one Fraction point and the mass
    A / D^n per atom.
    """
    if check and not is_admissible(g, delta):
        raise AdmissibilityError(
            "function is not admissible for the polytope "
            "(slope outside, or missing vertex slope)"
        )
    S, D, _, _ = g.integer_form
    Dn, cells = D ** delta.dim, g.subdivision[0]
    sums = [cell_sums([S[i] for i in ring])[0] for _, _, ring in cells]
    L = lcm(*(q for _, q, _ in cells))
    nr = DiscreteMeasure._of_form([vscale(L // q, X) for X, q, _ in cells], L, sums,
                                  factorial(delta.dim) * Dn)
    an = tuple((MonomialPoint(_point(X, q)), Fraction(A, Dn)) for (X, q, _), A in zip(cells, sums))
    return ToricMAResult(nr, an, degree(delta))


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
            part = ma_measure(h, delta.dilate(r), check=False).measure_NR
            sign = (-1) ** (n - r)
            total = total + part.scale(sign)
    return total.scale(Fraction(1, factorial(n)))
