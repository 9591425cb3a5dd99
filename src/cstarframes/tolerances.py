"""Every tolerance decision of the library: one rule, and one named constant per cut.

The paper's verdicts are exact inequalities; in floating point each
"is zero", "is positive" or "is within eps" becomes a comparison, and
every one of them is made by `below`, with one rule:

- an eps verdict passes on the strict value < eps;
- a cut or a slack passes on value <= bound + tol * scale, where tol is
  one of the constants below and scale is the data scale its comment
  names (1.0 for an absolute cut);
- NaN passes neither.

A cut on a quantity whose rounding error grows with the size of its
input is relative, the constant times a named scale (such as max(c2, 1)
or the largest singular value); a cut on a quantity that is normalized
by construction (a trace that must be 1, a norm that must be at most 1,
a gram that must be the identity) is absolute.  Callers cannot set a
cut: each decision has one value, and every site reads it from here.
"""

import math

import numpy as np


def below(value, bound, tol=None, scale=1.0):
    """Whether `value` passes against `bound`, entry by entry: the library's one decision rule.

    Without tol, an eps verdict: value < bound.  With tol, one of this
    module's constants, a cut or a slack: value <= bound + tol * scale.
    NaN passes neither.  value may be a float, a list of floats or an
    array, and bound and scale broadcast against it; the result is a
    numpy bool or bool array.
    """
    value = np.asarray(value)
    if tol is None:
        return value < bound
    return value <= bound + tol * scale


def check_eps(eps: float) -> None:
    """Reject an approximation radius that is not a finite positive number.

    NaN would fail every eps verdict (a greedy net never closes, a tail
    never settles) and inf would pass them all, so both are refused up
    front.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be a finite positive number")


# State density Hermitian, positive semidefinite, total trace 1; absolute.
STATE_ATOL = 1e-8

# Norm-attaining state: a later block's top eigenvalue must beat the best by
# this to win the tie; absolute.
STATE_TIE_ATOL = 1e-15

# Norm-attaining state: the first eigenvector entry above this fixes the
# phase; absolute.
STATE_PHASE_ATOL = 1e-14

# Pseudo-inverse cut on synthesis realizations, times their largest
# singular value (numpy's rcond); support cut of a normalization
# v (<v,v>^+)^(1/2), times lambda_max(<v,v>) = ||v||^2.
PINV_RTOL = 1e-12

# Module Gram-Schmidt drops an input whose residual r has
# ||r|| = sqrt(lambda_max(<r,r>)) at most this; times max(1, the input's
# norm).
SPAN_DROP_RTOL = 1e-9

# Frame degeneracy and the gram pseudo-inverse cut; times max(c2, 1).  So
# every inverted gram eigenvalue exceeds 1e-10, and the dual of a family
# with a finite gram is finite.
FRAME_RTOL = 1e-10

# Admissibility: member norms at most 1 + this and gram slack at least
# minus this, absolute.
ADMISSIBLE_TOL = 1e-8

# Condition A's automatic bound on the minimal-norm coefficients; times
# (1 + B*D).
BD_RTOL = 1e-9

# Coherence replay between conditions: absolute slack on the a=>b tail
# estimate, the d=>a residual and an operator's C/D error against its B
# tail; times (1 + R*max||f_k||) on the d=>a coefficient bound, and times
# (1 + error) on an operator approximant's replayed error.
COHERENCE_TOL = 1e-8

# Free submodule: largest ||<g_i, g_j> - delta_ij 1|| accepted; absolute.
GRAM_DEFECT_ATOL = 1e-8

# The counterexample's tail self-check (direct and frame tails agree);
# absolute.  F fixing v and F being a contraction are checked exactly.
SELF_CHECK_ATOL = 1e-12

# Default eps of a theta-series decomposition (`series_decompose` and the
# CLI's `series --eps`); absolute.
SERIES_EPS = 1e-9
