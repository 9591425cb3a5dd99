"""Precompactness certificates for finite sample sets and operators.

The four equivalent characterizations of precompact sets become finite
checks here: bounded-coefficient approximation from fixed generators
(condition A), uniform frame-reconstruction tails (condition B), and
finite-rank uniform approximation of the identity on the sample
(conditions C and D, which coincide over these self-dual modules).  The
equivalence runner rechecks the proof's constant chains numerically and
flags any incoherence as an implementation bug, since the theorem leaves
no room for disagreement.

Nothing a condition computes depends on eps except its final comparison,
made, like every cut and slack, by `tolerances.below`, so each condition
is split in two: an eps-free pass over the whole
sample, batched per size class on the stacked realizations, and a
cheap certificate built from that data for one eps.  The equivalence
runner makes each pass once and builds every certificate of its eps grid
from it.

For an operator T the sample is the image of the whole unit ball, and
C/D has a closed form from T's realized blocks (`operator_precompact`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import blockwise_max, fold_pair_maxima, ordered_sum, ordered_sums, spectral_norms
from .frames import Frame, frame_coefficients, frame_residuals, standard_basis_frame
from .modules import (
    ModuleVector,
    SampleSet,
    generator_family,
    gram_block,
    orthogonal_span_family,
    span_least_squares,
    stack_norms,
)
from .tolerances import BD_RTOL, COHERENCE_TOL, GRAM_DEFECT_ATOL, SERIES_EPS, below, check_eps


class GramDefectError(ValueError):
    """Generators fail to be orthonormal; carries the observed defect."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(
            f"generators are not orthonormal: gram defect {defect:.6g}"
        )


@dataclass(frozen=True, eq=False)
class Certificate:
    """Structured verdict of one precompactness check.

    verdict True means pass.  A False verdict with budget_exhausted set
    is inconclusive rather than certified: the search ran out of rank
    budget without deciding.  coefficient_bound carries M_eps where the
    condition defines one.  witness and diagnostics are JSON-ready.
    """

    condition: str
    eps: float
    verdict: bool
    budget_exhausted: bool = False
    coefficient_bound: float | None = None
    witness: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    approximant: tuple | None = None

    @property
    def exit_code(self) -> int:
        if self.verdict:
            return 0
        return 2 if self.budget_exhausted else 1

    def to_json_dict(self) -> dict:
        doc = {
            "version": 1,
            "kind": "certificate",
            "condition": self.condition,
            "eps": self.eps,
            "verdict": "pass" if self.verdict else "fail",
            "budget_exhausted": self.budget_exhausted,
            "witness": self.witness,
            "diagnostics": self.diagnostics,
        }
        if self.coefficient_bound is not None:
            doc["coefficient_bound"] = self.coefficient_bound
        return doc


# -- eps-free passes over the sample ------------------------------------------


def _check_rank_budget(rank_budget) -> None:
    """Refuse a C/D rank budget below 0; None (the default) and 0 are valid."""
    if rank_budget is not None and int(rank_budget) < 0:
        raise ValueError(f"rank budget must be at least 0, got {int(rank_budget)}")


@dataclass(frozen=True)
class _CoefficientData:
    """Condition A on one sample and generator family, before any eps."""

    generator_count: int
    residuals: list[float]
    coefficient_norms: list[list[float]]
    stacked_norms: list[float]
    approx_norms: list[float]
    b_const: float


def _coefficient_data(sample: SampleSet, gens: SampleSet) -> _CoefficientData:
    """Solve every point against Span_A(generators), one pseudo-inverse per block.

    Besides each point's residual and B, records the norm of each
    coefficient, of the stacked coefficient tuple, and of the approximant
    sum_i g_i a_i, from one `fold_pair_maxima` per size class over the
    coefficient stacks.  The products R(g_i) a_i of every generator come
    out of one batched matmul (the stacked-left rule, README Storage) and
    are summed in generator order (`ordered_sum`).  A zero pair has zero
    coefficients and, the generators being finite, a zero approximant.
    """
    coeffs, residuals, b_const = span_least_squares(sample, gens)
    dim, s = gens.dim, len(gens)
    norms = np.zeros((len(sample), s + 2))
    for ak, gk in zip(coeffs, gens.realizations):
        n = ak.shape[-1]

        def norms_of(blocks, a):
            per_coeff = a.reshape(a.shape[:2] + (s, n, n))
            approx = ordered_sum(gk[blocks, None] @ per_coeff, 2)
            whole = np.stack((spectral_norms(a), spectral_norms(approx)), axis=-1)
            return np.concatenate((spectral_norms(per_coeff), whole), axis=-1)

        fold_pair_maxima(norms, ak, (s + 1) * dim * n * n, norms_of)
    return _CoefficientData(
        s,
        residuals,
        norms[:, :s].tolist(),
        norms[:, s].tolist(),
        norms[:, s + 1].tolist(),
        b_const,
    )


def _sup_tails(profiles: np.ndarray) -> list[float]:
    """tails[n] = sup over the points of their n-th prefix tail (0 if none).

    Every tail is a spectral norm, >= +0.0 and never NaN, so the max from
    +0.0 is the largest tail.
    """
    return profiles.max(axis=0, initial=0.0).tolist()


def _theta_pairs(sample: SampleSet, frame: Frame | None, rank_budget) -> tuple[SampleSet, SampleSet]:
    """The sets (z, g) of the theta pairs, cut to the C/D scan's rank limit.

    Without an explicit frame the pairs come from module Gram-Schmidt of
    the sample, i.e. a frame for the submodule the sample generates (the
    constructive b-to-c route); the orthogonalized family is self-dual,
    so it serves as z and as g.  A frame's pairs are its family and its
    dual; a frame from another module is refused, whatever the budget.
    The rank limit, the length of both sets, is the budget (checked by
    the caller) capped by the number of pairs (`SampleSet.head`).  The
    default budget is the frame's size along a frame, and the module
    dimension for the span family; an empty sample without a module has
    no dimension and no cap, and stops at rank 0 whatever the cap.
    """
    budget = None if rank_budget is None else int(rank_budget)
    if frame is not None:
        sample.in_module(frame.shape, frame.dim)  # refuses a frame of another module
        z, g = frame._family, frame._dual
    else:
        z = g = orthogonal_span_family(sample)
        budget = sample.dim if budget is None else budget
    return z.head(budget), g.head(budget)


def _error_profile(sample: SampleSet, pairs, eps: float) -> list[float]:
    """sup_x ||x - T_n x|| for the partial sums T_n = sum_{j<=n} theta_{z_j,g_j}.

    pairs holds the sets (z, g) of the theta pairs.  Runs
    from n = 0 up to the first n >= 0 whose error is below eps, or
    through all the given pairs.  One rank step updates the residuals
    r - z<g,x> of all points in one batched product per size class, and
    its error is the largest of their spectral norms (0.0 for an empty
    sample).  These products are the scan's own: the d=>a replay checks
    them along a second route (`_replay_data`).
    """
    stacks = sample.realizations
    residuals = list(stacks)
    errors = [max(sample.point_norms, default=0.0)]
    z, g = pairs
    for j in range(len(z)):
        if below(errors[-1], eps):
            break
        for c, (xk, zk, gk) in enumerate(zip(stacks, z.realizations, g.realizations)):
            coeffs = gk[:, j, None].conj().swapaxes(-1, -2) @ xk
            residuals[c] = residuals[c] - zk[:, j, None] @ coeffs
        errors.append(max(float(spectral_norms(r).max()) for r in residuals))
    return errors


@dataclass(frozen=True)
class _ReplayData:
    """The d=>a replay straight from the theta pairs, for every prefix of them."""

    point_norms: list[float]
    pair_norms: list[float]
    coefficient_norms: list[list[float]]
    residual_norms: list[list[float]]


def _replay_data(sample: SampleSet, pairs) -> _ReplayData:
    """Coefficients a_j(x) = <g_j, x> and residuals x - sum_{j<n} z_j a_j(x).

    Computed from the sets (z, g) of an approximant's theta pairs alone,
    independently of the residual recursion of condition C/D: one
    `fold_pair_maxima` per size class over the sample gives the norms of
    every <g_j, x> (`frame_coefficients`) and of every residual of
    `frame_residuals` on those same coefficients, which sums the
    approximants in pair order.  On a zero pair each <g_j, 0> is
    zero, and so is every residual, for finite pairs.  residual_norms[p][n]
    is the residual of point p with the first n pairs, so one pass over
    the longest approximant of a grid serves every shorter one.
    """
    z, g = pairs
    count = len(z)
    norms = np.zeros((len(sample), 2 * count + 1))
    for xk, zk, gk in zip(sample.realizations, z.realizations, g.realizations):
        rows, n = xk.shape[2:]

        def norms_of(blocks, x):
            coefficients = frame_coefficients(gk[blocks], x)
            residuals = frame_residuals(x, zk[blocks], coefficients)
            return np.concatenate((spectral_norms(coefficients), spectral_norms(residuals)), axis=-1)

        fold_pair_maxima(norms, xk, (count + 1) * rows * n, norms_of)
    return _ReplayData(
        sample.point_norms,
        stack_norms(g.realizations),
        norms[:, :count].tolist(),
        norms[:, count:].tolist(),
    )


# -- certificates for one eps -------------------------------------------------


def _first_below(values: list[float], eps: float) -> int | None:
    """The first index n with values[n] below eps, or None."""
    hits = np.flatnonzero(below(values, eps))
    return int(hits[0]) if hits.size else None


def _settled_from(values: list[float], bound: float) -> int:
    """The least n with every value from n on below bound: len(values) when the last is not."""
    unsettled = np.flatnonzero(~below(values, bound))
    return int(unsettled[-1]) + 1 if unsettled.size else 0


def _certificate_a(data: _CoefficientData, eps: float) -> Certificate:
    verdict = bool(below(data.residuals, eps).all())
    m_eps = max((max(cn) for cn in data.coefficient_norms if cn), default=0.0)
    d_const = max(data.approx_norms, default=0.0)
    bd = data.b_const * d_const
    bd_ok = bool(below(data.stacked_norms, bd, BD_RTOL, 1.0 + bd).all())
    return Certificate(
        condition="A",
        eps=eps,
        verdict=verdict,
        coefficient_bound=m_eps,
        witness={"generator_count": data.generator_count, "M_eps": m_eps},
        diagnostics={
            "residuals": list(data.residuals),
            "coefficient_norms": [list(cn) for cn in data.coefficient_norms],
            "stacked_coefficient_norms": list(data.stacked_norms),
            "B": data.b_const,
            "D": d_const,
            "bd_bound_ok": bd_ok,
        },
    )


def _certificate_b(tails: list[float], eps: float) -> Certificate:
    n_stable = _settled_from(tails[:-1], eps)
    return Certificate(
        condition="B",
        eps=eps,
        verdict=n_stable < len(tails) - 1,
        witness={"N": n_stable},
        diagnostics={"tail_profile": list(tails)},
    )


def _certificate_cd(errors: list[float], pairs, eps: float) -> Certificate:
    """The C/D verdict at eps from an error profile computed for eps or smaller.

    pairs are the sets (z, g) of the theta pairs the profile scanned, cut
    to the rank limit.  The scan stops at the first rank n >= 0 below
    eps: a sample already within eps of zero passes at rank 0, with the
    zero operator.  A pass carries the first n pairs (z_j, g_j): the sets'
    points, views of their stacks, built once for every eps of a grid.
    """
    z, g = pairs
    achieved = _first_below(errors, eps)
    profile = errors[: len(errors) if achieved is None else achieved + 1]
    diagnostics = {"error_profile": profile, "best_error": min(profile)}
    if achieved is not None:
        return Certificate(
            condition="CD",
            eps=eps,
            verdict=True,
            witness={"rank": achieved},
            diagnostics=diagnostics,
            approximant=tuple(zip(z, g))[:achieved],
        )
    return Certificate(
        condition="CD",
        eps=eps,
        verdict=False,
        budget_exhausted=True,
        witness={"rank_budget": len(z)},
        diagnostics=diagnostics,
    )


# -- the conditions -------------------------------------------------------------


def check_condition_a(sample: SampleSet, generators, eps: float) -> Certificate:
    """Bounded-coefficient approximation from a fixed generator family.

    The generators are a SampleSet or module vectors (`SampleSet.of`).

    Every sample point is solved against Span_A(generators) by the
    blockwise least-squares route; the verdict demands residual < eps for
    all points, and M_eps is the observed maximum coefficient norm.  The
    residual is the exact distance (see `submodule_distance`), so a fail
    is certified.  The diagnostics also record the automatic-boundedness
    data for finite-dimensional algebras: the minimal-norm coefficient
    tuple obeys ||(a_1..a_s)|| <= B*D with B the inverse-off-kernel norm
    of the synthesis map and D the largest approximant norm, checked with
    a slack of BD_RTOL * (1 + B*D).
    """
    check_eps(eps)
    gens = generator_family(generators)
    return _certificate_a(_coefficient_data(sample, gens), eps)


def check_condition_b(sample: SampleSet, frame: Frame, eps: float) -> Certificate:
    """Uniform frame-reconstruction tails over the sample.

    tails[n] = sup over the sample of ||x - sum_{j<n} x_j <g_j,x>||.  N is
    the smallest prefix from which every tail stays below eps; the finite
    family makes tails[size] = 0, so N always exists.  The verdict
    demands N < size: reaching eps only at the full prefix is exactly the
    uniform-tail failure.
    """
    check_eps(eps)
    return tails_certificate(frame.tail_profiles(sample), eps)


def tails_certificate(profiles: np.ndarray, eps: float) -> Certificate:
    """Condition B from tail profiles already computed, one row per point.

    Row p is `Frame.tail_profile` of point p; `check_condition_b` is this
    applied to `Frame.tail_profiles` of the sample.
    """
    check_eps(eps)
    return _certificate_b(_sup_tails(np.asarray(profiles, dtype=float)), eps)


def check_condition_cd(
    sample: SampleSet,
    eps: float,
    rank_budget: int | None = None,
    frame: Frame | None = None,
) -> Certificate:
    """Finite-rank uniform approximation of the identity on the sample.

    Scans partial sums T_n = sum_{j<=n} theta_{z_j,g_j} for n = 0, 1, ...
    up to the budget (default: the whole frame when one is given, else
    the module dimension) and passes at the first n with
    sup_x ||x - T_n x|| < eps, returning its n theta pairs (none at
    n = 0: the zero operator).  A miss is
    reported with budget_exhausted set: other frames or operators remain
    untried, so the failure is inconclusive rather than certified.
    """
    check_eps(eps)
    _check_rank_budget(rank_budget)
    pairs = _theta_pairs(sample, frame, rank_budget)
    return _certificate_cd(_error_profile(sample, pairs, eps), pairs, eps)


# -- the equivalence runner -------------------------------------------------


@dataclass(frozen=True)
class CertifyConfig:
    """Inputs for the equivalence runner; None fields get derived defaults.

    generators is a SampleSet or module vectors (`SampleSet.of`); None or
    an empty family means the frame's own vectors.
    """

    eps_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125)
    frame: Frame | None = None
    generators: SampleSet | tuple[ModuleVector, ...] | None = None
    rank_budget: int | None = None


@dataclass(frozen=True)
class EquivalenceEntry:
    eps: float
    cert_a: Certificate
    cert_a_scaled: Certificate
    cert_b: Certificate
    cert_cd: Certificate
    violations: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "a": self.cert_a.to_json_dict(),
            "a_scaled": self.cert_a_scaled.to_json_dict(),
            "b": self.cert_b.to_json_dict(),
            "cd": self.cert_cd.to_json_dict(),
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class EquivalenceReport:
    entries: tuple[EquivalenceEntry, ...]
    frame_bounds: tuple[float, float] | None

    @property
    def violations(self) -> tuple[str, ...]:
        out = []
        for e in self.entries:
            out.extend(e.violations)
        return tuple(out)

    @property
    def exit_code(self) -> int:
        if self.violations:
            return 1
        verdicts = [
            (e.cert_a.verdict, e.cert_b.verdict, e.cert_cd.verdict)
            for e in self.entries
        ]
        if all(all(v) for v in verdicts):
            return 0
        for e in self.entries:
            for cert in (e.cert_a, e.cert_b, e.cert_cd):
                if not cert.verdict and not cert.budget_exhausted:
                    return 1
        return 2

    def to_json_dict(self) -> dict:
        doc = {
            "version": 1,
            "kind": "equivalence_report",
            "entries": [e.to_json_dict() for e in self.entries],
        }
        if self.frame_bounds is not None:
            doc["frame_bounds"] = list(self.frame_bounds)
        return doc


@dataclass(frozen=True)
class _PassData:
    """What the implication checks read of the runner's eps-free passes.

    The frame bounds (c1, c2), the generator count s, the sup tails of
    the generators and of the sample along the frame, and the d=>a
    replay (None when no eps of the grid passes C/D).
    """

    bounds: tuple[float, float]
    generator_count: int
    gen_tails: list[float]
    tails: list[float]
    replay: _ReplayData | None


def _a_implies_b(data: _PassData, a, a_scaled, b, cd) -> list[str]:
    """A at eps*c1/(3*c2) forces B at eps once the generator tails reach eps/(3*s*M).

    The three-term estimate is rechecked prefix by prefix.  On an empty
    sample M = 0, the threshold is inf and every sample tail is 0.0: no
    violation.
    """
    if not a_scaled.verdict:
        return []
    c1, c2 = data.bounds
    s, gen_tails, tails = data.generator_count, np.asarray(data.gen_tails), data.tails
    m = len(gen_tails) - 1
    m_coeff = a_scaled.coefficient_bound or 0.0
    thresh = math.inf if m_coeff == 0.0 else b.eps / (3.0 * s * m_coeff)
    estimates = a_scaled.eps * (1.0 + c2 / c1) + s * gen_tails * m_coeff
    broken = below(gen_tails, thresh) & ~below(tails, estimates, COHERENCE_TOL)
    out = [
        f"a=>b chain broken at prefix {n}: tail {tails[n]:.6g} "
        f"exceeds the three-term estimate {estimates[n]:.6g}"
        for n in np.flatnonzero(broken).tolist()
    ]
    stable = _settled_from(gen_tails, thresh)
    if stable < m:
        if not b.verdict or b.witness["N"] > stable:
            out.append(
                f"a at eps*c1/(3c2) holds and generator tails reach "
                f"{thresh:.6g} from prefix {stable}, yet condition b "
                f"reports N={b.witness['N']}"
            )
    return out


def _d_implies_a(data: _PassData, a, a_scaled, b, cd) -> list[str]:
    """A C/D pass at eps yields condition-A data with a_k(x) = <g_k, x> bounded by R*max||g_k||.

    Both the bound and the residual are replayed against the theta pairs
    directly.  Only a pass carries an approximant, and an empty sample's
    is ().
    """
    if not (cd.verdict and cd.approximant):
        return []
    replay, rank = data.replay, len(cd.approximant)
    m_da = max(replay.point_norms) * max(replay.pair_norms[:rank])
    coefficients = np.asarray(replay.coefficient_norms)[:, :rank]
    bound_broken = ~below(coefficients, m_da, COHERENCE_TOL, 1.0 + m_da).all(axis=1)
    residual_broken = ~below(np.asarray(replay.residual_norms)[:, rank], cd.eps, COHERENCE_TOL)
    out = []
    for i in np.flatnonzero(bound_broken | residual_broken).tolist():
        if bound_broken[i]:
            out.append(
                f"d=>a bound broken at point {i}: coefficient norm "
                f"exceeds R*max||f_k|| = {m_da:.6g}"
            )
        if residual_broken[i]:
            out.append(
                f"d=>a residual broken at point {i}: direct coefficient "
                f"replay misses the eps bound"
            )
    return out


def _bd_bound(data: _PassData, a, a_scaled, b, cd) -> list[str]:
    """The minimal-norm coefficients of a passing A stay within the finite-dimensional bound B*D."""
    if a.verdict and not a.diagnostics.get("bd_bound_ok", True):
        return ["finite-dimensional coefficient bound B*D violated by the minimal-norm solution"]
    return []


# Every implication the runner replays, as (premise, conclusion, check).  A check
# takes the pass data and one eps's certificates A, A at eps*c1/(3*c2), B and C/D.
IMPLICATIONS = (
    ("A", "B", _a_implies_b),
    ("CD", "A", _d_implies_a),
    ("A", "A", _bd_bound),
)


def _vacuous_certificate(condition: str, eps: float) -> Certificate:
    return Certificate(condition=condition, eps=eps, verdict=True,
                       witness={"vacuous": True}, diagnostics={})


def certify_equivalences(sample: SampleSet, config: CertifyConfig | None = None) -> EquivalenceReport:
    """Run conditions A, B, and C/D and recheck the proof's constant chains.

    The coherence checks are the rows of `IMPLICATIONS`, each a numerical
    replay of one implication of the proof, run on every entry in row order:

      premise  conclusion  message prefixes
      A        B           "a=>b chain broken", "a at eps*c1/(3c2) holds"
      CD       A           "d=>a bound broken", "d=>a residual broken"
      A        A           "finite-dimensional coefficient bound B*D"

    Each replay's slack is COHERENCE_TOL, under the rule of `tolerances`.
    Violations indicate an implementation bug and are reported verbatim.

    Every eps of the grid, and the rank budget, is checked before any
    work.  The sample and the generators are read in the frame's module
    (`SampleSet.in_module`), so a family of another module is refused.
    The generators are stacked once, and default generators are the
    frame's own family, so no module vector is built for them.  Each
    condition's eps-free pass runs once for the whole grid:
    one least-squares pass serves A at every eps and every eps*c1/(3*c2),
    one tail pass over the generators and the sample, joined along the
    point axis, serves the a=>b replay and B, the span family is built
    and stacked once and its stack serves as both sides of the theta
    pairs, the point norms are taken once, and the C/D error profile runs
    to the rank the smallest eps needs; the d=>a replay runs once, to the
    largest rank any eps reached.
    """
    config = config or CertifyConfig()
    for eps in config.eps_grid:
        check_eps(eps)
    _check_rank_budget(config.rank_budget)
    if not len(sample) and config.frame is None:
        entries = tuple(
            EquivalenceEntry(
                eps,
                _vacuous_certificate("A", eps),
                _vacuous_certificate("A", eps),
                _vacuous_certificate("B", eps),
                _vacuous_certificate("CD", eps),
                (),
            )
            for eps in config.eps_grid
        )
        return EquivalenceReport(entries, None)

    frame = config.frame or standard_basis_frame(sample.shape, sample.dim)
    c1, c2 = frame.bounds
    scaled_grid = [eps * c1 / (3.0 * c2) for eps in config.eps_grid]
    for eps, eps_scaled in zip(config.eps_grid, scaled_grid):
        if not (math.isfinite(eps_scaled) and below(0.0, eps_scaled)):
            raise ValueError(
                f"the condition A radius eps*c1/(3*c2) = {eps_scaled!r} at eps = {eps!r} "
                f"(c1 = {c1!r}, c2 = {c2!r}) is not a finite positive number"
            )

    gens = SampleSet.of(config.generators or frame._family)
    s = len(gens)
    coefficients = _coefficient_data(sample, gens)
    shape, dim = frame.shape, frame.dim
    parts = zip(gens.in_module(shape, dim), sample.in_module(shape, dim))
    profiles = frame.tail_profiles(
        SampleSet._packed(shape, dim, (np.concatenate(p, axis=1) for p in parts))
    )
    gen_tails, tails_z = _sup_tails(profiles[:s]), _sup_tails(profiles[s:])
    pairs = _theta_pairs(sample, None, config.rank_budget)
    errors = _error_profile(sample, pairs, min(config.eps_grid, default=math.inf))
    certs_cd = [_certificate_cd(errors, pairs, eps) for eps in config.eps_grid]
    longest = max((len(c.approximant) for c in certs_cd if c.verdict), default=0)
    replay = _replay_data(sample, tuple(side.head(longest) for side in pairs)) if longest else None

    data = _PassData((c1, c2), s, gen_tails, tails_z, replay)
    entries = []
    for eps, eps_scaled, cert_cd in zip(config.eps_grid, scaled_grid, certs_cd):
        certs = (
            _certificate_a(coefficients, eps),
            _certificate_a(coefficients, eps_scaled),
            _certificate_b(tails_z, eps),
            cert_cd,
        )
        violations = tuple(v for _, _, check in IMPLICATIONS for v in check(data, *certs))
        entries.append(EquivalenceEntry(eps, *certs, violations))
    return EquivalenceReport(tuple(entries), (c1, c2))


# -- operators ---------------------------------------------------------------


def _singular_profile(op, budget: int) -> tuple[list[float], SampleSet]:
    """errors[n] = max_k sigma_{n*n_k+1}(R_k T) for n = 0..budget, and the vectors u_j of the approximants.

    One SVD per size class of the operator's realized blocks R_k T.  A sum
    of n thetas realizes on block k as a matrix of rank at most n*n_k,
    and every such matrix is one, so by Eckart-Young-Mirsky (Mirsky,
    Quart. J. Math. 11, 1960) errors[n] is the least sup over the unit
    ball of ||Tx - FTx|| among sums F of n thetas; a singular value past
    the matrix size counts as 0.  Block k of u_j is the j-th group of n_k
    leading left singular vectors of R_k T, zero past the last of them,
    so sum_{j<n} theta_{u_j,u_j} T is the truncated SVD of every block.
    """
    errors = np.zeros(budget + 1)
    stacks = []
    for tk, (n, _) in zip(op.stacks, op.shape.classes):
        left, values, _ = np.linalg.svd(tk, full_matrices=False)
        top = values[:, ::n][:, : budget + 1].max(axis=0)
        errors[: len(top)] = np.maximum(errors[: len(top)], top)
        width = min(left.shape[-1], budget * n)
        groups = np.zeros(tk.shape[:2] + (budget * n,), complex)
        groups[..., :width] = left[..., :width]
        stacks.append(groups.reshape(len(tk), -1, budget, n).swapaxes(1, 2))
    return errors.tolist(), SampleSet._packed(op.shape, op.target_dim, stacks)


def operator_precompact(op, eps: float, rank_budget: int | None = None) -> Certificate:
    """Condition C/D on the image of the unit ball under an operator, exactly.

    The error profile is `_singular_profile` for n = 0 up to the rank
    budget, which defaults to (and is capped at) the target dimension,
    where the error is 0.  The certificate is the C/D certificate of that
    profile: a pass at the first n below eps carries the n pairs
    (u_j, u_j) of the truncated SVD.  A miss at the budget is certified
    (exit 1), since no sum of that many thetas does better.

    Two replays along other routes report into
    diagnostics["coherence_violations"], each a bug in the program:
      - the approximant's own error ||T - sum_j theta_{u_j,u_j} T|| (the
        rank-`budget` one on a miss), summed by `gram_block`, must equal
        the profile's within COHERENCE_TOL * (1 + error);
      - at every n the profile must not exceed the tail ||T - P_n T||
        along the standard basis (`series_decompose`) by more than
        COHERENCE_TOL, since P_n T is a sum of n thetas.
    diagnostics["condition_b_verdict"] is condition B at eps on those
    same tails.
    """
    check_eps(eps)
    _check_rank_budget(rank_budget)
    shape, dim = op.shape, op.target_dim
    budget = dim if rank_budget is None else min(int(rank_budget), dim)
    errors, u = _singular_profile(op, budget)
    cert = _certificate_cd(errors, (u, u), eps)
    rank = len(cert.approximant) if cert.verdict else budget
    heads = u.head(rank).realizations
    replayed = blockwise_max(
        [spectral_norms(tk - gram_block(uk, uk, dim) @ tk) for tk, uk in zip(op.stacks, heads)]
    )
    violations = []
    if not below(abs(replayed - errors[rank]), 0.0, COHERENCE_TOL, 1.0 + errors[rank]):
        violations.append(
            f"rank {rank} approximant replays to error {replayed:.6g}, "
            f"not the profile's {errors[rank]:.6g}"
        )
    tails = series_decompose(op, standard_basis_frame(shape, dim)).errors
    above = ~below(errors, np.asarray(tails[: len(errors)]), COHERENCE_TOL)
    violations += [
        f"c/d error {errors[n]:.6g} at rank {n} exceeds the b tail {tails[n]:.6g}"
        for n in np.flatnonzero(above).tolist()
    ]
    diagnostics = dict(
        cert.diagnostics,
        coherence_violations=violations,
        condition_b_verdict=_certificate_b(list(tails), eps).verdict,
    )
    return dataclasses.replace(cert, budget_exhausted=False, diagnostics=diagnostics)


@dataclass(frozen=True, eq=False)
class SeriesDecomposition:
    """Theta-series data for an operator against a range frame.

    errors[n] = ||T - S_n|| for the partial sums S_n; floor is the value
    at full length (nonzero exactly when the frame misses part of the
    range), achieved_rank the first prefix meeting the tolerance.
    pairs[j] = (x_j, T* g_j) gives the j-th term theta_{x_j, T* g_j}; the
    pairs are built from the two families' stored realizations only when
    read.
    """

    errors: tuple[float, ...]
    floor: float
    achieved_rank: int | None
    _family: SampleSet = field(repr=False)
    _adjoints: SampleSet = field(repr=False)

    @functools.cached_property
    def pairs(self) -> tuple[tuple[ModuleVector, ModuleVector], ...]:
        return tuple(zip(self._family, self._adjoints))

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "series_decomposition",
            "errors": list(self.errors),
            "floor": self.floor,
            "achieved_rank": self.achieved_rank,
            "rank_count": len(self._family),
        }


def series_decompose(op, frame: Frame | None = None, eps: float = SERIES_EPS) -> SeriesDecomposition:
    """Expand an operator into theta terms along a frame for its range.

    With no frame given, one is built from the operator's columns by
    module Gram-Schmidt (the columns generate the range).  Each term is
    theta_{x_j, T* g_j}, so the partial sums are the frame's partial
    reconstructions composed with the operator.

    Works on block realizations only: per size class, Y = T_k* G stacks
    the realizations of every T* g_j in one batched product, and one
    `fold_pair_maxima` over T's realized blocks, a family of one point,
    gives errors[n] = max_k ||T_k - S_n|| for n = 0..size.  Column l of
    a term is the product R(x_j) y_jl* on a contiguous adjoint, all in
    one batched matmul, which gives each block x_ji y_jl* the arithmetic
    of the algebra product x_i * y_l.adjoint() (the stacked-left rule,
    README Storage).  The partial sums S_n are the prefixes of
    `ordered_sums` in frame order, started at +0.0, and T_k - S_0 is
    T_k.  S_n can differ from the repeated operator sum theta_0 + ... in
    the sign of a zero entry, and the SVD reads that sign, so a norm can
    differ by an ulp: the bytes are the ones
    `test_series_errors_equal_the_coordinate_products` pins.  A zero
    block T_k is skipped: there every y_j = T_k* g_j is zero, for the
    finite g_j of a frame or a span family, so is every term, and each
    error is +0.0.
    """
    check_eps(eps)
    shape = op.shape
    if frame is None:
        columns = [
            op(ModuleVector.basis(shape, op.source_dim, j))
            for j in range(op.source_dim)
        ]
        family = orthogonal_span_family(columns)
        x_stacks = g_stacks = family.realizations
    else:
        if frame.shape != shape or frame.dim != op.target_dim:
            raise ValueError("operator/vector dimension mismatch")
        family = frame._family
        x_stacks, g_stacks = family.realizations, frame._dual.realizations

    y_stacks = tuple(
        np.ascontiguousarray(tk.conj().swapaxes(-1, -2))[:, None] @ gk
        for tk, gk in zip(op.stacks, g_stacks)
    )
    size = len(family)
    norms = np.zeros((1, size + 1))
    for tk, xk, yk in zip(op.stacks, x_stacks, y_stacks):
        n = xk.shape[-1]
        rows, cols = tk.shape[1:]

        def norms_of(blocks, t):
            y_adj = np.ascontiguousarray(
                yk[blocks].reshape(len(t), size, cols // n, n, n).conj().swapaxes(-1, -2)
            )
            terms = xk[blocks, :, None] @ y_adj
            terms = terms.transpose(0, 1, 3, 2, 4).reshape(len(t), size, rows, cols)
            return spectral_norms(t - ordered_sums(terms, 1))[:, None]

        fold_pair_maxima(norms, tk[:, None], (size + 1) * rows * cols, norms_of)
    errors = norms[0].tolist()
    achieved = _first_below(errors, eps)
    adjoints = SampleSet._packed(shape, op.source_dim, y_stacks)
    return SeriesDecomposition(tuple(errors), errors[-1], achieved, family, adjoints)


def free_submodule_check(sample: SampleSet, generators, eps: float) -> Certificate:
    """Approximation by a free orthonormal submodule, with the 2*eps check.

    The generators are a SampleSet or module vectors (`SampleSet.of`).
    Generators must satisfy <g_i,g_j> = delta_ij * 1 within
    GRAM_DEFECT_ATOL, else a GramDefectError carries the defect: NaN for
    a gram with a non-finite entry, refused before any SVD sees it.  The
    verdict demands
    dist(x, Span_A(generators)) < eps for every sample point; the
    projection P = sum theta_{g_j,g_j} is then applied and the
    ||x - Px|| < 2*eps amplification recorded literally.

    Runs on the stacked realizations, per size class: every <g_i,g_j> is
    one batched product, P is `gram_block` of the generators with
    themselves, and every residual x - Px is one batched product against
    the sample (`SampleSet.in_module`).
    """
    check_eps(eps)
    gens = generator_family(generators)
    shape, dim, s = gens.shape, gens.dim, len(gens)
    defects = []
    for gk, (n, _) in zip(gens.realizations, shape.classes):
        with np.errstate(over="ignore", invalid="ignore"):
            grams = gk.conj().swapaxes(-1, -2)[:, :, None] @ gk[:, None]
        if not np.isfinite(grams).all():  # an overflowing gram has a NaN defect, and no SVD
            raise GramDefectError(math.nan)
        defects.append(spectral_norms(grams - np.eye(s)[:, :, None, None] * np.eye(n)))
    defect = float(np.max([d.max() for d in defects]))
    if not below(defect, 0.0, GRAM_DEFECT_ATOL):
        raise GramDefectError(defect)

    stacks = sample.in_module(shape, dim)
    residuals = stack_norms(
        xk - gram_block(gk, gk, dim)[:, None] @ xk for xk, gk in zip(stacks, gens.realizations)
    )
    _, dists, _ = span_least_squares(sample, gens)
    near = below(dists, eps)
    verdict = bool(near.all())
    two_eps_ok = bool(below(residuals, 2.0 * eps)[near].all())
    return Certificate(
        condition="FREE",
        eps=eps,
        verdict=verdict,
        witness={"generator_count": len(gens)},
        diagnostics={
            "distances": dists,
            "projection_residuals": residuals,
            "two_eps_ok": two_eps_ok,
            "gram_defect": defect,
        },
    )
