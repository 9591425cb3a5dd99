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
so each condition is split in two: an eps-free pass over the whole
sample, batched per size class on the stacked realizations, and a
cheap certificate built from that data for one eps.  The equivalence
runner makes each pass once and builds every certificate of its eps grid
from it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, blockwise_max, check_eps, chunks, spectral_norms, tiles
from .frames import Frame, standard_basis_frame
from .modules import (
    ModuleVector,
    coordinate_blocks,
    family_vectors,
    inner_product,
    orthogonal_span_family,
    realization_stacks,
    span_least_squares,
    stack_norms,
    theta_op,
)
from .seminorms import BallSampler, SampleSet


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


def _realizations(sample: SampleSet, like: ModuleVector) -> tuple[np.ndarray, ...]:
    """The sample's per-block stacks; zero-length ones in like's module if empty."""
    if sample.points:
        return sample.realizations
    return realization_stacks((), like.shape, like.dim)


@dataclass(frozen=True)
class _CoefficientData:
    """Condition A on one sample and generator family, before any eps."""

    generator_count: int
    residuals: list[float]
    coefficient_norms: list[list[float]]
    stacked_norms: list[float]
    approx_norms: list[float]
    b_const: float


def _coefficient_data(sample: SampleSet, generators: list) -> _CoefficientData:
    """Solve every point against Span_A(generators), one pseudo-inverse per block.

    Besides each point's residual and B, records the norm of each
    coefficient, of the stacked coefficient tuple, and of the approximant
    sum_i g_i a_i, whose per-coordinate products are summed from zero in
    generator order.
    """
    g0 = generators[0]
    coeffs, residuals, b_const = span_least_squares(_realizations(sample, g0), generators)
    s = len(generators)
    coeff_norms, stacked_norms, approx_norms = [], [], []
    for ak, gk in zip(coeffs, realization_stacks(generators, g0.shape, g0.dim)):
        count, points, _, n = ak.shape
        per_coeff = ak.reshape(count, points, s, n, n)
        coeff_norms.append(spectral_norms(per_coeff))
        stacked_norms.append(spectral_norms(ak))
        gen_coords = coordinate_blocks(gk, g0.dim)
        approx = np.zeros((count, points) + gen_coords.shape[2:], complex)
        for i in range(s):
            approx = approx + gen_coords[:, None, i] @ per_coeff[:, :, i, None]
        approx_norms.append(spectral_norms(approx.reshape(count, points, -1, n)))
    return _CoefficientData(
        s,
        residuals,
        blockwise_max(g0.shape, coeff_norms),
        blockwise_max(g0.shape, stacked_norms),
        blockwise_max(g0.shape, approx_norms),
        b_const,
    )


def _sup_tails(profiles: np.ndarray) -> list[float]:
    """tails[n] = sup over the points of their n-th prefix tail (0 if none)."""
    return [max(col, default=0.0) for col in profiles.T.tolist()]


def _theta_pairs(sample: SampleSet, frame: Frame | None, rank_budget) -> tuple[list, int]:
    """The (z_j, g_j) theta pairs within the rank limit of the C/D scan, and that limit.

    Without an explicit frame the pairs come from module Gram-Schmidt of
    the sample, i.e. a frame for the submodule the sample generates (the
    constructive b-to-c route); the orthogonalized family is self-dual.
    The rank limit is the budget (default: the module dimension) capped
    by the number of pairs.
    """
    if frame is not None:
        pairs = list(zip(frame.vectors, frame.canonical_dual()))
    else:
        pairs = [(w, w) for w in orthogonal_span_family(sample.points)]
    budget = sample.dim if rank_budget is None else int(rank_budget)
    limit = min(budget, len(pairs))
    return pairs[: max(limit, 0)], limit


def _pair_stacks(sample: SampleSet, pairs) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per-block stacks of the z_j and of the g_j, checked against the sample's module."""
    return tuple(
        realization_stacks([pair[side] for pair in pairs], sample.shape, sample.dim)
        for side in (0, 1)
    )


def _error_profile(sample: SampleSet, pairs, eps: float) -> list[float]:
    """sup_x ||x - T_n x|| for the partial sums T_n = sum_{j<=n} theta_{z_j,g_j}.

    Runs from n = 0 up to the first n >= 0 whose error is below eps, or
    through all the given pairs.  One rank step updates the residuals
    r - z<g,x> of all points in one batched product per size class.
    """
    shape, dim = sample.shape, sample.dim
    stacks = sample.realizations
    residuals = list(stacks)
    errors = [max(stack_norms(shape, residuals))]
    z, g = _pair_stacks(sample, pairs)
    for j in range(len(pairs)):
        if errors[-1] < eps:
            break
        for c, (xk, zk, gk) in enumerate(zip(stacks, z, g)):
            coeffs = gk[:, j, None].conj().swapaxes(-1, -2) @ xk
            step = coordinate_blocks(zk[:, j], dim)[:, None] @ coeffs[:, :, None]
            residuals[c] = residuals[c] - step.reshape(xk.shape)
        errors.append(max(stack_norms(shape, residuals)))
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

    Computed from the theta pairs of an approximant alone: the
    approximants are summed from zero in pair order, independently of
    the residual recursion of condition C/D.  residual_norms[p][n] is the
    residual of point p with the first n pairs, so one pass over the
    longest approximant of a grid serves every shorter one.
    """
    count = len(pairs)
    shape, dim = sample.shape, sample.dim
    z, g = _pair_stacks(sample, pairs)
    coeff_norms, residual_norms = [], []
    for xk, zk, gk in zip(sample.realizations, z, g):
        blocks, points, rows, n = xk.shape
        g_adj = gk[:, None].conj().swapaxes(-1, -2)
        z_coords = coordinate_blocks(zk, dim)[:, None]
        cn = np.zeros((blocks, points, count))
        rn = np.zeros((blocks, points, count + 1))
        for part_blocks, part in tiles(blocks, points, (count + 1) * rows * n):
            x = xk[part_blocks, part, None]
            coeffs = g_adj[part_blocks] @ x
            cn[part_blocks, part] = spectral_norms(coeffs)
            terms = z_coords[part_blocks] @ coeffs[:, :, :, None]
            start = np.zeros(terms.shape[:2] + (1,) + terms.shape[3:], complex)
            approx = np.add.accumulate(np.concatenate((start, terms), axis=2), axis=2)
            residuals = x - approx.reshape(approx.shape[:3] + (rows, n))
            rn[part_blocks, part] = spectral_norms(residuals)
        coeff_norms.append(cn)
        residual_norms.append(rn)
    return _ReplayData(
        stack_norms(shape, sample.realizations),
        stack_norms(shape, g),
        blockwise_max(shape, coeff_norms),
        blockwise_max(shape, residual_norms),
    )


# -- certificates for one eps -------------------------------------------------


def _certificate_a(data: _CoefficientData, eps: float, tol: float) -> Certificate:
    verdict = all(r < eps for r in data.residuals)
    m_eps = max((max(cn) for cn in data.coefficient_norms if cn), default=0.0)
    d_const = max(data.approx_norms, default=0.0)
    bd = data.b_const * d_const
    bd_ok = all(s <= bd + tol * (1.0 + bd) for s in data.stacked_norms)
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
    m = len(tails) - 1
    n_stable = 0
    for n in range(m):
        if tails[n] >= eps:
            n_stable = n + 1
    return Certificate(
        condition="B",
        eps=eps,
        verdict=n_stable < m,
        witness={"N": n_stable},
        diagnostics={"tail_profile": list(tails)},
    )


def _certificate_cd(errors: list[float], pairs: list, limit: int, eps: float) -> Certificate:
    """The C/D verdict at eps from an error profile computed for eps or smaller.

    The scan stops at the first rank n >= 0 below eps: a sample already
    within eps of zero passes at rank 0, with the zero operator.
    """
    achieved = next((n for n in range(len(errors)) if errors[n] < eps), None)
    profile = errors[: len(errors) if achieved is None else achieved + 1]
    diagnostics = {"error_profile": profile, "best_error": min(profile)}
    if achieved is not None:
        return Certificate(
            condition="CD",
            eps=eps,
            verdict=True,
            witness={"rank": achieved},
            diagnostics=diagnostics,
            approximant=tuple(pairs[:achieved]),
        )
    return Certificate(
        condition="CD",
        eps=eps,
        verdict=False,
        budget_exhausted=True,
        witness={"rank_budget": limit},
        diagnostics=diagnostics,
    )


def _empty_sample_cd(eps: float) -> Certificate:
    return Certificate(
        condition="CD",
        eps=eps,
        verdict=True,
        witness={"rank": 0},
        diagnostics={"error_profile": [0.0], "best_error": 0.0},
        approximant=(),
    )


# -- the conditions -------------------------------------------------------------


def check_condition_a(sample: SampleSet, generators, eps: float, tol: float = 1e-9) -> Certificate:
    """Bounded-coefficient approximation from a fixed generator family.

    Every sample point is solved against Span_A(generators) by the
    blockwise least-squares route; the verdict demands residual < eps for
    all points, and M_eps is the observed maximum coefficient norm.  The
    residual is the exact distance (see `submodule_distance`), so a fail
    is certified.  The diagnostics also record the automatic-boundedness
    data for finite-dimensional algebras: the minimal-norm coefficient
    tuple obeys ||(a_1..a_s)|| <= B*D with B the inverse-off-kernel norm
    of the synthesis map and D the largest approximant norm.
    """
    check_eps(eps)
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator required")
    return _certificate_a(_coefficient_data(sample, generators), eps, tol)


def check_condition_b(sample: SampleSet, frame: Frame, eps: float) -> Certificate:
    """Uniform frame-reconstruction tails over the sample.

    tails[n] = sup over the sample of ||x - sum_{j<n} x_j <g_j,x>||.  N is
    the smallest prefix from which every tail stays below eps; the finite
    family makes tails[size] = 0, so N always exists.  The verdict
    demands N < size: reaching eps only at the full prefix is exactly the
    uniform-tail failure.
    """
    check_eps(eps)
    return tails_certificate(frame.tail_profiles(_realizations(sample, frame.vectors[0])), eps)


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
    up to the budget and passes at the first n with
    sup_x ||x - T_n x|| < eps, returning its n theta pairs (none at
    n = 0: the zero operator).  A miss is
    reported with budget_exhausted set: other frames or operators remain
    untried, so the failure is inconclusive rather than certified.
    """
    check_eps(eps)
    if not sample.points:
        return _empty_sample_cd(eps)
    pairs, limit = _theta_pairs(sample, frame, rank_budget)
    return _certificate_cd(_error_profile(sample, pairs, eps), pairs, limit, eps)


# -- the equivalence runner -------------------------------------------------


@dataclass(frozen=True)
class CertifyConfig:
    """Inputs for the equivalence runner; None fields get derived defaults."""

    eps_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125)
    frame: Frame | None = None
    generators: tuple[ModuleVector, ...] | None = None
    rank_budget: int | None = None
    seed: int = 0
    tol: float = 1e-8


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
    seed: int

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
            "seed": self.seed,
        }
        if self.frame_bounds is not None:
            doc["frame_bounds"] = list(self.frame_bounds)
        return doc


def _vacuous_certificate(condition: str, eps: float) -> Certificate:
    return Certificate(condition=condition, eps=eps, verdict=True,
                       witness={"vacuous": True}, diagnostics={})


def certify_equivalences(sample: SampleSet, config: CertifyConfig | None = None) -> EquivalenceReport:
    """Run conditions A, B, and C/D and recheck the proof's constant chains.

    Coherence checks, each a numerical replay of one implication:
      * A at eps*c1/(3*c2) forces B at eps once the generators'
        own reconstruction tails reach eps/(3*s*M); the three-term
        estimate is rechecked prefix by prefix.
      * A passing C/D at eps yields condition-A data with coefficients
        a_k(x) = <g_k, x> bounded by R*max||g_k||; both the bound and the
        residual are replayed against the theta pairs directly.
      * The minimal-norm coefficients of condition A stay within the
        automatic finite-dimensional bound B*D.
    Violations indicate an implementation bug and are reported verbatim.

    Every eps of the grid is checked before any work.  Each condition's
    eps-free pass runs once for the whole grid: one least-squares pass
    serves A at every eps and every eps*c1/(3*c2), one tail pass serves
    B, the span family is built once, and the C/D error profile runs to
    the rank the smallest eps needs; the d=>a replay runs once, to the
    largest rank any eps reached.
    """
    config = config or CertifyConfig()
    for eps in config.eps_grid:
        check_eps(eps)
    if not sample.points and config.frame is None:
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
        return EquivalenceReport(entries, None, config.seed)

    frame = config.frame or standard_basis_frame(sample.shape, sample.dim)
    generators = list(config.generators or frame.vectors)
    c1, c2 = frame.bounds
    s = len(generators)
    m = frame.size
    tol = config.tol
    scaled_grid = [eps * c1 / (3.0 * c2) for eps in config.eps_grid]
    for eps_scaled in scaled_grid:
        check_eps(eps_scaled)

    g0 = generators[0]
    gen_tails = _sup_tails(frame.tail_profiles(realization_stacks(generators, g0.shape, g0.dim)))
    coefficients = _coefficient_data(sample, generators)
    tails_z = _sup_tails(frame.tail_profiles(_realizations(sample, frame.vectors[0])))
    if sample.points:
        pairs, limit = _theta_pairs(sample, None, config.rank_budget)
        smallest = min(config.eps_grid, default=math.inf)
        errors = _error_profile(sample, pairs, smallest)
        certs_cd = [_certificate_cd(errors, pairs, limit, eps) for eps in config.eps_grid]
        longest = max((c.approximant for c in certs_cd if c.verdict), key=len, default=())
        replay = _replay_data(sample, longest) if longest else None
    else:
        certs_cd = [_empty_sample_cd(eps) for eps in config.eps_grid]

    entries = []
    for eps, eps_scaled, cert_cd in zip(config.eps_grid, scaled_grid, certs_cd):
        cert_a = _certificate_a(coefficients, eps, 1e-9)
        cert_a_scaled = _certificate_a(coefficients, eps_scaled, 1e-9)
        cert_b = _certificate_b(tails_z, eps)
        violations: list[str] = []

        if cert_a_scaled.verdict and sample.points:
            m_coeff = cert_a_scaled.coefficient_bound or 0.0
            thresh = math.inf if m_coeff == 0.0 else eps / (3.0 * s * m_coeff)
            ratio = c2 / c1
            stable = None
            for n in range(m, -1, -1):
                if gen_tails[n] <= thresh:
                    stable = n
                else:
                    break
            for n in range(m + 1):
                if gen_tails[n] > thresh:
                    continue
                estimate = eps_scaled * (1.0 + ratio) + s * gen_tails[n] * m_coeff
                if tails_z[n] > estimate + tol:
                    violations.append(
                        f"a=>b chain broken at prefix {n}: tail {tails_z[n]:.6g} "
                        f"exceeds the three-term estimate {estimate:.6g}"
                    )
            if stable is not None and stable < m:
                if not cert_b.verdict or cert_b.witness["N"] > stable:
                    violations.append(
                        f"a at eps*c1/(3c2) holds and generator tails reach "
                        f"{thresh:.6g} from prefix {stable}, yet condition b "
                        f"reports N={cert_b.witness['N']}"
                    )

        if cert_cd.verdict and sample.points and cert_cd.approximant:
            rank = len(cert_cd.approximant)
            r_const = max(replay.point_norms)
            f_max = max(replay.pair_norms[:rank])
            m_da = r_const * f_max
            for i, (coeff_norms, residuals) in enumerate(
                zip(replay.coefficient_norms, replay.residual_norms)
            ):
                if any(c > m_da + tol * (1.0 + m_da) for c in coeff_norms[:rank]):
                    violations.append(
                        f"d=>a bound broken at point {i}: coefficient norm "
                        f"exceeds R*max||f_k|| = {m_da:.6g}"
                    )
                if residuals[rank] >= eps + tol:
                    violations.append(
                        f"d=>a residual broken at point {i}: direct coefficient "
                        f"replay misses the eps bound"
                    )

        if cert_a.verdict and not cert_a.diagnostics.get("bd_bound_ok", True):
            violations.append(
                "finite-dimensional coefficient bound B*D violated by the "
                "minimal-norm solution"
            )

        entries.append(
            EquivalenceEntry(
                eps, cert_a, cert_a_scaled, cert_b, cert_cd, tuple(violations)
            )
        )
    return EquivalenceReport(tuple(entries), (c1, c2), config.seed)


# -- operators ---------------------------------------------------------------


def operator_precompact(op, sampler: BallSampler, eps: float, config: CertifyConfig | None = None) -> Certificate:
    """Certify precompactness of the operator's unit-ball image.

    Draws the sampler's points, drops any that escaped the ball, pushes
    the rest through the operator, and runs the equivalence pipeline at
    the single eps.  The returned certificate is the finite-rank verdict
    with coherence and rejection data merged into its diagnostics; a pass
    carries the approximant whose existence is equivalent to
    Banach-compactness here.
    """
    tol = (config.tol if config else 1e-8)
    points = sampler.draw()
    kept = [p for p in points if p.norm() <= 1.0 + tol]
    rejected = len(points) - len(kept)
    image = SampleSet(tuple(op(p) for p in kept), label="operator image")
    base = config or CertifyConfig()
    cfg = dataclasses.replace(base, eps_grid=(eps,))
    report = certify_equivalences(image, cfg)
    entry = report.entries[0]
    diag = dict(entry.cert_cd.diagnostics)
    diag["rejected_samples"] = rejected
    diag["coherence_violations"] = list(report.violations)
    diag["condition_b_verdict"] = entry.cert_b.verdict
    return dataclasses.replace(entry.cert_cd, diagnostics=diag)


@dataclass(frozen=True, eq=False)
class SeriesDecomposition:
    """Theta-series data for an operator against a range frame.

    errors[n] = ||T - S_n|| for the partial sums S_n; floor is the value
    at full length (nonzero exactly when the frame misses part of the
    range), achieved_rank the first prefix meeting the tolerance.
    pairs[j] = (x_j, T* g_j) gives the j-th term theta_{x_j, T* g_j}; the
    pairs are built from the stored realizations only when read.
    """

    errors: tuple[float, ...]
    floor: float
    achieved_rank: int | None
    _vectors: tuple[ModuleVector, ...] = field(repr=False)
    _adjoint_stacks: tuple[np.ndarray, ...] = field(repr=False)

    @functools.cached_property
    def pairs(self) -> tuple[tuple[ModuleVector, ModuleVector], ...]:
        if not self._vectors:
            return ()
        y0 = self._adjoint_stacks[0]
        adjoints = family_vectors(self._vectors[0].shape, y0.shape[2] // y0.shape[3], self._adjoint_stacks)
        return tuple(zip(self._vectors, adjoints))

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "series_decomposition",
            "errors": list(self.errors),
            "floor": self.floor,
            "achieved_rank": self.achieved_rank,
            "rank_count": len(self._vectors),
        }


def _series_errors(tk: np.ndarray, xk: np.ndarray, yk: np.ndarray) -> np.ndarray:
    """||T_k - S_n|| on every block of one size class for n = 0..size, from the term factors.

    tk holds the realized (m*n, d*n) blocks of T, shape (count, m*n, d*n),
    xk the stacked realizations (count, size, m*n, n) of the x_j and yk
    those (count, size, d*n, n) of the y_j.  Every (n, n) product
    x_ji y_jl* of every term comes out of one batched matmul on
    contiguous adjoints, which is the arithmetic of the algebra product
    x_i * y_l.adjoint(); the partial sums S_n add the terms in frame order
    from S_1 = theta_0, as repeated operator sums do, and all size + 1
    spectral norms are one batched call.  The blocks are taken in chunks
    that bound the size of the term tensor.  Returns (count, size + 1).
    """
    count, size, _, n = xk.shape
    rows, cols = tk.shape[1:]
    out = []
    for part in chunks(count, (size + 1) * rows * cols):
        t = tk[part, None]
        blocks = len(t)
        x = xk[part].reshape(blocks, size, rows // n, 1, n, n)
        y_adj = np.ascontiguousarray(
            yk[part].reshape(blocks, size, 1, cols // n, n, n).conj().swapaxes(-1, -2)
        )
        terms = (x @ y_adj).transpose(0, 1, 2, 4, 3, 5).reshape(blocks, size, rows, cols)
        residuals = t - np.add.accumulate(terms, axis=1)
        out.append(spectral_norms(np.concatenate((t, residuals), axis=1)))
    return np.concatenate(out)


def series_decompose(op, frame: Frame | None = None, eps: float = 1e-9) -> SeriesDecomposition:
    """Expand an operator into theta terms along a frame for its range.

    With no frame given, one is built from the operator's columns by
    module Gram-Schmidt (the columns generate the range).  Each term is
    theta_{x_j, T* g_j}, so the partial sums are the frame's partial
    reconstructions composed with the operator.

    Works on block realizations only: per size class, Y = T_k* G stacks
    the realizations of every T* g_j in one batched product, and
    `_series_errors` gives the error of every partial sum on every block;
    errors[n] is the largest over the blocks, taken in block order.
    """
    check_eps(eps)
    shape = op.shape
    if frame is None:
        columns = [
            op(ModuleVector.basis(shape, op.source_dim, j))
            for j in range(op.source_dim)
        ]
        vectors = tuple(orthogonal_span_family(columns))
        x_stacks = g_stacks = realization_stacks(vectors, shape, op.target_dim)
    else:
        if frame.shape != shape or frame.dim != op.target_dim:
            raise ValueError("operator/vector dimension mismatch")
        vectors = frame.vectors
        x_stacks, g_stacks = frame._vector_stacks, frame._dual_stacks

    y_stacks = tuple(
        np.ascontiguousarray(tk.conj().swapaxes(-1, -2))[:, None] @ gk
        for tk, gk in zip(op.stacks, g_stacks)
    )
    errors = blockwise_max(
        shape, [_series_errors(tk, xk, yk) for tk, xk, yk in zip(op.stacks, x_stacks, y_stacks)]
    )
    achieved = next((n for n, err in enumerate(errors) if err < eps), None)
    return SeriesDecomposition(tuple(errors), errors[-1], achieved, vectors, y_stacks)


def free_submodule_check(sample: SampleSet, generators, eps: float, tol: float = 1e-8) -> Certificate:
    """Approximation by a free orthonormal submodule, with the 2*eps check.

    Generators must satisfy <g_i,g_j> = delta_ij * 1 within tol, else a
    GramDefectError carries the defect.  The verdict demands
    dist(x, Span_A(generators)) < eps for every sample point; the
    projection P = sum theta_{g_j,g_j} is then applied and the
    ||x - Px|| < 2*eps amplification recorded literally.
    """
    check_eps(eps)
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator required")
    shape = generators[0].shape
    ident = AlgebraElement.identity(shape)
    zero = AlgebraElement.zero(shape)
    defect = 0.0
    for i, gi in enumerate(generators):
        for j, gj in enumerate(generators):
            want = ident if i == j else zero
            defect = max(defect, (inner_product(gi, gj) - want).norm())
    if defect > tol:
        raise GramDefectError(defect)

    projector = None
    for g in generators:
        t = theta_op(g, g)
        projector = t if projector is None else projector + t

    _, dists, _ = span_least_squares(_realizations(sample, generators[0]), generators)
    residuals = [(x - projector(x)).norm() for x in sample.points]
    verdict = all(d < eps for d in dists)
    two_eps_ok = all(
        r < 2.0 * eps for d, r in zip(dists, residuals) if d < eps
    )
    return Certificate(
        condition="FREE",
        eps=eps,
        verdict=verdict,
        witness={"generator_count": len(generators)},
        diagnostics={
            "distances": dists,
            "projection_residuals": residuals,
            "two_eps_ok": two_eps_ok,
            "gram_defect": defect,
        },
    )
