"""Precompactness certificates for finite sample sets and operators.

The four equivalent characterizations of precompact sets become finite
checks here: bounded-coefficient approximation from fixed generators
(condition A), uniform frame-reconstruction tails (condition B), and
finite-rank uniform approximation of the identity on the sample
(conditions C and D, which coincide over these self-dual modules).  The
equivalence runner rechecks the proof's constant chains numerically and
flags any incoherence as an implementation bug, since the theorem leaves
no room for disagreement.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .algebra import AlgebraElement
from .frames import Frame, standard_basis_frame
from .modules import (
    ModuleVector,
    inner_product,
    orthogonal_span_family,
    submodule_distance,
    synthesis_pinv_norm,
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


def check_condition_a(sample: SampleSet, generators, eps: float, tol: float = 1e-9) -> Certificate:
    """Bounded-coefficient approximation from a fixed generator family.

    Every sample point is solved against Span_A(generators) by the
    blockwise least-squares route; the verdict demands residual < eps for
    all points, and M_eps is the observed maximum coefficient norm.  The
    diagnostics also record the automatic-boundedness data for
    finite-dimensional algebras: the minimal-norm coefficient tuple obeys
    ||(a_1..a_s)|| <= B*D with B the inverse-off-kernel norm of the
    synthesis map and D the largest approximant norm.
    """
    generators = list(generators)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not generators:
        raise ValueError("at least one generator required")
    b_const = synthesis_pinv_norm(generators)

    def solve(x):
        residual, coeffs = submodule_distance(x, generators)
        stacked = ModuleVector(x.shape, tuple(coeffs)).norm()
        approx = ModuleVector.zero(x.shape, x.dim)
        for g, c in zip(generators, coeffs):
            approx = approx + g * c
        return residual, [c.norm() for c in coeffs], stacked, approx.norm()

    rows = [solve(x) for x in sample.points]
    residuals = [r[0] for r in rows]
    coeff_norms = [r[1] for r in rows]
    stacked_norms = [r[2] for r in rows]
    approx_norms = [r[3] for r in rows]
    verdict = all(r < eps for r in residuals)
    m_eps = max((max(cn) for cn in coeff_norms if cn), default=0.0)
    d_const = max(approx_norms, default=0.0)
    bd = b_const * d_const
    bd_ok = all(s <= bd + tol * (1.0 + bd) for s in stacked_norms)
    return Certificate(
        condition="A",
        eps=eps,
        verdict=verdict,
        coefficient_bound=m_eps,
        witness={"generator_count": len(generators), "M_eps": m_eps},
        diagnostics={
            "residuals": residuals,
            "coefficient_norms": coeff_norms,
            "stacked_coefficient_norms": stacked_norms,
            "B": b_const,
            "D": d_const,
            "bd_bound_ok": bd_ok,
        },
    )


def check_condition_b(sample: SampleSet, frame: Frame, eps: float) -> Certificate:
    """Uniform frame-reconstruction tails over the sample.

    tails[n] = sup over the sample of ||x - sum_{j<n} x_j <g_j,x>||.  N is
    the smallest prefix from which every tail stays below eps; the finite
    family makes tails[size] = 0, so N always exists.  The verdict
    demands N < size: reaching eps only at the full prefix is exactly the
    uniform-tail failure.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = frame.size
    profiles = [frame.tail_profile(x) for x in sample.points]
    tails = [max((p[n] for p in profiles), default=0.0) for n in range(m + 1)]
    n_stable = 0
    for n in range(m):
        if tails[n] >= eps:
            n_stable = n + 1
    verdict = n_stable < m
    return Certificate(
        condition="B",
        eps=eps,
        verdict=verdict,
        witness={"N": n_stable},
        diagnostics={"tail_profile": tails},
    )


def _approximation_pairs(sample: SampleSet, frame: Frame | None):
    """(z_j, g_j) theta pairs: from the frame, or from the sample's own span.

    Without an explicit frame the pairs come from module Gram-Schmidt of
    the sample, i.e. a frame for the submodule the sample generates (the
    constructive b-to-c route); the orthogonalized family is self-dual.
    """
    if frame is not None:
        return list(zip(frame.vectors, frame.canonical_dual()))
    return [(w, w) for w in orthogonal_span_family(sample.points)]


def check_condition_cd(
    sample: SampleSet,
    eps: float,
    rank_budget: int | None = None,
    frame: Frame | None = None,
) -> Certificate:
    """Finite-rank uniform approximation of the identity on the sample.

    Scans partial sums T_n = sum_{j<=n} theta_{z_j,g_j} for increasing n
    up to the budget and passes at the first n with
    sup_x ||x - T_n x|| < eps, returning the theta pairs.  A miss is
    reported with budget_exhausted set: other frames or operators remain
    untried, so the failure is inconclusive rather than certified.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not sample.points:
        return Certificate(
            condition="CD",
            eps=eps,
            verdict=True,
            witness={"rank": 0},
            diagnostics={"error_profile": [0.0], "best_error": 0.0},
            approximant=(),
        )
    pairs = _approximation_pairs(sample, frame)
    budget = sample.dim if rank_budget is None else int(rank_budget)
    limit = min(budget, len(pairs))

    residuals = list(sample.points)
    errors = [max(r.norm() for r in residuals)]
    achieved = 0 if errors[0] < eps else None
    for n in range(1, limit + 1):
        z, g = pairs[n - 1]
        residuals = [
            r - z * inner_product(g, x)
            for r, x in zip(residuals, sample.points)
        ]
        errors.append(max(r.norm() for r in residuals))
        if errors[-1] < eps:
            achieved = n
            break
    best = min(errors)
    if achieved is not None:
        return Certificate(
            condition="CD",
            eps=eps,
            verdict=True,
            witness={"rank": achieved},
            diagnostics={"error_profile": errors, "best_error": best},
            approximant=tuple(pairs[:achieved]),
        )
    return Certificate(
        condition="CD",
        eps=eps,
        verdict=False,
        budget_exhausted=True,
        witness={"rank_budget": limit},
        diagnostics={"error_profile": errors, "best_error": best},
    )


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
    """
    config = config or CertifyConfig()
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

    gen_profiles = [frame.tail_profile(g) for g in generators]
    gen_tails = [max(p[n] for p in gen_profiles) for n in range(m + 1)]

    entries = []
    for eps in config.eps_grid:
        eps_scaled = eps * c1 / (3.0 * c2)
        cert_a = check_condition_a(sample, generators, eps)
        cert_a_scaled = check_condition_a(sample, generators, eps_scaled)
        cert_b = check_condition_b(sample, frame, eps)
        cert_cd = check_condition_cd(sample, eps, config.rank_budget)
        violations: list[str] = []

        if cert_a_scaled.verdict and sample.points:
            m_coeff = cert_a_scaled.coefficient_bound or 0.0
            thresh = math.inf if m_coeff == 0.0 else eps / (3.0 * s * m_coeff)
            tails_z = cert_b.diagnostics["tail_profile"]
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
            pairs = cert_cd.approximant
            r_const = max(x.norm() for x in sample.points)
            f_max = max(g.norm() for _, g in pairs)
            m_da = r_const * f_max
            for i, x in enumerate(sample.points):
                coeffs = [inner_product(g, x) for _, g in pairs]
                if any(c.norm() > m_da + tol * (1.0 + m_da) for c in coeffs):
                    violations.append(
                        f"d=>a bound broken at point {i}: coefficient norm "
                        f"exceeds R*max||f_k|| = {m_da:.6g}"
                    )
                approx = ModuleVector.zero(x.shape, x.dim)
                for (z, _), c in zip(pairs, coeffs):
                    approx = approx + z * c
                if (x - approx).norm() >= eps + tol:
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


@dataclass(frozen=True)
class SeriesDecomposition:
    """Theta-series data for an operator against a range frame.

    errors[n] = ||T - S_n|| for the partial sums S_n; floor is the value
    at full length (nonzero exactly when the frame misses part of the
    range), achieved_rank the first prefix meeting the tolerance.
    """

    pairs: tuple[tuple[ModuleVector, ModuleVector], ...]
    terms: tuple
    errors: tuple[float, ...]
    floor: float
    achieved_rank: int | None

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "series_decomposition",
            "errors": list(self.errors),
            "floor": self.floor,
            "achieved_rank": self.achieved_rank,
            "rank_count": len(self.pairs),
        }


def series_decompose(op, frame: Frame | None = None, eps: float = 1e-9) -> SeriesDecomposition:
    """Expand an operator into theta terms along a frame for its range.

    With no frame given, one is built from the operator's columns by
    module Gram-Schmidt (the columns generate the range).  Each term is
    theta_{x_j, T* g_j}, so the partial sums are the frame's partial
    reconstructions composed with the operator.
    """
    shape = op.shape
    if frame is None:
        columns = [
            op(ModuleVector.basis(shape, op.source_dim, j))
            for j in range(op.source_dim)
        ]
        fam = orthogonal_span_family(columns)
        frame_pairs = [(w, w) for w in fam]
    else:
        frame_pairs = list(zip(frame.vectors, frame.canonical_dual()))

    adjoint = op.adjoint()
    pairs = [(x_j, adjoint(g_j)) for x_j, g_j in frame_pairs]
    terms = [theta_op(x_j, y_j) for x_j, y_j in pairs]

    errors = [op.norm()]
    partial = None
    for t in terms:
        partial = t if partial is None else partial + t
        errors.append((op - partial).norm())
    floor = errors[-1]
    achieved = None
    for n, err in enumerate(errors):
        if err < eps:
            achieved = n
            break
    return SeriesDecomposition(tuple(pairs), tuple(terms), tuple(errors), floor, achieved)


def free_submodule_check(sample: SampleSet, generators, eps: float, tol: float = 1e-8) -> Certificate:
    """Approximation by a free orthonormal submodule, with the 2*eps check.

    Generators must satisfy <g_i,g_j> = delta_ij * 1 within tol, else a
    GramDefectError carries the defect.  The verdict demands
    dist(x, Span_A(generators)) < eps for every sample point; the
    projection P = sum theta_{g_j,g_j} is then applied and the
    ||x - Px|| < 2*eps amplification recorded literally.
    """
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

    def measure(x):
        dist, _ = submodule_distance(x, generators)
        return dist, (x - projector(x)).norm()

    rows = [measure(x) for x in sample.points]
    dists = [r[0] for r in rows]
    residuals = [r[1] for r in rows]
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
