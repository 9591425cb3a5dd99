"""Precompactness conditions, coherence, operators, free submodules."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    planted_precompact_sample,
    prefix_supported_vector,
    random_element,
    random_shape,
    random_vector,
)
from cstarframes import (
    AlgebraShape,
    BallSampler,
    CertifyConfig,
    Frame,
    GramDefectError,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    build_setting,
    certify_equivalences,
    check_condition_a,
    check_condition_b,
    check_condition_cd,
    free_submodule_check,
    operator_precompact,
    orthogonal_span_family,
    series_decompose,
    standard_basis_frame,
    theta_op,
)

C2 = AlgebraShape((1, 1))


# -- condition A --------------------------------------------------------------


def test_a_exact_span_zero_residuals(rng):
    shape = random_shape(rng)
    gens = [random_vector(shape, 3, rng) for _ in range(2)]
    pts = tuple(
        gens[0] * random_element(shape, rng) + gens[1] * random_element(shape, rng)
        for _ in range(5)
    )
    cert = check_condition_a(SampleSet(pts), gens, eps=1e-6)
    assert cert.verdict
    assert max(cert.diagnostics["residuals"]) <= 1e-9
    assert cert.diagnostics["bd_bound_ok"]


def test_a_planted_noise_passes_with_finite_bound(rng):
    shape = random_shape(rng)
    eps = 0.4
    gens = [random_vector(shape, 3, rng) for _ in range(2)]
    pts = []
    for _ in range(6):
        inside = gens[0] * random_element(shape, rng, 0.5) + gens[1] * random_element(
            shape, rng, 0.5
        )
        noise = random_vector(shape, 3, rng, scale=0.01)
        pts.append(inside + noise)
    cert = check_condition_a(SampleSet(tuple(pts)), gens, eps)
    assert cert.verdict
    assert cert.coefficient_bound < math.inf


def test_a_counterexample_coefficients_explode():
    setting = build_setting(6, 6)
    cert = check_condition_a(
        SampleSet(setting.witnesses()), [setting.generator], eps=0.1
    )
    assert cert.verdict
    assert cert.coefficient_bound >= 0.999 * math.factorial(6)


def test_a_failure_when_generators_miss(rng):
    shape = random_shape(rng)
    gens = [ModuleVector.basis(shape, 3, 0)]
    x = ModuleVector.basis(shape, 3, 1)
    cert = check_condition_a(SampleSet((x,)), gens, eps=0.5)
    assert not cert.verdict
    assert not cert.budget_exhausted
    assert cert.exit_code == 1


# -- condition B --------------------------------------------------------------


def test_b_zero_sample_needs_no_terms(rng):
    shape = random_shape(rng)
    frame = standard_basis_frame(shape, 3)
    sample = SampleSet((ModuleVector.zero(shape, 3),))
    cert = check_condition_b(sample, frame, eps=0.5)
    assert cert.verdict
    assert cert.witness["N"] == 0


def test_b_counterexample_no_proper_prefix():
    setting = build_setting(5, 5)
    frame = standard_basis_frame(setting.shape, 5)
    cert = check_condition_b(SampleSet(setting.witnesses()), frame, eps=0.5)
    assert not cert.verdict
    assert cert.witness["N"] == 5
    profile = cert.diagnostics["tail_profile"]
    assert all(t == pytest.approx(1.0, abs=1e-12) for t in profile[:5])
    assert profile[5] <= 1e-12


def test_b_theta_image_prefix_independent_of_density(rng):
    shape = random_shape(rng)
    dim = 5
    x = prefix_supported_vector(shape, dim, 2, rng)
    y = random_vector(shape, dim, rng)
    frame = standard_basis_frame(shape, dim)
    results = []
    for count in (5, 25):
        pts = tuple(
            theta_op(x, y)(random_vector(shape, dim, rng, 0.5)) for _ in range(count)
        )
        cert = check_condition_b(SampleSet(pts), frame, eps=1e-6)
        assert cert.verdict
        results.append(cert.witness["N"])
    assert results[0] == results[1]
    assert results[0] <= 2


# -- condition C/D ------------------------------------------------------------


def test_cd_theta_image_rank_one(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    y = random_vector(shape, 3, rng)
    pts = tuple(theta_op(x, y)(random_vector(shape, 3, rng)) for _ in range(6))
    cert = check_condition_cd(SampleSet(pts), eps=1e-8)
    assert cert.verdict
    assert cert.witness["rank"] <= 1
    assert cert.diagnostics["best_error"] <= 1e-8


def test_cd_planted_projection_image(rng):
    shape = random_shape(rng)
    dim = 5
    n = 2
    pts = tuple(prefix_supported_vector(shape, dim, n, rng) for _ in range(8))
    cert = check_condition_cd(SampleSet(pts), eps=1e-8)
    assert cert.verdict
    assert cert.witness["rank"] <= n
    assert cert.approximant is not None


def test_cd_counterexample_budget_exhausted():
    setting = build_setting(6, 6)
    sample = SampleSet(setting.witnesses())
    cert = check_condition_cd(sample, eps=0.5, rank_budget=5)
    assert not cert.verdict
    assert cert.budget_exhausted
    assert cert.exit_code == 2
    assert cert.diagnostics["best_error"] == pytest.approx(1.0, abs=1e-12)


def test_cd_empty_sample_vacuous():
    cert = check_condition_cd(SampleSet(()), eps=0.5)
    assert cert.verdict
    assert cert.witness["rank"] == 0


def test_cd_reports_rank_zero_when_the_sample_is_already_within_eps():
    """The zero operator is a rank-0 approximant: the scan stops before any pair."""
    sample = SampleSet((ModuleVector.basis(C2, 2, 0) * 0.1,))
    cert = check_condition_cd(sample, eps=0.5)
    assert cert.verdict
    assert cert.witness == {"rank": 0}
    assert cert.diagnostics["error_profile"] == [0.1]
    assert cert.approximant == ()
    report = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5, 0.05)))
    assert [e.cert_cd.witness for e in report.entries] == [{"rank": 0}, {"rank": 1}]
    assert [e.cert_cd.diagnostics["error_profile"] for e in report.entries] == [[0.1], [0.1, 0.0]]


# -- equivalences -------------------------------------------------------------


def test_equivalences_on_planted_sample(rng):
    shape = random_shape(rng)
    sample = planted_precompact_sample(shape, 5, 2, 6, rng)
    report = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5, 0.25)))
    assert report.violations == ()
    for entry in report.entries:
        assert entry.cert_a.verdict
        assert entry.cert_a_scaled.verdict
        assert entry.cert_b.verdict
        assert entry.cert_cd.verdict
    assert report.exit_code == 0


def test_equivalences_parseval_ball_prefix(rng):
    shape = random_shape(rng)
    dim = 4
    pts = []
    for _ in range(10):
        x = prefix_supported_vector(shape, dim, 2, rng)
        pts.append(x / max(1.0, x.norm()))
    report = certify_equivalences(SampleSet(tuple(pts)), CertifyConfig(eps_grid=(0.3,)))
    assert report.violations == ()
    assert report.exit_code == 0


def test_equivalences_empty_sample_vacuous():
    report = certify_equivalences(SampleSet(()))
    assert report.exit_code == 0
    for entry in report.entries:
        assert entry.cert_a.verdict and entry.cert_b.verdict and entry.cert_cd.verdict
    assert report.violations == ()


def test_equivalences_counterexample_profile():
    setting = build_setting(6, 6)
    sample = SampleSet(setting.witnesses())
    config = CertifyConfig(
        eps_grid=(0.5,), generators=(setting.generator,), rank_budget=5
    )
    report = certify_equivalences(sample, config)
    entry = report.entries[0]
    assert entry.cert_a.verdict  # residual-only: passes with exploding bound
    assert entry.cert_a.coefficient_bound >= 0.999 * math.factorial(6)
    assert not entry.cert_b.verdict
    assert not entry.cert_cd.verdict
    assert entry.cert_cd.budget_exhausted
    assert report.violations == ()


# -- operators ----------------------------------------------------------------


def test_ball_sampler_deterministic_and_bounded(rng):
    shape = random_shape(rng)
    sampler = BallSampler(shape, 3, count=8, seed=4)
    pts1 = sampler.draw()
    pts2 = sampler.draw()
    assert len(pts1) == len(pts2)
    for p, q in zip(pts1, pts2):
        assert (p - q).norm() == 0.0
        assert p.norm() <= 1.0 + 1e-12
    # deterministic witnesses lead the draw
    assert (pts1[0] - ModuleVector.basis(shape, 3, 0)).norm() == 0.0


def test_operator_precompact_theta_rank_one(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    y = random_vector(shape, 3, rng)
    op = theta_op(x, y)
    sampler = BallSampler(shape, 3, count=6, seed=1)
    cert = operator_precompact(op, sampler, eps=1e-7)
    assert cert.verdict
    assert cert.witness["rank"] <= 1
    assert cert.diagnostics["coherence_violations"] == []


def test_operator_precompact_identity_needs_full_rank(rng):
    shape = random_shape(rng)
    dim = 3
    ident = ModuleOperator.identity(shape, dim)
    sampler = BallSampler(shape, dim, count=6, seed=2)
    cert = operator_precompact(ident, sampler, eps=1e-6)
    assert cert.verdict
    assert cert.witness["rank"] == dim
    short = operator_precompact(
        ident, sampler, eps=1e-6, config=CertifyConfig(rank_budget=dim - 1)
    )
    assert not short.verdict
    assert short.budget_exhausted


# -- series -------------------------------------------------------------------


def test_series_theta_single_term(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    y = random_vector(shape, 3, rng)
    op = theta_op(x, y)
    frame = Frame((x / x.norm(),), spanning="range")
    dec = series_decompose(op, frame=frame)
    assert dec.achieved_rank == 1
    assert dec.errors[1] <= 1e-9 * max(1.0, op.norm())


def test_series_identity_standard_frame_plateau(rng):
    shape = random_shape(rng)
    dim = 4
    op = ModuleOperator.identity(shape, dim)
    dec = series_decompose(op, frame=standard_basis_frame(shape, dim))
    assert list(dec.errors[:dim]) == pytest.approx([1.0] * dim, abs=1e-12)
    assert dec.errors[dim] <= 1e-12
    assert dec.floor <= 1e-12


def test_series_random_compact_monotone(rng):
    shape = random_shape(rng)
    dim = 4
    op = None
    for _ in range(3):
        t = theta_op(random_vector(shape, dim, rng), random_vector(shape, dim, rng))
        op = t if op is None else op + t
    dec = series_decompose(op)
    for earlier, later in zip(dec.errors, dec.errors[1:]):
        assert later <= earlier + 1e-9
    assert dec.floor <= 1e-9 * max(1.0, op.norm())


def test_series_reports_floor_when_frame_misses_range(rng):
    shape = random_shape(rng)
    x = ModuleVector.basis(shape, 3, 0)
    y = random_vector(shape, 3, rng)
    op = theta_op(x, y)
    off_range = Frame((ModuleVector.basis(shape, 3, 1),), spanning="range")
    dec = series_decompose(op, frame=off_range)
    assert dec.achieved_rank is None
    assert dec.floor == pytest.approx(op.norm(), rel=1e-9)


# -- free submodules ----------------------------------------------------------


def test_free_check_inside_span(rng):
    shape = random_shape(rng)
    gens = [ModuleVector.basis(shape, 4, j) for j in range(2)]
    pts = tuple(
        gens[0] * random_element(shape, rng) + gens[1] * random_element(shape, rng)
        for _ in range(4)
    )
    cert = free_submodule_check(SampleSet(pts), gens, eps=1e-6)
    assert cert.verdict
    assert max(cert.diagnostics["projection_residuals"]) <= 1e-9


def test_free_check_planted_offsets_within_two_eps(rng):
    shape = random_shape(rng)
    eps = 0.3
    gens = [ModuleVector.basis(shape, 4, j) for j in range(2)]
    pts = []
    for _ in range(6):
        inside = gens[0] * random_element(shape, rng, 0.4) + gens[1] * random_element(
            shape, rng, 0.4
        )
        offset = ModuleVector.basis(shape, 4, 3) * random_element(shape, rng, 0.05)
        pts.append(inside + offset)
    cert = free_submodule_check(SampleSet(tuple(pts)), gens, eps)
    assert cert.verdict
    assert cert.diagnostics["two_eps_ok"]
    assert all(r < 2 * eps for r in cert.diagnostics["projection_residuals"])


def test_free_check_rejects_repeated_generator(rng):
    shape = random_shape(rng)
    e1 = ModuleVector.basis(shape, 3, 0)
    with pytest.raises(GramDefectError) as err:
        free_submodule_check(SampleSet((e1,)), [e1, e1], eps=0.5)
    assert err.value.defect == pytest.approx(1.0, abs=1e-12)


def test_orthonormalized_generators_accepted(rng):
    shape = random_shape(rng)
    raw = [random_vector(shape, 3, rng) for _ in range(2)]
    gens = orthogonal_span_family(raw)
    # spectral normalization yields support projections, not unit inner
    # products, so full orthonormality only holds when the supports fill
    # the identity; use rotated basis vectors instead for exactness
    u = random_element(shape, rng)
    gram = u.adjoint() * u
    unitary_blocks = []
    for blk in gram.blocks:
        w, v = np.linalg.eigh(blk)
        unitary_blocks.append(v)
    from cstarframes import AlgebraElement

    u = AlgebraElement(shape, tuple(np.asarray(b, dtype=complex) for b in unitary_blocks))
    gens = [ModuleVector.basis(shape, 3, j) * u for j in range(2)]
    pts = tuple(gens[0] * random_element(shape, rng, 0.3) for _ in range(3))
    cert = free_submodule_check(SampleSet(pts), gens, eps=1e-6)
    assert cert.verdict


# -- eps policy ---------------------------------------------------------------

BAD_EPS = [math.nan, math.inf, -math.inf, 0.0, -0.5]


EPS_ENTRY_POINTS = (
    "check_condition_a", "check_condition_b", "check_condition_cd", "tails_certificate",
    "certify_equivalences", "operator_precompact", "free_submodule_check",
    "series_decompose", "epsilon_net", "net_transfer", "coeff_growth",
    "single_generator_approx",
)


def _eps_entry_points():
    """name -> call(eps) for every public function that takes an eps."""
    from cstarframes import (
        coeff_growth,
        epsilon_net,
        net_transfer,
        parse,
        single_generator_approx,
        tails_certificate,
    )

    fixtures = Path(__file__).parent / "fixtures"
    sample = parse("sample_set", (fixtures / "sample_planted.json").read_bytes())
    spec = parse("seminorm_spec", (fixtures / "seminorm_spec.json").read_bytes())
    shape, dim = sample.shape, sample.dim
    gens = [ModuleVector.basis(shape, dim, j) for j in range(dim)]
    frame = standard_basis_frame(shape, dim)
    setting = build_setting(4, 4)
    op = ModuleOperator.identity(shape, dim)
    return dict([
        ("check_condition_a", lambda e: check_condition_a(sample, gens, e)),
        ("check_condition_b", lambda e: check_condition_b(sample, frame, e)),
        ("check_condition_cd", lambda e: check_condition_cd(sample, e)),
        ("tails_certificate", lambda e: tails_certificate(np.zeros((1, 3)), e)),
        ("certify_equivalences",
         lambda e: certify_equivalences(sample, CertifyConfig(eps_grid=(e,)))),
        ("operator_precompact",
         lambda e: operator_precompact(op, BallSampler(shape, dim, count=2), e)),
        ("free_submodule_check", lambda e: free_submodule_check(sample, gens, e)),
        ("series_decompose", lambda e: series_decompose(op, eps=e)),
        ("epsilon_net", lambda e: epsilon_net(sample, spec, e)),
        ("net_transfer", lambda e: net_transfer(sample, sample, spec, e)),
        ("coeff_growth", lambda e: coeff_growth(setting, e)),
        ("single_generator_approx",
         lambda e: single_generator_approx(setting, setting.witness(1), e)),
    ])


def test_entry_point_list_is_complete():
    assert tuple(_eps_entry_points()) == EPS_ENTRY_POINTS


@pytest.mark.parametrize("eps", BAD_EPS)
@pytest.mark.parametrize("name", EPS_ENTRY_POINTS)
def test_every_eps_entry_point_rejects_non_finite_or_non_positive(name, eps):
    call = _eps_entry_points()[name]
    with pytest.raises(ValueError, match="eps must be a finite positive number"):
        call(eps)


def test_eps_grid_is_checked_before_any_work(monkeypatch):
    import cstarframes.certify as certify

    def no_work(*args, **kwargs):
        raise AssertionError("condition work started before the eps grid was checked")

    for name in ("span_least_squares", "orthogonal_span_family", "standard_basis_frame"):
        monkeypatch.setattr(certify, name, no_work)
    shape = AlgebraShape((1, 2))
    sample = SampleSet((ModuleVector.basis(shape, 2, 0),))
    for grid in ((0.5, math.nan), (math.inf, 0.5), (0.5, 0.25, -1.0)):
        with pytest.raises(ValueError, match="finite positive"):
            certify_equivalences(sample, CertifyConfig(eps_grid=grid))
