"""Precompactness conditions, coherence, operators, free submodules."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BallSampler,
    compose,
    planted_precompact_sample,
    prefix_supported_vector,
    random_element,
    random_frame,
    random_shape,
    random_vector,
)
from cstarframes import (
    AlgebraShape,
    CertifyConfig,
    Frame,
    GramDefectError,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    build_setting,
    certify,
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


@pytest.mark.parametrize("gens_scale, point_scale", [(2.0**-1040, 2.0**-1040), (2.0**-1022, 2.0**60)])
def test_a_refuses_coefficients_past_the_float_range(gens_scale, point_scale):
    """Generators whose synthesis map inverts past 2^1024, or points they reach only so, are refused."""
    shape = AlgebraShape((1, 2))
    gens = [ModuleVector.basis(shape, 2, 0) * gens_scale, ModuleVector.basis(shape, 2, 1) * gens_scale]
    sample = SampleSet((ModuleVector.basis(shape, 2, 1) * point_scale,))
    with pytest.raises(ValueError, match="^least squares against the generators passes the float range"):
        check_condition_a(sample, gens, 0.5)


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


def test_negative_rank_budget_is_refused():
    """Both C/D routes refuse a budget below 0; a budget of 0 stays valid."""
    sample = SampleSet(build_setting(6, 6).witnesses())
    with pytest.raises(ValueError, match="rank budget"):
        check_condition_cd(sample, eps=0.5, rank_budget=-1)
    with pytest.raises(ValueError, match="rank budget"):
        certify_equivalences(sample, CertifyConfig(eps_grid=(0.5,), rank_budget=-1))
    cert = check_condition_cd(sample, eps=0.5, rank_budget=0)
    assert cert.budget_exhausted and cert.witness == {"rank_budget": 0}
    report = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5,), rank_budget=0))
    assert report.entries[0].cert_cd.witness == {"rank_budget": 0}


@pytest.mark.parametrize("rank_budget", [0, 1, None])
def test_a_frame_from_another_module_is_refused_at_every_budget(rank_budget):
    sample = SampleSet((ModuleVector.basis(AlgebraShape((1, 1)), 2, 0),))
    other = standard_basis_frame(AlgebraShape((2,)), 3)
    with pytest.raises(ValueError, match="different modules"):
        check_condition_cd(sample, eps=0.5, rank_budget=rank_budget, frame=other)


def test_negative_rank_budget_is_refused_for_an_empty_sample():
    """The budget is checked before the vacuous answer, with or without a frame."""
    empty = SampleSet(())
    with pytest.raises(ValueError, match="rank budget must be at least 0, got -1"):
        check_condition_cd(empty, eps=0.5, rank_budget=-1)
    for frame in (None, standard_basis_frame(C2, 2)):
        with pytest.raises(ValueError, match="rank budget must be at least 0, got -1"):
            certify_equivalences(empty, CertifyConfig(eps_grid=(0.5,), frame=frame, rank_budget=-1))
    assert check_condition_cd(empty, eps=0.5, rank_budget=0).witness == {"rank": 0}


def test_condition_a_and_the_runner_with_a_frame_pass_an_empty_sample():
    """No point to approximate: A passes with empty diagnostics, and so does the whole run."""
    gens = [ModuleVector.basis(C2, 2, 0), ModuleVector.basis(C2, 2, 1) * 0.5]
    cert = check_condition_a(SampleSet(()), gens, eps=0.5)
    assert cert.verdict and cert.coefficient_bound == 0.0
    assert cert.diagnostics["residuals"] == [] and cert.diagnostics["coefficient_norms"] == []
    frame = Frame(gens)
    report = certify_equivalences(SampleSet(()), CertifyConfig(eps_grid=(1.0, 0.25), frame=frame))
    assert report.exit_code == 0 and report.violations == ()
    for entry in report.entries:
        assert entry.cert_a.verdict and entry.cert_b.verdict and entry.cert_cd.verdict
        assert entry.cert_b.diagnostics["tail_profile"] == [0.0, 0.0, 0.0]


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


def test_cd_scan_stops_at_the_first_rank_below_eps(monkeypatch):
    """The scan takes one rank step per pair only up to the rank it certifies.

    A decaying sample over (1, 2), dim 16, 16 points, coordinate k
    scaled by 2^-k, passes at a rank well below its 16-pair limit.  Each
    rank step makes one `spectral_norms` call per size class, so the
    calls count the steps: a scan of every rank makes 32.  Reading the
    profile off the d=>a replay's fold over every rank would lose this
    stop: on the same kind of sample at dim 40 with 64 points,
    `check_condition_cd` at eps 0.125 took 10-12 ms against 48-54 ms.
    """
    shape, dim, count = AlgebraShape((1, 2)), 16, 16
    rng = np.random.default_rng(7)
    decay = 2.0 ** -np.arange(dim)
    stacks = []
    for n, ks in shape.classes:
        size = (len(ks), count, dim, n, n)
        coords = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * decay[:, None, None]
        stacks.append(coords.reshape(len(ks), count, dim * n, n))
    sample = SampleSet._packed(shape, dim, stacks)
    calls = []
    counted = certify.spectral_norms

    def counting(a):
        calls.append(a.shape)
        return counted(a)

    monkeypatch.setattr(certify, "spectral_norms", counting)
    cert = check_condition_cd(sample, eps=0.125)
    limit = len(certify._theta_pairs(sample, None, None)[0])
    rank = cert.witness["rank"]
    assert cert.verdict and limit == 16
    assert rank + 1 < limit
    assert len(calls) <= len(shape.classes) * (rank + 1)


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


# -- the implication table ------------------------------------------------------


def _row(premise, conclusion):
    """The check of the table row premise => conclusion; a KeyError once the row leaves the table."""
    return {(p, c): check for p, c, check in certify.IMPLICATIONS}[premise, conclusion]


def _pass_data(**fields):
    """Planted eps-free pass data: a frame with bounds (1, 1), one generator, no replay."""
    planted = {"bounds": (1.0, 1.0), "generator_count": 1, "gen_tails": [0.0, 0.0],
               "tails": [0.0, 0.0], "replay": None}
    return certify._PassData(**{**planted, **fields})


def test_the_implication_table_has_exactly_the_checked_edges():
    """A => B, C/D => A and the B*D bound on A; no edge leaves B, so the cycle is not yet closed."""
    edges = [(p, c) for p, c, _ in certify.IMPLICATIONS]
    assert len(edges) == len(set(edges))
    assert set(edges) == {("A", "B"), ("CD", "A"), ("A", "A")}
    assert not any(p == "B" for p, _ in edges)


def test_the_a_implies_b_row_flags_a_tail_above_the_estimate_and_a_late_b():
    """Generator tails reach eps/(3sM) = 0.1 from prefix 1, but the sample's tail there is 5."""
    data = _pass_data(gen_tails=[1.0, 0.0, 0.0], tails=[5.0, 5.0, 0.0])
    a_scaled = certify.Certificate("A", 0.1, True, coefficient_bound=1.0)
    b = certify.Certificate("B", 0.3, False, witness={"N": 2})
    assert _row("A", "B")(data, None, a_scaled, b, None) == [
        "a=>b chain broken at prefix 1: tail 5 exceeds the three-term estimate 0.2",
        "a at eps*c1/(3c2) holds and generator tails reach 0.1 from prefix 1, yet condition b reports N=2",
    ]
    failed = certify.Certificate("A", 0.1, False, coefficient_bound=1.0)
    assert _row("A", "B")(data, None, failed, b, None) == []


def test_the_d_implies_a_row_flags_the_coefficient_bound_and_the_residual():
    """R = max||f_k|| = 1: point 0 has a coefficient of norm 5, point 1 a residual of 0.9 at rank 1."""
    replay = certify._ReplayData(
        point_norms=[1.0, 1.0],
        pair_norms=[1.0],
        coefficient_norms=[[5.0], [1.0]],
        residual_norms=[[1.0, 0.0], [1.0, 0.9]],
    )
    e0 = ModuleVector.basis(C2, 1, 0)
    cd = certify.Certificate("CD", 0.5, True, witness={"rank": 1}, approximant=((e0, e0),))
    assert _row("CD", "A")(_pass_data(replay=replay), None, None, None, cd) == [
        "d=>a bound broken at point 0: coefficient norm exceeds R*max||f_k|| = 1",
        "d=>a residual broken at point 1: direct coefficient replay misses the eps bound",
    ]
    missed = certify.Certificate("CD", 0.5, False, budget_exhausted=True, witness={"rank_budget": 1})
    assert _row("CD", "A")(_pass_data(replay=replay), None, None, None, missed) == []


def test_the_bd_row_flags_a_passing_a_beyond_its_bound():
    a = certify.Certificate("A", 0.5, True, diagnostics={"bd_bound_ok": False})
    assert _row("A", "A")(_pass_data(), a, a, None, None) == [
        "finite-dimensional coefficient bound B*D violated by the minimal-norm solution"
    ]
    failed = certify.Certificate("A", 0.5, False, diagnostics={"bd_bound_ok": False})
    assert _row("A", "A")(_pass_data(), failed, a, None, None) == []


def test_the_runner_takes_every_violation_from_the_table_in_row_order(monkeypatch, rng):
    seen = []

    def record(data, *certs):
        seen.append(certs)
        return [f"first at {certs[0].eps}"]

    rows = (("A", "B", record), ("CD", "A", lambda data, *certs: ["second", "third"]))
    monkeypatch.setattr(certify, "IMPLICATIONS", rows)
    sample = planted_precompact_sample(random_shape(rng), 5, 2, 6, rng)
    report = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5, 0.25)))
    assert [e.violations for e in report.entries] == [
        ("first at 0.5", "second", "third"), ("first at 0.25", "second", "third")
    ]
    assert seen == [(e.cert_a, e.cert_a_scaled, e.cert_b, e.cert_cd) for e in report.entries]


# -- operators ----------------------------------------------------------------


def random_operator(shape, target_dim, source_dim, rng):
    return ModuleOperator(
        shape,
        tuple(tuple(random_element(shape, rng) for _ in range(source_dim)) for _ in range(target_dim)),
    )


def reproduction_operator():
    """T = theta(x0,x1) + 0.5 theta(x2,x3) over (1,2,2), dim 3, scaled to norm 1.

    Each x_i is a real-Gaussian combination of the basis vectors, one
    standard_normal(3) of default_rng(1) per vector.  A sampler's draw
    sees a rank-0 error of 0.894 at most; the exact one is 1.
    """
    shape, dim = AlgebraShape((1, 2, 2)), 3
    gen = np.random.default_rng(1)
    basis = [ModuleVector.basis(shape, dim, j) for j in range(dim)]
    xs = []
    for _ in range(4):
        c = gen.standard_normal(dim)
        x = basis[0] * float(c[0])
        for j in range(1, dim):
            x = x + basis[j] * float(c[j])
        xs.append(x)
    op = theta_op(xs[0], xs[1]) + theta_op(xs[2], xs[3]) * 0.5
    return op * (1.0 / op.norm())


def approximant_error(op, pairs):
    """||T - sum_j theta_{u_j,u_j} T|| from module-operator arithmetic: theta_{u,u} T = theta_{u, T* u}."""
    adjoint = op.adjoint()
    out = op
    for u, v in pairs:
        out = out - theta_op(u, adjoint(v))
    return out.norm()


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
    cert = operator_precompact(op, eps=1e-7)
    assert cert.verdict
    assert cert.witness["rank"] <= 1
    assert cert.diagnostics["coherence_violations"] == []


def test_operator_precompact_identity_needs_full_rank(rng):
    shape = random_shape(rng)
    dim = 3
    ident = ModuleOperator.identity(shape, dim)
    cert = operator_precompact(ident, eps=1e-6)
    assert cert.verdict
    assert cert.witness["rank"] == dim
    short = operator_precompact(ident, eps=1e-6, rank_budget=dim - 1)
    assert not short.verdict
    assert not short.budget_exhausted
    assert short.exit_code == 1
    assert short.witness == {"rank_budget": dim - 1}
    assert short.diagnostics["error_profile"] == [1.0] * dim
    assert short.diagnostics["coherence_violations"] == []


@pytest.mark.parametrize("eps", [0.95, 0.155])
def test_the_sampled_reproduction_passes_at_rank_one(eps):
    op = reproduction_operator()
    cert = operator_precompact(op, eps)
    assert (cert.verdict, cert.witness) == (True, {"rank": 1})
    assert cert.diagnostics["coherence_violations"] == []
    assert cert.diagnostics["error_profile"] == pytest.approx([1.0, 0.150646], abs=1e-6)
    assert len(cert.approximant) == 1
    profile = operator_precompact(op, 1e-15).diagnostics["error_profile"]
    assert profile == pytest.approx([1.0, 0.150646, 6.1e-17], abs=1e-6)
    assert profile[2] < 1e-15


def test_the_sampled_reproduction_misses_the_rank_zero_sup():
    """The draw stays below 0.95 at rank 0, but the ball does not."""
    op = reproduction_operator()
    draw = BallSampler(op.shape, op.source_dim, count=64, seed=3).draw()
    assert max(op(x).norm() for x in draw) < 0.95
    assert operator_precompact(op, 0.95).witness == {"rank": 1}


@st.composite
def operator_cases(draw):
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3))
    target, source = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    terms = draw(st.sampled_from([None, 1, 2]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = AlgebraShape(tuple(dims))
    if terms is None:
        return random_operator(shape, target, source, gen)
    op = None
    for _ in range(terms):
        t = theta_op(random_vector(shape, target, gen), random_vector(shape, source, gen))
        op = t if op is None else op + t
    return op


@settings(max_examples=60, deadline=None)
@given(op=operator_cases())
def test_the_exact_profile_is_the_dense_block_svd(op):
    """errors[n] = max_k sigma_{n*n_k+1}(R_k T) from each block's own SVD, and the approximant meets it."""
    shape, dim = op.shape, op.target_dim
    reference = []
    for n in range(dim + 1):
        sigmas = []
        for k, size in enumerate(shape.block_dims):
            values = np.linalg.svd(op.realize_block(k), compute_uv=False)
            sigmas.append(values[n * size] if n * size < len(values) else 0.0)
        reference.append(max(sigmas))
    for n in range(dim + 1):
        eps = reference[n] * (1 + 1e-6) + 1e-12
        cert = operator_precompact(op, eps)
        assert cert.diagnostics["coherence_violations"] == []
        assert cert.verdict and cert.witness["rank"] <= n
        profile = cert.diagnostics["error_profile"]
        assert profile == pytest.approx(reference[: len(profile)], rel=1e-9, abs=1e-12)
        rank = cert.witness["rank"]
        assert approximant_error(op, cert.approximant) == pytest.approx(profile[rank], rel=1e-9, abs=1e-12)


def block_unitary(shape, dim, rng):
    """A unitary module operator on A^dim: each realized block is the Q of a complex Gaussian's QR."""
    stacks = []
    for n, ks in shape.classes:
        size = (len(ks), dim * n, dim * n)
        stacks.append(np.linalg.qr(rng.standard_normal(size) + 1j * rng.standard_normal(size))[0])
    return ModuleOperator._packed(shape, dim, dim, stacks)


@pytest.mark.parametrize("seed", range(6))
def test_the_exact_profile_is_invariant_under_block_unitaries(seed):
    gen = np.random.default_rng(seed)
    shape = random_shape(gen)
    target, source = int(gen.integers(1, 4)), int(gen.integers(1, 4))
    op = random_operator(shape, target, source, gen)
    u, v = block_unitary(shape, target, gen), block_unitary(shape, source, gen)
    moved = compose(compose(u, op), v.adjoint())
    for eps in (1e-12, 0.5 * op.norm()):
        a, b = operator_precompact(op, eps), operator_precompact(moved, eps)
        assert a.witness == b.witness
        assert b.diagnostics["error_profile"] == pytest.approx(a.diagnostics["error_profile"], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_a_ball_draw_never_beats_the_exact_error(seed):
    """One-sided oracle: at every rank, ||Tx - F Tx|| <= error(rank) + tol for each drawn x."""
    gen = np.random.default_rng(seed)
    shape = random_shape(gen)
    op = random_operator(shape, int(gen.integers(1, 4)), int(gen.integers(1, 4)), gen)
    draw = BallSampler(shape, op.source_dim, count=24, seed=seed).draw()
    full = operator_precompact(op, 5e-324)
    errors, pairs = full.diagnostics["error_profile"], full.approximant
    for rank, error in enumerate(errors):
        adjoint, f = op.adjoint(), None
        for u, w in pairs[:rank]:
            t = theta_op(u, adjoint(w))
            f = t if f is None else f + t
        rest = op if f is None else op - f
        sampled = max(rest(x).norm() for x in draw)
        assert sampled <= error + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_cd_never_exceeds_b_on_random_shapes(seed):
    """P_n T along any frame is a sum of n thetas, so the exact C/D error is at most B's tail."""
    gen = np.random.default_rng(seed)
    shape = random_shape(gen)
    dim = int(gen.integers(1, 4))
    op = random_operator(shape, dim, int(gen.integers(1, 4)), gen)
    errors = operator_precompact(op, 5e-324).diagnostics["error_profile"]
    for frame in (standard_basis_frame(shape, dim), random_frame(shape, dim, dim + 2, gen)):
        tails = series_decompose(op, frame).errors
        assert all(e <= t + 1e-9 for e, t in zip(errors, tails))
    assert operator_precompact(op, 0.5).diagnostics["coherence_violations"] == []


def test_a_wrong_approximant_fires_the_replay(monkeypatch):
    real = certify._singular_profile

    def reversed_groups(op, budget):
        errors, u = real(op, budget)
        return errors, SampleSet._packed(u.shape, u.dim, (s[:, ::-1] for s in u.realizations))

    monkeypatch.setattr(certify, "_singular_profile", reversed_groups)
    op = ModuleOperator.identity(AlgebraShape((1, 2)), 3) + theta_op(
        ModuleVector.basis(AlgebraShape((1, 2)), 3, 0), ModuleVector.basis(AlgebraShape((1, 2)), 3, 0)
    )
    cert = operator_precompact(op, 1.5)
    assert cert.witness == {"rank": 1}
    (violation,) = cert.diagnostics["coherence_violations"]
    assert violation.startswith("rank 1 approximant replays to error 2, not the profile's 1")


def test_a_b_tail_below_the_exact_error_fires_the_cd_b_check(monkeypatch):
    real = certify.series_decompose

    def halved(op, frame=None, eps=certify.SERIES_EPS):
        out = real(op, frame, eps)
        return dataclasses.replace(out, errors=tuple(0.5 * e for e in out.errors))

    monkeypatch.setattr(certify, "series_decompose", halved)
    op = ModuleOperator.identity(C2, 2)
    cert = operator_precompact(op, 0.5)
    assert cert.diagnostics["coherence_violations"] == [
        "c/d error 1 at rank 0 exceeds the b tail 0.5",
        "c/d error 1 at rank 1 exceeds the b tail 0.5",
    ]


def test_a_miss_at_the_budget_is_certified():
    op = ModuleOperator.identity(C2, 2)
    cert = operator_precompact(op, 0.5, rank_budget=1)
    assert (cert.verdict, cert.budget_exhausted, cert.exit_code) == (False, False, 1)
    assert cert.to_json_dict()["budget_exhausted"] is False
    assert operator_precompact(op, 0.5, rank_budget=9).witness == {"rank": 2}
    with pytest.raises(ValueError, match="rank budget must be at least 0, got -1"):
        operator_precompact(op, 0.5, rank_budget=-1)


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


# -- the one decision rule at eps ----------------------------------------------


@pytest.mark.parametrize(
    "profiles, eps, n",
    [
        ([[math.nan, 0.0]], 0.5, 1),
        ([[1.0, math.nan, 0.0]], 0.5, 2),
        ([[0.5, 0.0]], 0.5, 1),
        ([[0.5, 0.0]], math.nextafter(0.5, 1.0), 0),
    ],
)
def test_a_tail_settles_only_strictly_below_eps(profiles, eps, n):
    """A tail equal to eps is not below it, and a NaN tail is below nothing: B settles only after both."""
    cert = certify.tails_certificate(np.array(profiles), eps)
    assert cert.verdict == (n < len(profiles[0]) - 1)
    assert cert.witness == {"N": n}


def test_a_residual_equal_to_eps_fails_condition_a():
    point = ModuleVector.basis(C2, 2, 0) * 0.5 + ModuleVector.basis(C2, 2, 1) * 0.375
    gens = (ModuleVector.basis(C2, 2, 0),)
    (r,) = check_condition_a(SampleSet((point,)), gens, 1.0).diagnostics["residuals"]
    assert r > 0.0
    assert not check_condition_a(SampleSet((point,)), gens, r).verdict
    assert check_condition_a(SampleSet((point,)), gens, math.nextafter(r, math.inf)).verdict


def test_a_cd_error_equal_to_eps_does_not_pass():
    sample = SampleSet((ModuleVector.basis(C2, 2, 0) * 0.5,))
    assert check_condition_cd(sample, 0.5, rank_budget=0).budget_exhausted
    assert check_condition_cd(sample, math.nextafter(0.5, 1.0), rank_budget=0).witness == {"rank": 0}


def test_a_series_error_equal_to_eps_is_not_achieved():
    op = theta_op(ModuleVector.basis(C2, 2, 0), ModuleVector.basis(C2, 2, 0) * 0.5)
    frame = standard_basis_frame(C2, 2)
    errors = series_decompose(op, frame).errors
    assert errors[:2] == (0.5, 0.0)
    assert series_decompose(op, frame, eps=0.5).achieved_rank == 1
    assert series_decompose(op, frame, eps=math.nextafter(0.5, 1.0)).achieved_rank == 0


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


def test_free_check_refuses_generators_whose_gram_overflows():
    """<v,v> of a norm-1e160 generator is inf, so its defect is NaN: refused, without a warning.

    A maximum that skipped NaN defects would let {e_0, 1e160 e_1} pass
    the gram check, since <e_0, e_1> = 0.
    """
    shape = AlgebraShape((1, 2))
    e0 = ModuleVector.basis(shape, 2, 0)
    huge = ModuleVector.basis(shape, 2, 1) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GramDefectError, match="gram defect nan"):
            free_submodule_check(SampleSet((e0,)), [e0, huge], eps=0.5)


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
)


def _eps_entry_points():
    """name -> call(eps) for every public function that takes an eps."""
    from cstarframes import (
        coeff_growth,
        epsilon_net,
        net_transfer,
        parse,
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
         lambda e: operator_precompact(op, e)),
        ("free_submodule_check", lambda e: free_submodule_check(sample, gens, e)),
        ("series_decompose", lambda e: series_decompose(op, eps=e)),
        ("epsilon_net", lambda e: epsilon_net(sample, spec, e)),
        ("net_transfer", lambda e: net_transfer(sample, sample, spec, e)),
        ("coeff_growth", lambda e: coeff_growth(setting, e)),
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
