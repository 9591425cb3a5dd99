"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Corpus sizes, tolerances, and runtime budgets are pinned; the suites
below intentionally re-derive expected values instead of trusting the
library (factorials by running product, projections by explicit
Gram-Schmidt, covers by exhaustive pairwise evaluation).
"""

import functools
import math
import time

import numpy as np
import pytest

from conftest import (
    planted_precompact_sample,
    prefix_supported_vector,
    random_element,
    random_frame,
    random_shape,
    random_state,
    random_unit_vector,
    random_vector,
)
from cstarframes import (
    AdmissibleSystem,
    AlgebraElement,
    AlgebraShape,
    CertifyConfig,
    GramDefectError,
    ModuleVector,
    SampleSet,
    SeminormSpec,
    adversarial_witness,
    admissible_check,
    build_setting,
    certify_equivalences,
    check_condition_b,
    coeff_growth,
    free_submodule_check,
    inner_product,
    net_covers,
    net_transfer,
    operator_precompact,
    orthogonal_span_family,
    pseudometric_eval,
    seminorm_eval,
    serialize,
    series_decompose,
    standard_basis_frame,
    tail_obstruction,
    theta_op,
)
from cstarframes.cli import main as cli_main


@functools.cache
def _frame_corpus():
    """201 frames: one exactly tight, 200 random (shared by criteria 1-2)."""
    rng = np.random.default_rng(514229)
    corpus = [standard_basis_frame(AlgebraShape((1, 2)), 2)]
    while len(corpus) < 201:
        shape = random_shape(rng)
        dim = int(rng.integers(2, 7))
        size = int(rng.integers(dim, 11))
        corpus.append(random_frame(shape, dim, size, rng))
    return tuple(corpus)


def _random_spec(shape, dim, rng):
    """Admissible system from a scaled orthogonal family, one state each."""
    draws = [random_vector(shape, dim, rng) for _ in range(int(rng.integers(1, dim + 1)))]
    family = orthogonal_span_family(draws)
    xs = tuple(w * float(rng.uniform(0.3, 1.0)) for w in family)
    states = tuple(random_state(shape, rng) for _ in xs)
    return SeminormSpec(AdmissibleSystem(xs), states)


def test_criterion_01_frame_bounds_and_dual_reconstruction():
    start = time.perf_counter()
    corpus = _frame_corpus()
    assert len(corpus) >= 200
    rng = np.random.default_rng(832040)
    for frame in corpus:
        c1, c2 = frame.bounds
        assert 0.0 < c1 <= c2
        for _ in range(2):
            x = random_unit_vector(frame.shape, frame.dim, rng)
            gram_sum = AlgebraElement.zero(frame.shape)
            for v in frame.vectors:
                ip = inner_product(x, v)
                gram_sum = gram_sum + ip * ip.adjoint()
            xx = inner_product(x, x)
            assert (gram_sum - xx * c1).min_eigenvalue() >= -1e-8
            assert (xx * c2 - gram_sum).min_eigenvalue() >= -1e-8
            assert (frame.reconstruct(x) - x).norm() <= 1e-9
    assert time.perf_counter() - start <= 30.0


def test_criterion_02_partial_sum_norm_bound():
    corpus = _frame_corpus()
    rng = np.random.default_rng(1346269)
    best_ratio = 0.0
    for frame in corpus:
        c1, c2 = frame.bounds
        cap = c2 / c1
        for _ in range(5):
            k = int(rng.integers(1, frame.size + 1))
            subset = sorted(int(j) for j in rng.choice(frame.size, size=k, replace=False))
            norm = frame.partial_sum_op(subset).norm()
            assert norm <= cap + 1e-8
            best_ratio = max(best_ratio, norm / cap)
    assert best_ratio >= 0.5


def test_criterion_03_seminorm_dominance_and_axioms():
    rng = np.random.default_rng(317811)
    specs = []
    dominance_draws = 0
    for _ in range(100):
        shape = random_shape(rng)
        dim = int(rng.integers(2, 5))
        spec = _random_spec(shape, dim, rng)
        specs.append((spec, shape, dim))
        for _ in range(10):
            x = random_vector(shape, dim, rng)
            assert seminorm_eval(spec, x) <= x.norm() + 1e-12
            dominance_draws += 1
    assert dominance_draws >= 1000
    for spec, shape, dim in specs:
        x = random_vector(shape, dim, rng)
        y = random_vector(shape, dim, rng)
        nx = seminorm_eval(spec, x)
        assert seminorm_eval(spec, x + y) <= nx + seminorm_eval(spec, y) + 1e-9
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert seminorm_eval(spec, x * lam) == pytest.approx(abs(lam) * nx, abs=1e-9)
        assert seminorm_eval(spec, ModuleVector.zero(shape, dim)) == 0.0


def test_criterion_04_six_eps_net_transfer():
    rng = np.random.default_rng(2178309)
    pairs = 0
    while pairs < 50:
        shape = random_shape(rng)
        dim = int(rng.integers(2, 5))
        eps = float(rng.uniform(0.05, 0.3))
        base = tuple(
            random_unit_vector(shape, dim, rng) * float(rng.uniform(0.2, 1.0))
            for _ in range(int(rng.integers(3, 7)))
        )
        approx_pts = []
        for s in base:
            noise = random_vector(shape, dim, rng)
            approx_pts.append(s + noise * (0.5 * eps / max(noise.norm(), 1e-12)))
        sample = SampleSet(base)
        approx = SampleSet(tuple(approx_pts))
        for _ in range(2):
            spec = _random_spec(shape, dim, rng)
            chosen = net_transfer(sample, approx, spec, eps)
            assert net_covers(sample, spec, chosen, 6.0 * eps)
            for s in sample.points:
                nearest = min(pseudometric_eval(spec, s, sample.points[j]) for j in chosen)
                assert nearest <= 6.0 * eps + 1e-12
        pairs += 1
    assert pairs >= 50


def test_criterion_05_equivalence_coherence():
    rng = np.random.default_rng(75025)
    for _ in range(20):
        shape = random_shape(rng)
        dim = int(rng.integers(3, 6))
        prefix = int(rng.integers(1, dim))
        sample = planted_precompact_sample(shape, dim, prefix, int(rng.integers(3, 7)), rng)
        eps = float(rng.uniform(0.3, 0.8))
        report = certify_equivalences(sample, CertifyConfig(eps_grid=(eps,)))
        assert not report.violations
        entry = report.entries[0]
        assert entry.cert_a.verdict and entry.cert_a_scaled.verdict
        assert entry.cert_b.verdict and entry.cert_cd.verdict
        assert report.exit_code == 0

    growth = {}
    cases = [(n, eps) for n in range(4, 9) for eps in (0.2, 0.35, 0.5, 0.65)]
    assert len(cases) >= 20
    for n, eps in cases:
        setting = build_setting(n, n)
        sample = SampleSet(setting.witnesses(), label="witnesses")
        config = CertifyConfig(
            eps_grid=(eps,),
            generators=(setting.generator,),
            rank_budget=n - 1,
        )
        report = certify_equivalences(sample, config)
        assert not report.violations
        entry = report.entries[0]
        assert not entry.cert_b.verdict
        assert not entry.cert_cd.verdict and entry.cert_cd.budget_exhausted
        assert entry.cert_a.verdict
        assert entry.cert_a.coefficient_bound >= 0.999 * math.factorial(n)
        growth[n] = entry.cert_a.coefficient_bound
    bounds_by_trunc = [growth[n] for n in sorted(growth)]
    assert all(a < b for a, b in zip(bounds_by_trunc, bounds_by_trunc[1:]))


def test_criterion_06_counterexample_reproduction():
    start = time.perf_counter()
    for trunc in (4, 8, 16):
        setting = build_setting(trunc, trunc)
        for n in range(trunc):
            assert tail_obstruction(setting, n) == pytest.approx(1.0, abs=1e-12)
        factorial = 1.0
        for k, required in coeff_growth(setting, 0.1):
            factorial *= k
            assert required >= 0.9 * factorial - 1e-9 * factorial
    assert time.perf_counter() - start <= 5.0


def test_criterion_07_series_decomposition():
    rng = np.random.default_rng(46368)
    for i in range(50):
        shape = random_shape(rng)
        dim = int(rng.integers(2, 5))
        op = None
        for _ in range(int(rng.integers(1, dim + 1))):
            t = theta_op(random_vector(shape, dim, rng), random_vector(shape, dim, rng))
            op = t if op is None else op + t
        decomposition = series_decompose(op)
        errors = decomposition.errors
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-9
        assert decomposition.achieved_rank is not None
        if i % 10 == 0:
            from cstarframes import Frame

            cols = [op(ModuleVector.basis(shape, dim, j)) for j in range(dim)]
            family = orthogonal_span_family(cols)
            explicit = series_decompose(op, frame=Frame(tuple(family), spanning="range"))
            assert explicit.errors[-1] <= 1e-9


def test_criterion_08_adversarial_witness_separation():
    setting = build_setting(8, 8)
    sample = SampleSet(setting.witnesses(), label="witnesses")
    delta = 1.0
    report = adversarial_witness(sample, (2, 4, 6, 8), delta)
    assert len(report.witness_indices) == 3
    assert bool(admissible_check(report.spec.system.vectors))
    rng = np.random.default_rng(28657)
    small_tail = [
        prefix_supported_vector(setting.shape, 8, 2, rng, scale=0.3) for _ in range(25)
    ]
    small_tail.append(ModuleVector.zero(setting.shape, 8))
    for i in report.witness_indices:
        t = sample.points[i]
        for y in small_tail:
            assert pseudometric_eval(report.spec, t, y) >= delta / 4.0 - 1e-6


def test_criterion_09_free_submodule_two_eps():
    rng = np.random.default_rng(39088169)
    ident = None
    done = 0
    while done < 20:
        shape = random_shape(rng)
        dim = int(rng.integers(3, 6))
        want = int(rng.integers(1, 3))
        family = orthogonal_span_family([random_vector(shape, dim, rng) for _ in range(want)])
        ident = AlgebraElement.identity(shape)
        if len(family) < want or any(
            (inner_product(w, w) - ident).norm() > 1e-10 for w in family
        ):
            continue
        gens = tuple(family)
        projector = None
        for g in gens:
            t = theta_op(g, g)
            projector = t if projector is None else projector + t
        eps = float(rng.uniform(0.1, 0.4))
        pts = []
        for _ in range(4):
            span_part = ModuleVector.zero(shape, dim)
            for g in gens:
                span_part = span_part + g * random_element(shape, rng, 0.4)
            raw = random_vector(shape, dim, rng)
            off_span = raw - projector(raw)
            if off_span.norm() < 1e-9:
                continue
            eps_prime = float(rng.uniform(0.2, 0.9)) * eps
            pts.append(span_part + off_span * (eps_prime / off_span.norm()))
        if len(pts) < 3:
            continue
        cert = free_submodule_check(SampleSet(tuple(pts)), gens, eps)
        assert cert.verdict
        assert all(r < 2.0 * eps for r in cert.diagnostics["projection_residuals"])
        assert cert.diagnostics["two_eps_ok"]
        done += 1
    assert done >= 20


def test_criterion_10_deterministic_certificates(tmp_path):
    shape = AlgebraShape((1, 1, 1))
    sample = planted_precompact_sample(shape, 4, 2, 5, np.random.default_rng(99))
    setting = build_setting(6, 6)
    witnesses = SampleSet(setting.witnesses(), label="witnesses")
    blobs = []
    for _ in range(2):
        report = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5, 0.25)))
        cert_b = check_condition_b(witnesses, standard_basis_frame(setting.shape, 6), 0.25)
        op = theta_op(ModuleVector.basis(shape, 4, 0), ModuleVector.basis(shape, 4, 0))
        cert_op = operator_precompact(op, 0.3)
        blobs.append(serialize(report) + serialize(cert_b) + serialize(cert_op))
    assert blobs[0] == blobs[1]

    sample_file = tmp_path / "sample.json"
    sample_file.write_bytes(serialize(sample))
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main(
            [
                "precompact", "--condition", "all",
                "--sample", str(sample_file),
                "--eps", "0.5", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
