"""Admissible systems, seminorms, greedy nets, transfer, witnesses."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_state,
    compose,
    normalized_trace,
    prefix_supported_vector,
    random_shape,
    random_state,
    random_vector,
)
from cstarframes import (
    AdmissibleSystem,
    AlgebraElement,
    AlgebraShape,
    ApproximationHypothesisError,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    SeminormSpec,
    TailDecaySignal,
    admissible_check,
    adversarial_witness,
    epsilon_net,
    inner_product,
    net_covers,
    net_transfer,
    parse,
    pseudometric_eval,
    seminorm_eval,
    seminorm_values,
    state_values,
)
from cstarframes.algebra import block_sum
from cstarframes.cli import main
from cstarframes.seminorms import _nu

FIXTURES = Path(__file__).parent / "fixtures"
C2 = AlgebraShape((1, 1))
C3 = AlgebraShape((1, 1, 1))


def basis_system(shape, dim, scale=1.0):
    return tuple(ModuleVector.basis(shape, dim, j) * scale for j in range(dim))


def simple_spec(shape, dim, scale=1.0):
    system = AdmissibleSystem(basis_system(shape, dim, scale))
    states = tuple(
        block_state(shape, k % shape.num_blocks) for k in range(dim)
    )
    return SeminormSpec(system, states)


def test_standard_basis_admissible_equality_case(rng):
    shape = random_shape(rng)
    report = admissible_check(basis_system(shape, 3))
    assert report.ok
    assert report.max_norm == pytest.approx(1.0, abs=1e-12)
    assert report.gram_slack >= -1e-10


def test_scaled_basis_violates_norm():
    report = admissible_check((ModuleVector.basis(C2, 1, 0) * 2.0,))
    assert not report.ok
    assert report.bad_norm_index == 0


def test_shrunk_basis_admissible(rng):
    shape = random_shape(rng)
    report = admissible_check(basis_system(shape, 3, scale=1.0 / np.sqrt(2.0)))
    assert report.ok
    assert report.gram_slack >= 0.5 - 1e-10


def test_admissible_check_refuses_a_gram_that_overflows():
    """1e200 on block 0 overflows that block's gram: slack -inf, not the other block's."""
    big = ModuleVector(C2, (AlgebraElement(C2, ([[1e200]], [[0.5]])),))
    report = admissible_check((big,))
    assert not report.ok
    assert report.gram_slack == -math.inf
    assert report.max_norm == 1e200
    with pytest.raises(ValueError, match="gram slack -inf"):
        AdmissibleSystem((big,))


def test_admissible_system_rejects_violations():
    with pytest.raises(ValueError):
        AdmissibleSystem((ModuleVector.basis(C2, 1, 0) * 2.0,))


def test_spec_requires_matching_lengths(rng):
    shape = random_shape(rng)
    system = AdmissibleSystem(basis_system(shape, 2))
    with pytest.raises(ValueError):
        SeminormSpec(system, (normalized_trace(shape),))


def test_spec_requires_states_over_the_system_algebra():
    """Refused when the spec is built, not at its first evaluation."""
    shape = AlgebraShape((1, 2))
    system = AdmissibleSystem((ModuleVector.basis(shape, 2, 0) * 0.5,))
    with pytest.raises(ValueError, match="state and element shapes differ"):
        SeminormSpec(system, (normalized_trace(AlgebraShape((2, 1))),))


def test_seminorm_of_zero(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 3)
    assert seminorm_eval(spec, ModuleVector.zero(shape, 3)) == 0.0


def test_seminorm_point_state_one():
    system = AdmissibleSystem((ModuleVector.basis(C2, 1, 0),))
    spec = SeminormSpec(system, (block_state(C2, 0),))
    assert seminorm_eval(spec, ModuleVector.basis(C2, 1, 0)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_seminorm_dominated_by_norm(rng):
    for _ in range(100):
        shape = random_shape(rng)
        dim = int(rng.integers(2, 5))
        system = AdmissibleSystem(basis_system(shape, dim, scale=float(rng.uniform(0.3, 1.0))))
        states = tuple(random_state(shape, rng) for _ in range(dim))
        spec = SeminormSpec(system, states)
        x = random_vector(shape, dim, rng)
        assert seminorm_eval(spec, x) <= x.norm() + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_seminorm_triangle_and_homogeneity(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    dim = 3
    spec = simple_spec(shape, dim, scale=0.9)
    x = random_vector(shape, dim, rng)
    y = random_vector(shape, dim, rng)
    vx, vy = seminorm_eval(spec, x), seminorm_eval(spec, y)
    assert seminorm_eval(spec, x + y) <= vx + vy + 1e-9
    lam = complex(rng.standard_normal(), rng.standard_normal())
    assert seminorm_eval(spec, x * lam) == pytest.approx(abs(lam) * vx, abs=1e-9)


def test_pseudometric_axioms(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 3)
    x = random_vector(shape, 3, rng)
    y = random_vector(shape, 3, rng)
    z = random_vector(shape, 3, rng)
    assert pseudometric_eval(spec, x, x) == 0.0
    assert pseudometric_eval(spec, x, y) == pytest.approx(
        pseudometric_eval(spec, y, x), abs=1e-12
    )
    assert pseudometric_eval(spec, x, z) <= (
        pseudometric_eval(spec, x, y) + pseudometric_eval(spec, y, z) + 1e-9
    )


def test_net_singleton(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 2)
    sample = SampleSet((random_vector(shape, 2, rng),))
    assert epsilon_net(sample, spec, 0.1) == [0]


def test_net_collapses_duplicates(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 2)
    e1 = ModuleVector.basis(shape, 2, 0)
    sample = SampleSet((e1, e1))
    assert epsilon_net(sample, spec, 0.1) == [0]


def test_net_covers_at_radius(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 3)
    sample = SampleSet(tuple(random_vector(shape, 3, rng) for _ in range(12)))
    eps = 0.4
    net = epsilon_net(sample, spec, eps)
    assert net_covers(sample, spec, net, eps)


def test_a_point_at_exactly_eps_joins_the_net():
    """The greedy net stops only when every distance is below eps: a distance equal to it is not."""
    spec = simple_spec(C2, 2)
    sample = SampleSet((ModuleVector.zero(C2, 2), ModuleVector.basis(C2, 2, 0) * 0.5))
    d = pseudometric_eval(spec, sample.points[0], sample.points[1])
    assert d == 0.5
    assert epsilon_net(sample, spec, d) == [0, 1]
    assert epsilon_net(sample, spec, math.nextafter(d, 1.0)) == [0]
    assert not net_covers(sample, spec, [0], d)


def test_net_deterministic(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 3)
    sample = SampleSet(tuple(random_vector(shape, 3, rng) for _ in range(10)))
    assert epsilon_net(sample, spec, 0.3) == epsilon_net(sample, spec, 0.3)


def test_net_saturates_under_rank_one_spec(rng):
    """Coarse spec collapses a grid to a line: net size saturates."""
    system = AdmissibleSystem((ModuleVector.basis(C2, 2, 0) * 0.9,))
    spec = SeminormSpec(system, (block_state(C2, 0),))
    e1 = ModuleVector.basis(C2, 2, 0)
    e2 = ModuleVector.basis(C2, 2, 1)
    sizes = []
    for count in (10, 50, 200):
        ts = np.linspace(0.0, 1.0, count)
        pts = tuple(
            e1 * float(t) + e2 * float(rng.standard_normal()) for t in ts
        )
        sizes.append(len(epsilon_net(SampleSet(pts), spec, 0.25)))
    assert sizes[1] == sizes[2]
    assert sizes[2] <= 5


def test_transfer_identity_pair(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 3)
    pts = tuple(random_vector(shape, 3, rng) for _ in range(8))
    sample = SampleSet(pts)
    net = net_transfer(sample, sample, spec, eps=0.5)
    assert net_covers(sample, spec, net, 6 * 0.5)


def test_transfer_perturbed_pair(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 4)
    eps = 0.3
    approx_pts = tuple(
        prefix_supported_vector(shape, 4, 2, rng, scale=0.5) for _ in range(10)
    )
    sample_pts = tuple(
        p + random_vector(shape, 4, rng, scale=0.02) for p in approx_pts
    )
    sample = SampleSet(sample_pts)
    approx = SampleSet(approx_pts)
    net = net_transfer(sample, approx, spec, eps)
    assert net_covers(sample, spec, net, 6 * eps)
    assert all(idx in range(len(sample_pts)) for idx in net)


def test_transfer_rejects_bad_hypothesis(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 2)
    far = ModuleVector.basis(shape, 2, 0) * 5.0
    sample = SampleSet((far,))
    approx = SampleSet((ModuleVector.zero(shape, 2),))
    with pytest.raises(ApproximationHypothesisError) as err:
        net_transfer(sample, approx, spec, eps=0.5)
    assert err.value.index == 0


def test_witness_on_planted_slow_tail():
    shape = C3
    dim = 8
    schedule = (2, 4, 6, 8)
    points = [prefix_supported_vector(shape, dim, 2, np.random.default_rng(5), 0.1)]
    for lo in schedule[:-1]:
        points.append(ModuleVector.basis(shape, dim, lo))
    sample = SampleSet(tuple(points))
    report = adversarial_witness(sample, schedule, delta=1.0)
    assert len(report.witness_indices) == len(schedule) - 1
    for val in report.attained:
        assert val > 3.0 / 4.0
    # small-tail points sit at least delta/4 away from every witness
    small = prefix_supported_vector(shape, dim, 2, np.random.default_rng(6), 0.05)
    for idx in report.witness_indices:
        sep = pseudometric_eval(report.spec, sample.points[idx], small)
        assert sep >= 0.25 - 1e-6


def test_witness_signals_decayed_tails():
    shape = C2
    dim = 6
    rng = np.random.default_rng(9)
    pts = tuple(prefix_supported_vector(shape, dim, 2, rng, 0.5) for _ in range(4))
    with pytest.raises(TailDecaySignal) as err:
        adversarial_witness(SampleSet(pts), (2, 4, 6), delta=1.0)
    assert err.value.threshold == pytest.approx(0.75)


def test_witness_refuses_a_negative_prefix():
    """restrict would read the window (-2, 1) as (0, 1)."""
    shape = AlgebraShape((1, 2))
    points = tuple(ModuleVector.basis(shape, 3, j) for j in range(3))
    with pytest.raises(ValueError, match="schedule prefixes must be non-negative"):
        adversarial_witness(SampleSet(points), (-2, 1, 3), delta=1.0)


def test_witness_system_is_admissible():
    shape = C3
    dim = 6
    points = tuple(ModuleVector.basis(shape, dim, lo) for lo in (2, 4))
    report = adversarial_witness(SampleSet(points), (2, 4, 6), delta=1.0)
    check = admissible_check(report.spec.system.vectors)
    assert check.ok


# -- the state-value tensor against the vector route ------------------------


def oracle_nu(spec, x):
    """nu(x) through inner_product and State.__call__, one value at a time."""
    best = 0.0
    for k, phi in enumerate(spec.states):
        acc = 0.0
        for xi in spec.system.vectors[k:]:
            acc += abs(phi(inner_product(x, xi))) ** 2
        best = max(best, acc)
    return math.sqrt(best)


def oracle_greedy(spec, points, eps, limit=None):
    """Farthest-point net on the x - y route: (net, farthest distance per step)."""
    dist = [oracle_nu(spec, p - points[0]) for p in points]
    net, far_dists = [0], []
    while limit is None or len(net) < limit:
        far = int(np.argmax(dist))
        far_dists.append(dist[far])
        if dist[far] < eps:
            break
        net.append(far)
        dist = [min(d, oracle_nu(spec, p - points[far])) for d, p in zip(dist, points)]
    return net, far_dists


def random_admissible_spec(shape, dim, size, rng):
    """Random system scaled so that sum_i theta_{x_i,x_i} <= 0.9 Id, random states."""
    vecs = [random_vector(shape, dim, rng) for _ in range(size)]
    top = max(
        float(np.linalg.norm(np.hstack([v.realize_block(k) for v in vecs]), 2))
        for k in range(shape.num_blocks)
    )
    system = AdmissibleSystem(tuple(v * (0.9 / top) for v in vecs))
    return SeminormSpec(system, tuple(random_state(shape, rng) for _ in range(size)))


SHAPES = [(1,), (2,), (1, 2), (1, 1, 2), (3,), (1, 3), (2, 2), (1, 4)]

spec_cases = st.tuples(
    st.sampled_from(SHAPES),
    st.integers(1, 3),  # module dimension
    st.integers(1, 4),  # system size
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1e3),  # point scale
)


def draw_case(case, count):
    dims, dim, size, seed, scale = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    spec = random_admissible_spec(shape, dim, size, rng)
    points = tuple(random_vector(shape, dim, rng, scale) for _ in range(count))
    return spec, points


@settings(max_examples=40, deadline=None)
@given(case=spec_cases)
def test_seminorm_is_bit_identical_to_vector_route(case):
    spec, points = draw_case(case, 5)
    expected = [oracle_nu(spec, x) for x in points]
    assert [seminorm_eval(spec, x) for x in points] == expected
    assert seminorm_values(spec, SampleSet(points)).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(case=spec_cases)
def test_pseudometric_matches_vector_route(case):
    spec, (x, y) = draw_case(case, 2)
    expected = oracle_nu(spec, x - y)
    tol = 1e-12 * (1.0 + x.norm() + y.norm())
    assert abs(pseudometric_eval(spec, x, y) - expected) <= tol
    assert pseudometric_eval(spec, x, x) == 0.0


@settings(max_examples=25, deadline=None)
@given(case=spec_cases, target=st.integers(2, 4))
def test_epsilon_net_matches_vector_route(case, target):
    spec, points = draw_case(case, 8)
    far = oracle_greedy(spec, points, 0.0, limit=len(points))[1]
    # eps in the middle of a clear gap between consecutive farthest
    # distances, so last-bit differences cannot move the cut.
    gaps = [s for s in range(target - 1, len(far)) if far[s - 1] - far[s] > 1e-6 * far[s - 1]]
    if not gaps:
        return
    s = gaps[0]
    hi, lo = far[s - 1], far[s]
    eps = math.sqrt(hi * lo) if lo > 0 else hi / 2.0
    expected, _ = oracle_greedy(spec, points, eps)
    assert epsilon_net(SampleSet(points), spec, eps) == expected


def np_trace_state_values(spec, sample):
    """state_values with np.trace at every block size: the reference for its closed forms."""
    traces = []
    for s, y, rho in zip(sample.realizations, spec._system.realizations, spec._densities):
        ips = s.conj().swapaxes(-1, -2)[:, :, None] @ y[:, None]
        traces.append(np.trace(rho[:, None, :, None] @ ips[:, :, None], axis1=-2, axis2=-1))
    return block_sum(sample.shape, traces)


@settings(max_examples=40, deadline=None)
@given(case=spec_cases, fills=st.lists(st.sampled_from([None, 0.0, -0.0, math.nan]), min_size=6, max_size=6))
def test_state_values_are_np_trace_bit_for_bit(case, fills):
    """Signed zeros and NaN included: point p has its first block set to fills[p]."""
    spec, points = draw_case(case, 6)
    stacks = [s.copy() for s in SampleSet(points).realizations]
    for p, fill in enumerate(fills):
        if fill is not None:
            stacks[0][0, p] = fill
    sample = SampleSet._packed(points[0].shape, points[0].dim, stacks)
    with np.errstate(invalid="ignore"):
        assert state_values(spec, sample).tobytes() == np_trace_state_values(spec, sample).tobytes()


def test_sample_realizations_are_stacked_blocks(rng):
    shape = AlgebraShape((1, 2, 1))
    points = tuple(random_vector(shape, 3, rng) for _ in range(4))
    stacks = SampleSet(points).realizations
    # one stack per size class: blocks 0 and 2 (1x1), then block 1 (2x2)
    assert [s.shape for s in stacks] == [(2, 4, 3, 1), (1, 4, 6, 2)]
    for k, (c, j) in enumerate(shape.slots):
        for p, x in zip(stacks[c][j], points):
            assert np.array_equal(p, x.realize_block(k))
    assert SampleSet(()).realizations == ()


def test_state_values_reject_other_module(rng):
    spec = simple_spec(C2, 3)
    with pytest.raises(ValueError, match="different modules"):
        seminorm_eval(spec, ModuleVector.basis(C2, 2, 0))
    with pytest.raises(ValueError, match="different modules"):
        seminorm_eval(spec, ModuleVector.basis(C3, 3, 0))


def test_state_values_empty_sample():
    spec = simple_spec(C2, 3)
    assert state_values(spec, SampleSet(())).shape == (0, 3, 3)
    assert seminorm_values(spec, SampleSet(())).shape == (0,)


def test_transfer_reports_first_far_point(rng):
    shape = C2
    spec = simple_spec(shape, 2)
    approx_pts = tuple(random_vector(shape, 2, rng, scale=0.3) for _ in range(4))
    near = tuple(p + random_vector(shape, 2, rng, scale=0.01) for p in approx_pts)
    far = ModuleVector.basis(shape, 2, 1) * 4.0
    sample = SampleSet((near[0], near[1], far, near[2], far * 2.0))
    with pytest.raises(ApproximationHypothesisError) as err:
        net_transfer(sample, SampleSet(approx_pts), spec, eps=0.5)
    assert err.value.index == 2
    expected = min((far - y).norm() for y in approx_pts)
    assert err.value.distance == pytest.approx(expected, rel=1e-12)


def test_transfer_keeps_the_net_points_near_the_sample(rng):
    shape = random_shape(rng)
    spec = simple_spec(shape, 3)
    approx = SampleSet(tuple(random_vector(shape, 3, rng, scale=0.2) for _ in range(10)))
    sample = SampleSet(
        tuple(p + random_vector(shape, 3, rng, scale=0.01) for p in approx.points)
    )
    eps = 0.2
    expected = []
    for j in epsilon_net(approx, spec, eps):
        for i, s in enumerate(sample.points):
            if pseudometric_eval(spec, s, approx.points[j]) < 3.0 * eps:
                if i not in expected:
                    expected.append(i)
                break
    assert len(expected) > 1
    assert net_transfer(sample, approx, spec, eps) == expected


def test_net_ties_go_to_the_first_index():
    e1 = ModuleVector.basis(C2, 2, 0)
    sample = SampleSet((ModuleVector.zero(C2, 2), e1, e1 * 0.5, e1))
    spec = simple_spec(C2, 2)
    assert epsilon_net(sample, spec, 0.1) == [0, 1, 2]


def test_ball_sampler_is_a_test_oracle_only():
    import cstarframes
    import cstarframes.certify
    import cstarframes.seminorms

    for module in (cstarframes, cstarframes.certify, cstarframes.seminorms):
        assert not hasattr(module, "BallSampler")


def oracle_admissibility(vectors):
    """Largest norm and gram slack through module operators: Id - Theta* @ Theta."""
    shape, dim = vectors[0].shape, vectors[0].dim
    theta = ModuleOperator(shape, tuple(tuple(c.adjoint() for c in v.coords) for v in vectors))
    defect = ModuleOperator.identity(shape, dim) - compose(theta.adjoint(), theta)
    slack = min(
        float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
        for m in (defect.realize_block(k) for k in range(shape.num_blocks))
    )
    return max(v.norm() for v in vectors), slack


@settings(max_examples=40, deadline=None)
@given(case=spec_cases, stretch=st.sampled_from([0.5, 1.0, 1.2]))
def test_admissible_slack_equals_the_operator_route(case, stretch):
    dims, dim, size, seed, _ = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims + (3,))
    vectors = [v * stretch for v in random_admissible_spec(shape, dim, size, rng).system.vectors]
    report = admissible_check(vectors)
    assert (report.max_norm, report.gram_slack) == oracle_admissibility(vectors)


def test_admissible_slack_of_the_fixture_spec():
    spec = parse("seminorm_spec", (FIXTURES / "seminorm_spec.json").read_bytes())
    vectors = spec.system.vectors
    report = admissible_check(vectors)
    assert (report.max_norm, report.gram_slack) == oracle_admissibility(vectors)


# -- nu outside the float range of its squares ---------------------------------------


@st.composite
def value_tensors(draw):
    """(P, k, k) state values: parts +-2^U(-40, 20), a third of them +-0.0, and one zero matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 8)), k, k, 2)
    parts = rng.choice([-1.0, 1.0], shape) * np.exp2(rng.uniform(-40.0, 20.0, shape))
    parts[rng.random(shape) < 0.3] = rng.choice([0.0, -0.0])
    parts[0] = 0.0
    return parts[..., 0] + 1j * parts[..., 1]


def _ldexp(values, k):
    with np.errstate(under="ignore"):
        return np.ldexp(values.real, k) + 1j * np.ldexp(values.imag, k)


@settings(max_examples=300, deadline=None)
@given(values=value_tensors())
def test_nu_of_values_scaled_out_of_range_is_one_route(values):
    """nu(2^k V), k = +-600 and +-1000, is one value times 2^k, and the plain nu(V) times 2^k to an ulp.

    Every 2^k V is taken to the same V 2^-e, so the four agree bit for
    bit.  V is first rounded to the values 2^-1000 V holds (its smallest
    entries are subnormal there), and entries stay below 2^20 so that
    2^1000 V is finite.  Against the plain formula on V itself the bits
    agree except where libm's pow(h, 2) rounds h and h 2^-e apart, one
    ulp at most: over 20,000 such tensors, 8 differed.
    """
    values = _ldexp(_ldexp(values, -1000), 1000)
    with np.errstate(over="raise", invalid="raise"):
        base = _nu(_ldexp(values, 600))
        for k in (-600, 1000, -1000):
            with np.errstate(under="ignore"):
                want = np.ldexp(base, k - 600)
            assert _nu(_ldexp(values, k)).tobytes() == want.tobytes()
        plain = np.ldexp(_nu(values), 600)
    assert base[0] == 0.0 and np.isfinite(base).all()
    assert (np.abs(base - plain) <= np.spacing(plain)).all()


def _scaled_fixture(tmp_path, e):
    doc = json.loads((FIXTURES / "sample_planted.json").read_text())

    def scale(v):
        return [scale(x) for x in v] if isinstance(v, list) else math.ldexp(v, e)

    doc["points"] = scale(doc["points"])
    path = tmp_path / f"sample_{e}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _cli(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.splitlines()


@pytest.mark.parametrize("e", [520, -560])
def test_seminorm_and_net_of_a_sample_scaled_out_of_range(tmp_path, capsys, e):
    """The planted sample times 2^520 or 2^-560: its seminorms times 2^e exactly, and the same nets."""
    spec = str(FIXTURES / "seminorm_spec.json")
    plain = str(FIXTURES / "sample_planted.json")
    scaled = _scaled_fixture(tmp_path, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _cli(["seminorm", spec, plain], capsys)
        got = _cli(["seminorm", spec, scaled], capsys)
        assert got[0] == want[0] == "index,seminorm"
        for row, plain_row in zip(got[1:], want[1:], strict=True):
            i, value = row.split(",")
            j, plain_value = plain_row.split(",")
            assert i == j and float(value) == math.ldexp(float(plain_value), e) > 0.0
        for eps, scaled_eps in ((0.5, math.ldexp(0.5, e)), (1e-200, 1e-200)):
            net = _cli(["net", scaled, spec, "--eps", repr(scaled_eps)], capsys)
            assert net == _cli(["net", plain, spec, "--eps", repr(eps)], capsys)
    assert _cli(["net", scaled, spec, "--eps", "1e-200"], capsys)[1:] == ["0", "4", "1", "3", "5", "2"]


def test_in_range_values_never_take_the_scaled_route(monkeypatch):
    """In-range values, and the zero matrix of a point against itself in each greedy step, stay plain."""

    def forbidden(*args):
        raise AssertionError("scaled route taken")

    sample = parse("sample_set", (FIXTURES / "sample_planted.json").read_bytes())
    spec = parse("seminorm_spec", (FIXTURES / "seminorm_spec.json").read_bytes())
    monkeypatch.setattr(np, "frexp", forbidden)
    assert epsilon_net(sample, spec, 1e-200) == [0, 4, 1, 3, 5, 2]
    assert (seminorm_values(spec, sample) > 0.0).all()
