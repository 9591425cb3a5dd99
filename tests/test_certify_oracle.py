"""The batched certificate passes against the per-point route they replaced.

The reference functions below recompute every condition one sample
point at a time with module-vector arithmetic: a pseudo-inverse per
point for condition A, a per-vector reconstruction for every prefix
tail, `inner_product` and `ModuleVector` sums for the span family, the
C/D residual recursion and the d=>a replay.  Every verdict, witness and
diagnostics list must equal the library's with exact ==.  The
per-object routes of `Frame.reconstruct`, `Frame.partial_sum_op` and
`free_submodule_check` are kept here too, and the stacked passes must
equal them byte for byte.  The file also pins the canonical report bytes
of two fixtures and counts the work one equivalence run does.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import random_element, random_frame, random_vector
from cstarframes import (
    AlgebraElement,
    AlgebraShape,
    CertifyConfig,
    DegenerateFrameError,
    Frame,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    certify_equivalences,
    check_condition_a,
    check_condition_b,
    check_condition_cd,
    free_submodule_check,
    inner_product,
    serialize,
    standard_basis_frame,
    theta_op,
)
from cstarframes.tolerances import check_eps
from cstarframes.certify import Certificate, GramDefectError
from cstarframes.cli import main
from cstarframes.modules import PINV_RTOL, generator_family, span_least_squares
from cstarframes.serialization import document
from cstarframes.tolerances import COHERENCE_TOL, GRAM_DEFECT_ATOL

FIXTURES = Path(__file__).parent / "fixtures"
SHAPES = [(1,), (2,), (1, 2), (1, 1, 2), (2, 2)]
KINDS = ["planted", "random", "tiny"]
GRID = (2.0, 0.5, 0.2, 1e-3)
# (kind, rank budget): budget 1 exhausts on planted samples, 0 forces rank 0
CASES = [("planted", None), ("planted", 1), ("random", None), ("tiny", 0)]


# -- the per-point reference route ---------------------------------------------


def ref_distance(x, gens):
    residual, mats = 0.0, []
    for k in range(x.shape.num_blocks):
        gk = np.hstack([g.realize_block(k) for g in gens])
        xk = x.realize_block(k)
        ak = np.linalg.pinv(gk, rcond=PINV_RTOL) @ xk
        residual = max(residual, float(np.linalg.norm(xk - gk @ ak, 2)))
        mats.append(ak)
    dims = x.shape.block_dims
    coeffs = [
        AlgebraElement(x.shape, tuple(m[i * n : (i + 1) * n, :] for m, n in zip(mats, dims)))
        for i in range(len(gens))
    ]
    return residual, coeffs


def ref_pinv_norm(gens):
    return max(
        float(np.linalg.norm(np.linalg.pinv(np.hstack([g.realize_block(k) for g in gens]),
                                            rcond=PINV_RTOL), 2))
        for k in range(gens[0].shape.num_blocks)
    )


def ref_condition_a(sample, gens, eps, tol=1e-9):
    rows = []
    for x in sample.points:
        residual, coeffs = ref_distance(x, gens)
        approx = ModuleVector.zero(x.shape, x.dim)
        for g, c in zip(gens, coeffs):
            approx = approx + g * c
        stacked = ModuleVector(x.shape, tuple(coeffs)).norm()
        rows.append((residual, [c.norm() for c in coeffs], stacked, approx.norm()))
    residuals = [r[0] for r in rows]
    m_eps = max((max(r[1]) for r in rows if r[1]), default=0.0)
    b_const = ref_pinv_norm(gens)
    d_const = max((r[3] for r in rows), default=0.0)
    bd = b_const * d_const
    return {
        "verdict": all(r < eps for r in residuals),
        "coefficient_bound": m_eps,
        "witness": {"generator_count": len(gens), "M_eps": m_eps},
        "diagnostics": {
            "residuals": residuals,
            "coefficient_norms": [r[1] for r in rows],
            "stacked_coefficient_norms": [r[2] for r in rows],
            "B": b_const,
            "D": d_const,
            "bd_bound_ok": all(r[2] <= bd + tol * (1.0 + bd) for r in rows),
        },
    }


def ref_reconstruct(frame, x, indices=None):
    """sum_{j in indices} x_j <g_j, x>, one module vector at a time from zero."""
    idx = range(frame.size) if indices is None else frame._check_indices(indices)
    vectors, dual = frame.vectors, frame.canonical_dual()
    out = ModuleVector.zero(frame.shape, frame.dim)
    for j in idx:
        out = out + vectors[j] * inner_product(dual[j], x)
    return out


def ref_partial_sum(frame, indices):
    """P_J' = sum_{j in J'} theta_{x_j, g_j}, one theta operator at a time from zero."""
    idx = frame._check_indices(indices)
    vectors, dual = frame.vectors, frame.canonical_dual()
    shape, dim = frame.shape, frame.dim
    out = ModuleOperator._packed(
        shape, dim, dim,
        tuple(np.zeros((len(ks), dim * n, dim * n), complex) for n, ks in shape.classes),
    )
    for j in idx:
        out = out + theta_op(vectors[j], dual[j])
    return out


def ref_free(sample, generators, eps):
    """free_submodule_check, one generator pair and one sample point at a time."""
    check_eps(eps)
    gens = generator_family(generators)
    shape = gens.shape
    ident = AlgebraElement.identity(shape)
    zero = AlgebraElement.zero(shape)
    defect = 0.0
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            want = ident if i == j else zero
            defect = max(defect, (inner_product(gi, gj) - want).norm())
    if defect > GRAM_DEFECT_ATOL:
        raise GramDefectError(defect)

    projector = None
    for g in gens:
        t = theta_op(g, g)
        projector = t if projector is None else projector + t

    _, dists, _ = span_least_squares(sample, gens)
    residuals = [(x - projector(x)).norm() for x in sample.points]
    verdict = all(d < eps for d in dists)
    two_eps_ok = all(
        r < 2.0 * eps for d, r in zip(dists, residuals) if d < eps
    )
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


def ref_tails(frame, points):
    profiles = [
        [(x - ref_reconstruct(frame, x, range(n))).norm() for n in range(frame.size + 1)]
        for x in points
    ]
    return [max((p[n] for p in profiles), default=0.0) for n in range(frame.size + 1)]


def ref_condition_b(sample, frame, eps):
    tails = ref_tails(frame, sample.points)
    n_stable = 0
    for n in range(frame.size):
        if tails[n] >= eps:
            n_stable = n + 1
    return {
        "verdict": n_stable < frame.size,
        "witness": {"N": n_stable},
        "diagnostics": {"tail_profile": tails},
    }


def ref_normalize(v):
    a = inner_product(v, v)
    cut = max(a.norm(), 0.0) * PINV_RTOL
    blocks = []
    for blk in a.blocks:
        w, u = np.linalg.eigh((blk + blk.conj().T) / 2.0)
        inv_sqrt = np.where(w > cut, 1.0 / np.sqrt(np.clip(w, cut, None)), 0.0)
        blocks.append((u * inv_sqrt) @ u.conj().T)
    return v * AlgebraElement(v.shape, tuple(blocks))


def ref_span_family(vectors, tol=1e-9):
    fam = []
    for z in vectors:
        r = z
        for w in fam:
            r = r - w * inner_product(w, r)
        if r.norm() > tol * max(1.0, z.norm()):
            fam.append(ref_normalize(r))
    return fam


def ref_condition_cd(sample, eps, rank_budget=None, frame=None):
    """(certificate fields, approximant pairs) of the per-point C/D scan."""
    if frame is not None:
        pairs = list(zip(frame.vectors, frame.canonical_dual()))
    else:
        pairs = [(w, w) for w in ref_span_family(sample.points)]
    default = sample.dim if frame is None else len(pairs)  # a frame is scanned whole
    limit = min(default if rank_budget is None else rank_budget, len(pairs))
    residuals = list(sample.points)
    errors = [max(r.norm() for r in residuals)]
    n = 0
    while errors[-1] >= eps and n < limit:
        z, g = pairs[n]
        residuals = [r - z * inner_product(g, x) for r, x in zip(residuals, sample.points)]
        errors.append(max(r.norm() for r in residuals))
        n += 1
    achieved = n if errors[-1] < eps else None
    diagnostics = {"error_profile": errors, "best_error": min(errors)}
    if achieved is not None:
        return {"verdict": True, "budget_exhausted": False, "witness": {"rank": achieved},
                "diagnostics": diagnostics}, pairs[:achieved]
    return {"verdict": False, "budget_exhausted": True, "witness": {"rank_budget": limit},
            "diagnostics": diagnostics}, None


def ref_violations(sample, eps, eps_scaled, a_scaled, a, b, cd, pairs, frame, gens,
                   gen_tails, tol):
    """The coherence replay of the equivalence runner, one point at a time."""
    c1, c2 = frame.bounds
    s, m = len(gens), frame.size
    out = []
    if a_scaled["verdict"] and sample.points:
        m_coeff = a_scaled["coefficient_bound"] or 0.0
        thresh = math.inf if m_coeff == 0.0 else eps / (3.0 * s * m_coeff)
        tails_z = b["diagnostics"]["tail_profile"]
        stable = None
        for n in range(m, -1, -1):
            if gen_tails[n] <= thresh:
                stable = n
            else:
                break
        for n in range(m + 1):
            if gen_tails[n] > thresh:
                continue
            estimate = eps_scaled * (1.0 + c2 / c1) + s * gen_tails[n] * m_coeff
            if tails_z[n] > estimate + tol:
                out.append(
                    f"a=>b chain broken at prefix {n}: tail {tails_z[n]:.6g} "
                    f"exceeds the three-term estimate {estimate:.6g}"
                )
        if stable is not None and stable < m:
            if not b["verdict"] or b["witness"]["N"] > stable:
                out.append(
                    f"a at eps*c1/(3c2) holds and generator tails reach "
                    f"{thresh:.6g} from prefix {stable}, yet condition b "
                    f"reports N={b['witness']['N']}"
                )
    if cd["verdict"] and sample.points and pairs:
        m_da = max(x.norm() for x in sample.points) * max(g.norm() for _, g in pairs)
        for i, x in enumerate(sample.points):
            coeffs = [inner_product(g, x) for _, g in pairs]
            if any(c.norm() > m_da + tol * (1.0 + m_da) for c in coeffs):
                out.append(
                    f"d=>a bound broken at point {i}: coefficient norm "
                    f"exceeds R*max||f_k|| = {m_da:.6g}"
                )
            approx = ModuleVector.zero(x.shape, x.dim)
            for (z, _), c in zip(pairs, coeffs):
                approx = approx + z * c
            if (x - approx).norm() >= eps + tol:
                out.append(
                    f"d=>a residual broken at point {i}: direct coefficient "
                    f"replay misses the eps bound"
                )
    if a["verdict"] and not a["diagnostics"]["bd_bound_ok"]:
        out.append(
            "finite-dimensional coefficient bound B*D violated by the "
            "minimal-norm solution"
        )
    return out


# -- cases ----------------------------------------------------------------------


def _sample(dims, kind, seed=None):
    """A sample of one kind; the seed defaults to the one the grid oracle uses."""
    if seed is None:
        seed = len(dims) * 31 + KINDS.index(kind)
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    if kind == "planted":
        dim = 4
        points = [
            ModuleVector(shape, tuple(
                random_element(shape, rng, 0.4) if i < 2 else AlgebraElement.zero(shape)
                for i in range(dim)))
            for _ in range(6)
        ]
    elif kind == "random":
        dim = 3
        points = [random_vector(shape, dim, rng, 0.5) for _ in range(5)]
    else:  # within the largest eps of zero: C/D may pass at rank 0
        dim = 3
        base = random_vector(shape, dim, rng)
        points = [base * random_element(shape, rng, 0.05) for _ in range(4)]
    return SampleSet(tuple(points)), rng


def _same_pairs(got, want):
    assert len(got) == len(want)
    for (z1, g1), (z2, g2) in zip(got, want):
        for k in range(z1.shape.num_blocks):
            assert np.array_equal(z1.realize_block(k), z2.realize_block(k))
            assert np.array_equal(g1.realize_block(k), g2.realize_block(k))


def _check_certificate(cert, want, eps):
    doc = document(cert)
    assert doc["eps"] == eps
    assert (doc["verdict"] == "pass") == want["verdict"]
    for key in ("witness", "diagnostics", "coefficient_bound", "budget_exhausted"):
        if key in want:
            assert doc[key] == want[key], key


# -- the oracle tests -------------------------------------------------------------


@pytest.mark.parametrize("kind, budget", CASES)
@pytest.mark.parametrize("dims", SHAPES)
def test_equivalences_match_the_per_point_route(dims, kind, budget):
    sample, rng = _sample(dims, kind)
    gens = (random_vector(sample.shape, sample.dim, rng),) if kind == "random" else None
    config = CertifyConfig(eps_grid=GRID, generators=gens, rank_budget=budget)
    report = certify_equivalences(sample, config)

    frame = standard_basis_frame(sample.shape, sample.dim)
    gens = list(gens or frame.vectors)
    gen_tails = ref_tails(frame, gens)
    c1, c2 = frame.bounds
    for eps, entry in zip(GRID, report.entries):
        eps_scaled = eps * c1 / (3.0 * c2)
        a = ref_condition_a(sample, gens, eps)
        a_scaled = ref_condition_a(sample, gens, eps_scaled)
        b = ref_condition_b(sample, frame, eps)
        cd, pairs = ref_condition_cd(sample, eps, budget)
        _check_certificate(entry.cert_a, a, eps)
        _check_certificate(entry.cert_a_scaled, a_scaled, eps_scaled)
        _check_certificate(entry.cert_b, b, eps)
        _check_certificate(entry.cert_cd, cd, eps)
        if pairs is not None:
            _same_pairs(entry.cert_cd.approximant, pairs)
        want = ref_violations(sample, eps, eps_scaled, a_scaled, a, b, cd, pairs, frame,
                              gens, gen_tails, COHERENCE_TOL)
        assert entry.violations == tuple(want)


@pytest.mark.parametrize("dims", SHAPES)
def test_single_conditions_match_the_per_point_route(dims):
    sample, rng = _sample(dims, "random", seed=7 + len(dims))
    gens = [random_vector(sample.shape, sample.dim, rng) for _ in range(2)]
    frame = random_frame(sample.shape, sample.dim, sample.dim + 1, rng)
    span = Frame(gens, spanning="range")
    for eps in (0.9, 0.3, 1e-3):
        _check_certificate(check_condition_a(sample, gens, eps), ref_condition_a(sample, gens, eps), eps)
        for fr in (frame, span):
            _check_certificate(check_condition_b(sample, fr, eps), ref_condition_b(sample, fr, eps), eps)
        for budget in (None, 0, 2):
            for fr in (None, frame):
                cert = check_condition_cd(sample, eps, rank_budget=budget, frame=fr)
                want, pairs = ref_condition_cd(sample, eps, budget, fr)
                _check_certificate(cert, want, eps)
                if pairs is not None:
                    _same_pairs(cert.approximant, pairs)


def test_grid_cases_cover_rank_changes_exhaustion_and_rank_zero():
    """The grid oracle's cases exercise every way a C/D scan over a grid can end."""
    planted, _ = _sample((1, 2), "planted")
    ranks = {e.cert_cd.witness.get("rank") for e in certify_equivalences(
        planted, CertifyConfig(eps_grid=GRID)).entries}
    assert len(ranks - {None}) >= 2
    short = certify_equivalences(planted, CertifyConfig(eps_grid=GRID, rank_budget=1))
    assert any(e.cert_cd.budget_exhausted for e in short.entries)
    tiny, _ = _sample((2,), "tiny")
    entries = certify_equivalences(tiny, CertifyConfig(eps_grid=GRID, rank_budget=0)).entries
    assert any(e.cert_cd.verdict and e.cert_cd.witness["rank"] == 0 for e in entries)


# -- canonical bytes and work counts ---------------------------------------------


@pytest.mark.parametrize("name", ["sample_planted", "sample_witnesses_5_5"])
def test_all_conditions_report_bytes_are_pinned(tmp_path, name, capsys):
    out_file = tmp_path / "report.json"
    code = main(["precompact", "--condition", "all", "--sample", str(FIXTURES / f"{name}.json"),
                 "--out", str(out_file)])
    capsys.readouterr()
    assert code == (0 if name == "sample_planted" else 1)
    assert out_file.read_bytes() == (FIXTURES / "golden" / f"all_{name}.json").read_bytes()


def test_one_run_builds_the_span_family_once_and_one_pinv_per_block(monkeypatch):
    import cstarframes.certify as certify

    counts = {"span": 0, "pinv": 0, "tails": 0, "span_svd": 0, "span_eigh": 0}
    in_span = []
    span, pinv, tails = certify.orthogonal_span_family, np.linalg.pinv, Frame.tail_profiles
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counted_span(*args, **kwargs):
        counts["span"] += 1
        in_span.append(True)
        try:
            return span(*args, **kwargs)
        finally:
            in_span.pop()

    def counted_pinv(*args, **kwargs):
        counts["pinv"] += 1
        return pinv(*args, **kwargs)

    def counted_tails(*args, **kwargs):
        counts["tails"] += 1
        return tails(*args, **kwargs)

    def counted_svd(*args, **kwargs):
        counts["span_svd"] += bool(in_span)
        return svd(*args, **kwargs)

    def counted_eigh(*args, **kwargs):
        counts["span_eigh"] += bool(in_span)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(certify, "orthogonal_span_family", counted_span)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    monkeypatch.setattr(Frame, "tail_profiles", counted_tails)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    sample, _ = _sample((1, 1, 2), "planted", seed=5)
    sample.point_norms  # a cached property of the sample: the C/D profile reads the same norms
    report = certify_equivalences(sample, CertifyConfig(eps_grid=(1.0, 0.5, 0.25, 0.125)))
    assert len(report.entries) == 4
    # one batched pinv per size class: the 1x1 blocks together, then the 2x2 block;
    # one tail pass serves the generators and the sample; Gram-Schmidt takes no SVD,
    # and one eigh per size class for every input it considers
    classes = len(sample.shape.classes)
    assert classes == 2
    assert counts == {
        "span": 1, "pinv": 2, "tails": 1, "span_svd": 0, "span_eigh": classes * len(sample)
    }


def test_one_run_stacks_the_generators_once(monkeypatch):
    import cstarframes.certify as certify

    sample, _ = _sample((1, 2), "planted", seed=7)
    gens = tuple(p * 0.5 for p in sample.points[:2])
    stacked = []
    stack = SampleSet.realizations.func

    def counted(family):
        stacked.append(any(v is g for v in family.points for g in gens))
        return stack(family)

    # a set built from points stacks them in `realizations`, once per set
    hook = functools.cached_property(counted)
    hook.__set_name__(SampleSet, "realizations")
    monkeypatch.setattr(SampleSet, "realizations", hook)
    certify_equivalences(sample, CertifyConfig(eps_grid=(0.5, 0.25), generators=gens))
    assert stacked.count(True) == 1

    # default generators are the basis frame's own family: its points are never built
    frames = []
    basis = certify.standard_basis_frame
    monkeypatch.setattr(certify, "standard_basis_frame", lambda *a: frames.append(basis(*a)) or frames[-1])
    certify_equivalences(sample, CertifyConfig(eps_grid=(0.5, 0.25)))
    assert len(frames) == 1 and "points" not in vars(frames[0]._family)


def test_replay_rechecks_the_theta_pairs_not_the_error_profile(monkeypatch):
    """A C/D profile that claims too much is caught by the direct d=>a replay."""
    import cstarframes.certify as certify

    honest = certify._error_profile
    monkeypatch.setattr(
        certify, "_error_profile", lambda sample, pairs, eps: honest(sample, pairs, eps)[:1] + [0.0]
    )
    sample, _ = _sample((2, 2), "planted", seed=11)
    report = certify_equivalences(sample, CertifyConfig(eps_grid=(0.25,)))
    entry = report.entries[0]
    assert entry.cert_cd.verdict and entry.cert_cd.witness["rank"] == 1
    assert any(v.startswith("d=>a residual broken") for v in entry.violations)
    assert report.exit_code == 1


# -- the stacked frame passes and the free check against the per-object routes -----------

MAGNITUDES = (1.0, 1e150, 1e-150)


def _planted_stacks(draw, shape, dim, count, scale, rng):
    """Random realizations (blocks, count, dim*n, n) times scale, maybe with -0.0 planted.

    When planted, about a quarter of the real and of the imaginary parts
    become -0.0, and one (block, member) pair becomes an all -0.0 block.
    """
    plant = draw(st.booleans())
    stacks = []
    for n, ks in shape.classes:
        size = (len(ks), count, dim * n, n)
        s = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        if plant:
            s.real[rng.random(size) < 0.25] = -0.0
            s.imag[rng.random(size) < 0.25] = -0.0
        stacks.append(s)
    if plant and count:
        c = int(rng.integers(len(stacks)))
        stacks[c][int(rng.integers(len(stacks[c]))), int(rng.integers(count))] = complex(-0.0, -0.0)
    return stacks


@st.composite
def frame_cases(draw):
    """(frame, point, index list): ambient or range frames, points of any magnitude."""
    shape = AlgebraShape(draw(st.sampled_from(SHAPES)))
    dim = draw(st.integers(1, 3))
    spanning = draw(st.sampled_from(["ambient", "range"]))
    size = draw(st.integers(dim if spanning == "ambient" else 1, dim + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = _planted_stacks(draw, shape, dim, size, draw(st.sampled_from((1.0, 1e150))), rng)
    try:
        frame = Frame(SampleSet._packed(shape, dim, family), spanning)
    except DegenerateFrameError:
        reject()
    point = _planted_stacks(draw, shape, dim, 1, draw(st.sampled_from(MAGNITUDES)), rng)
    x = ModuleVector._packed(shape, dim, (s[:, 0] for s in point))
    indices = draw(st.lists(st.integers(0, size - 1), max_size=2 * size))
    return frame, x, indices


def _index_error(call, *args):
    with pytest.raises(IndexError) as refused:
        call(*args)
    return str(refused.value)


def _same_stacks(got, want):
    assert [(s.shape, s.tobytes()) for s in got.stacks] == [(s.shape, s.tobytes()) for s in want.stacks]


@settings(max_examples=200, deadline=None)
@given(case=frame_cases())
def test_reconstruct_and_partial_sums_equal_the_per_object_route(case):
    frame, x, indices = case
    for idx in (None, indices, sorted(indices), indices[::-1], [], list(range(frame.size))):
        _same_stacks(frame.reconstruct(x, idx), ref_reconstruct(frame, x, idx))
        if idx is not None:
            _same_stacks(frame.partial_sum_op(idx), ref_partial_sum(frame, idx))
    for idx in ([frame.size], indices + [-1]):
        assert _index_error(frame.reconstruct, x, idx) == _index_error(ref_reconstruct, frame, x, idx)
        assert _index_error(frame.partial_sum_op, idx) == _index_error(ref_partial_sum, frame, idx)


def _orthonormal_stacks(shape, dim, count, rng):
    """Per block, the first count column groups of a random unitary: <g_i,g_j> = delta_ij."""
    stacks = []
    for n, ks in shape.classes:
        size = (len(ks), dim * n, dim * n)
        q, _ = np.linalg.qr(rng.standard_normal(size) + 1j * rng.standard_normal(size))
        stacks.append(q[:, :, : count * n].reshape(len(ks), dim * n, count, n).swapaxes(1, 2))
    return stacks


def _basis_stacks(shape, dim, count, rng, plant):
    """e_0 .. e_{count-1}, with -0.0 for some of their zeros when planted."""
    stacks = []
    for n, ks in shape.classes:
        s = np.zeros((len(ks), count, dim, n, n), complex)
        s[:, np.arange(count), np.arange(count)] = np.eye(n)
        if plant:
            zeros = (s == 0) & (rng.random(s.shape) < 0.5)
            s.real[zeros] = -0.0
            s.imag[(s == 0) & (rng.random(s.shape) < 0.5)] = -0.0
        stacks.append(s.reshape(len(ks), count, dim * n, n))
    return stacks


@st.composite
def free_cases(draw):
    """(sample, generators, eps): orthonormal sets, and sets the gram check refuses."""
    shape = AlgebraShape(draw(st.sampled_from(SHAPES)))
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["unitary", "basis", "scaled", "gaussian"]))
    if kind == "basis":
        gens = _basis_stacks(shape, dim, count, rng, draw(st.booleans()))
    elif kind == "gaussian":
        gens = _planted_stacks(draw, shape, dim, count, 1.0, rng)
    else:
        gens = _orthonormal_stacks(shape, dim, count, rng)
        if kind == "scaled":
            scale = draw(st.sampled_from(MAGNITUDES[1:]))
            gens = [g * scale for g in gens]
    generators = SampleSet._packed(shape, dim, gens)
    points = _planted_stacks(
        draw, shape, dim, draw(st.integers(0, 4)), draw(st.sampled_from(MAGNITUDES)), rng
    )
    if draw(st.booleans()):  # points inside the span, up to rounding
        coeffs = [rng.standard_normal((len(p), p.shape[1], count * p.shape[-1], p.shape[-1]))
                  for p in points]
        points = [
            g.swapaxes(1, 2).reshape(len(g), g.shape[2], -1)[:, None] @ c
            for g, c in zip(gens, coeffs)
        ]
    sample = SampleSet._packed(shape, dim, points)
    return sample, generators, draw(st.sampled_from([1e-6, 0.5, 1e300]))


def _certificate_or_refusal(check, *args):
    try:
        return serialize(check(*args))
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(case=free_cases())
def test_free_check_equals_the_per_object_route(case):
    sample, gens, eps = case
    got = _certificate_or_refusal(free_submodule_check, sample, gens, eps)
    assert got == _certificate_or_refusal(ref_free, sample, gens, eps)
