"""Admissible systems, the seminorm family, epsilon-nets, and witnesses.

An admissible system X = {x_i} (norms at most one, gram sum dominated by
<x,x>) together with states Phi = {phi_k} defines

    nu_{X,Phi}(x)^2 = max_k sum_{i>=k} |phi_k(<x, x_i>)|^2

and the pseudometric d_{X,Phi}(x,y) = nu_{X,Phi}(x-y).  Every evaluation
goes through the state-value tensor V[p, k, i] = phi_k(<x_p, x_i>) of a
sample, computed once from the stacked block realizations; since the
inner product is conjugate-linear in its first argument and each phi_k
is linear, d(x_p, x_q) = nu(V[p] - V[q]) with no module vector built.
Total boundedness of finite sample sets under these pseudometrics is
checked with greedy nets; the adversarial construction turns slow
coordinate-tail decay into a witness pair (X, Phi) separating points at
a quantified distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    State,
    block_sum,
    checked_states,
    frozen,
    hermitian_part,
    norm_attaining_state,
    ordered_sum,
    ordered_sums,
    spectral_norms,
    stored,
)
from .modules import ModuleVector, SampleSet, gram_block, inner_product
from .tolerances import ADMISSIBLE_TOL, below, check_eps


class ApproximationHypothesisError(ValueError):
    """The approximating set is not epsilon-close to the target set."""

    def __init__(self, index: int, distance: float, eps: float):
        self.index = index
        self.distance = distance
        super().__init__(
            f"sample point {index} is at module distance {distance:.6g} "
            f">= {eps:.6g} from the approximating set"
        )


class TailDecaySignal(Exception):
    """No slow-tail witness exists: the set passes the uniform tail test.

    Raised by the adversarial construction when some scheduled coordinate
    window contains no sample point of window-norm above 3*delta/4.
    """

    def __init__(self, window: tuple[int, int], best: float, threshold: float):
        self.window = window
        self.best = best
        self.threshold = threshold
        super().__init__(
            f"no point exceeds {threshold:.6g} on coordinate window "
            f"{window} (best {best:.6g}); tails already decay"
        )


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    max_norm: float
    gram_slack: float
    bad_norm_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def admissible_check(vectors) -> AdmissibilityReport:
    """Decide admissibility of a candidate system: a SampleSet or module vectors (`SampleSet.of`).

    Norm condition: ||x_i|| <= 1 + ADMISSIBLE_TOL for every i.  Gram
    condition: the operator inequality sum_i <x,x_i><x_i,x> <= <x,x> for
    every x, which over A^n is exactly
    lambda_min(Id - Theta*Theta) >= -ADMISSIBLE_TOL on the realization:
    per block, I - S_k with S_k the realized gram block (`gram_block`).
    A block whose gram is not finite (the entries overflow in the
    products) fails it with slack -inf.  A SampleSet is checked on its
    stored realizations, so a parsed system is not stacked again.
    """
    system = SampleSet.of(vectors)
    if not len(system):
        raise ValueError("empty system")
    norms = system.point_norms
    max_norm = max(0.0, *norms)
    too_long = np.flatnonzero(~below(norms, 1.0, ADMISSIBLE_TOL))
    bad_norm = int(too_long[0]) if too_long.size else None

    least = []
    for xs in system.realizations:
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.eye(xs.shape[2]) - gram_block(xs, xs, system.dim)
            h = hermitian_part(defect)
        finite = np.isfinite(h).all(axis=(-2, -1))
        spectra = np.linalg.eigvalsh(np.where(finite[:, None, None], h, 0.0))
        least.append(np.where(finite, spectra.min(axis=-1), -math.inf))
    slack = min(math.inf, *system.shape.gather(least).tolist())
    ok = bad_norm is None and bool(below(-slack, 0.0, ADMISSIBLE_TOL))
    return AdmissibilityReport(ok, max_norm, slack, bad_norm)


class AdmissibleSystem:
    """Validated admissible system; construction rejects violators.

    Takes a SampleSet or module vectors (`SampleSet.of`) and holds them as
    a SampleSet, so a system parsed from a document keeps its decoded
    stack and is validated on it.
    """

    def __init__(self, vectors):
        family = SampleSet.of(vectors)
        report = admissible_check(family)
        if not report:
            raise ValueError(
                "system is not admissible "
                f"(max norm {report.max_norm:.6g}, gram slack {report.gram_slack:.3e})"
            )
        self._family = family

    @property
    def vectors(self) -> tuple[ModuleVector, ...]:
        return self._family.points

    def __len__(self) -> int:
        return len(self._family)


class SeminormSpec:
    """A pair (X, Phi): one state per system index, stored as its density stacks.

    `_densities[c]` holds the densities of every state on the blocks of
    size class c, shape (count, states, n, n), read-only, as a SampleSet
    holds its realizations.  The public constructor stacks its states
    once; a parsed spec (`_packed`) keeps the decoded stacks.  `states`
    gives the states back as views of the stacks, built on first use.
    """

    def __init__(self, system: AdmissibleSystem, states):
        states = tuple(states)
        _one_state_each(system, len(states))
        shape = system._family.shape
        if any(phi.shape != shape for phi in states):
            raise ValueError("state and element shapes differ")
        self.system = system
        self._densities = frozen(
            np.stack([phi.stacks[c] for phi in states], axis=1) for c in range(len(shape.classes))
        )

    @classmethod
    def _packed(cls, system: AdmissibleSystem, densities) -> "SeminormSpec":
        """The spec whose state i has the densities densities[c][:, i], (count, states, n, n).

        The states are validated together (`checked_states`), then their
        count, and the stacks, made read-only, are the spec's
        `_densities`.
        """
        _one_state_each(system, len(checked_states(system._family.shape, densities)))
        spec = object.__new__(cls)
        spec.system = system
        spec._densities = frozen(densities)
        return spec

    @property
    def _system(self) -> SampleSet:
        return self.system._family

    @functools.cached_property
    def states(self) -> tuple[State, ...]:
        """The states, whose stacks are read-only views of `_densities`."""
        shape = self._system.shape
        return tuple(
            stored(object.__new__(State), tuple(s[:, i] for s in self._densities), shape=shape)
            for i in range(len(self.system))
        )


def _one_state_each(system: AdmissibleSystem, count: int) -> None:
    if count != len(system):
        raise ValueError(
            f"need exactly one state per system element: {count} states for {len(system)} vectors"
        )


def state_values(spec: SeminormSpec, sample: SampleSet) -> np.ndarray:
    """The tensor V[p, k, i] = phi_k(<x_p, x_i>) of a sample, one pass per block.

    Each value is the same arithmetic as phi_k(inner_product(x_p, x_i)):
    per block, <x_p, x_i> is R(x_p)* R(x_i) on the stacked realizations
    and phi_k contributes trace(rho @ <x_p, x_i>); the blocks are added in
    order.  Here every pair comes out of one batched product per size
    class, and all densities of a block meet <x_p, x_i> in one product of
    their stacked (states*n, n) column, which gives each the bits of
    rho @ <x_p, x_i> in `State.__call__` (the stacked-left rule, README
    Storage).

    The trace of an n x n product is np.trace's arithmetic.  For n <= 2
    np.trace forms 0 + d0 and d1 + (0 + d0), the `ordered_sum` of the
    diagonal with one addition's operands swapped, which changes no bit
    but which of two NaN payloads is kept; the kernel skips the reduce
    over the strided diagonal.  From n = 3 on, the association of the
    reduce depends on the memory layout, so np.trace itself is kept.
    """
    system = spec._system
    traces = []
    stacks = sample.in_module(system.shape, system.dim)
    for s, y, rho in zip(stacks, system.realizations, spec._densities):
        count, points, _, n = s.shape
        ips = s.conj().swapaxes(-1, -2)[:, :, None] @ y[:, None]
        products = rho.reshape(count, -1, n)[:, None, None] @ ips
        products = products.reshape(count, points, len(system), len(system), n, n)
        if n <= 2:
            trace = ordered_sum(np.diagonal(products, axis1=-2, axis2=-1), -1)
        else:
            trace = np.trace(products, axis1=-2, axis2=-1)
        traces.append(trace.swapaxes(-1, -2))
    return block_sum(system.shape, traces)


# A (k, i) matrix of state values whose largest magnitude m > 0 lies outside
# [NU_LOW, NU_HIGH] is taken through m's binary exponent: its squares would
# leave the normal float range (NU_LOW^2 is the least normal double) or
# their sums could overflow.
NU_LOW, NU_HIGH = 2.0**-511, 2.0**500


def _nu(values: np.ndarray) -> np.ndarray:
    """nu over the last two axes (k, i) of state values: max_k sum_{i>=k} |.|^2.

    A matrix whose largest magnitude m > 0 lies outside [NU_LOW, NU_HIGH]
    is evaluated on its entries times 2^-e, e the binary exponent of m,
    and its nu is multiplied back by 2^e: both scalings are exact, and in
    exact arithmetic nu(2^e v) = 2^e nu(v).  Every other matrix, an
    all-zero one included, gets the plain formula's bits (its e is 0),
    and when no matrix needs the scaling the plain formula is all that
    runs.
    """
    # hypot and pow are the libm calls behind abs(complex) and float ** 2;
    # numpy's own complex abs and square can round differently.
    magnitudes = np.hypot(values.real, values.imag)
    top = magnitudes.max(axis=(-2, -1), initial=0.0)
    outside = (top > 0.0) & ((top < NU_LOW) | (top > NU_HIGH))
    if not outside.any():
        return _largest_tail(magnitudes)
    e = np.where(outside, np.frexp(top)[1], 0)
    shift = -e[..., None, None]
    scaled = np.hypot(np.ldexp(values.real, shift), np.ldexp(values.imag, shift))
    return np.ldexp(_largest_tail(scaled), e)


def _largest_tail(magnitudes: np.ndarray) -> np.ndarray:
    """sqrt(max_k sum_{i>=k} m_ki^2) over the last two axes of |state values|."""
    # The zeros below the diagonal leave an `ordered_sum` unchanged, so
    # each tail is the sum from i = k.
    squares = np.float_power(magnitudes, 2)
    tails = ordered_sums(np.triu(squares), -1)[..., -1]
    return np.sqrt(tails.max(axis=-1))


def seminorm_values(spec: SeminormSpec, sample: SampleSet) -> np.ndarray:
    """nu_{X,Phi} at every sample point, from one state-value tensor."""
    return _nu(state_values(spec, sample))


def seminorm_eval(spec: SeminormSpec, x: ModuleVector) -> float:
    """nu_{X,Phi}(x): the sup over k of the tail-l2 of state values.

    Bit-identical to summing abs(phi_k(inner_product(x, x_i)))**2 from
    i = k in index order and taking the square root of the largest sum.
    """
    return float(seminorm_values(spec, SampleSet((x,)))[0])


def pseudometric_eval(spec: SeminormSpec, x: ModuleVector, y: ModuleVector) -> float:
    """d_{X,Phi}(x,y) = nu_{X,Phi}(x-y); vanishing on x != y is allowed.

    Evaluated as nu(V[x] - V[y]) on state values, which equals nu(x-y)
    by linearity; it may differ from evaluating nu on the vector x - y
    only in the last bits.
    """
    values = state_values(spec, SampleSet((x, y)))
    return float(_nu(values[0] - values[1]))


# -- nets ----------------------------------------------------------------


def _greedy_net(values: np.ndarray, eps: float) -> list[int]:
    net = [0]
    dist = _nu(values - values[0])
    while True:
        far = int(np.argmax(dist))
        if below(dist[far], eps):
            return net
        net.append(far)
        dist = np.minimum(dist, _nu(values - values[far]))


def _covers(values: np.ndarray, centres: np.ndarray, radius: float) -> bool:
    if not len(centres):
        return not len(values)
    dist = _nu(values[:, None] - centres[None])
    return bool(below(dist.min(axis=1), radius).all())


def epsilon_net(sample: SampleSet, spec: SeminormSpec, eps: float) -> list[int]:
    """Greedy farthest-point net: indices into the sample.

    Seeded at the first point; while some point sits at distance >= eps
    from the net, the farthest one joins (first index on ties).  Every
    sample point ends strictly within eps of a net point, and net points
    are sample points, as the totally-bounded definition demands.

    Distances come from the state-value tensor, d(x_p, x_q) =
    nu(V[p] - V[q]) by linearity, so one greedy step is one array
    operation over the sample.  They may differ from nu(x_p - x_q) on
    the vector difference only in the last bits.
    """
    check_eps(eps)
    if not len(sample):
        return []
    return _greedy_net(state_values(spec, sample), eps)


def net_covers(sample: SampleSet, spec: SeminormSpec, net_indices, radius: float) -> bool:
    """Exhaustive check that every point is within `radius` of the net."""
    if not len(sample):
        return True
    values = state_values(spec, sample)
    return _covers(values, values[list(net_indices)], radius)


def _module_distances(sample: SampleSet, approx: SampleSet) -> np.ndarray:
    """||s_i - y_j|| for every pair: max over blocks of one batched spectral norm."""
    return np.concatenate(
        [
            spectral_norms(s[:, :, None] - a[:, None])
            for s, a in zip(sample.realizations, approx.in_module(sample.shape, sample.dim))
        ]
    ).max(axis=0)


def net_transfer(
    sample: SampleSet, approx: SampleSet, spec: SeminormSpec, eps: float
) -> list[int]:
    """Transfer a net from an eps-close set: indices of a 6*eps net in `sample`.

    Follows the constructive argument: build an eps-net of the
    approximating set, keep each net point that has a sample point within
    3*eps in the pseudometric, and return those sample points.  The
    precondition (each sample point within eps of `approx` in module
    norm) and the 6*eps cover of the output are both verified.
    """
    check_eps(eps)
    if not len(sample):
        return []
    if not len(approx):
        raise ValueError("the approximating set is empty")
    closest = _module_distances(sample, approx).min(axis=1)
    far = np.flatnonzero(~below(closest, eps))
    if far.size:
        i = int(far[0])
        raise ApproximationHypothesisError(i, float(closest[i]), eps)

    sample_values = state_values(spec, sample)
    approx_values = state_values(spec, approx)
    chosen: list[int] = []
    for j in _greedy_net(approx_values, eps):
        near = np.flatnonzero(below(_nu(sample_values - approx_values[j]), 3.0 * eps))
        if near.size and int(near[0]) not in chosen:
            chosen.append(int(near[0]))
    if not _covers(sample_values, sample_values[chosen], 6.0 * eps):
        raise AssertionError("6*eps cover failed; this contradicts the transfer argument")
    return chosen


# -- adversarial witness ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Constructed (X, Phi) pair plus the data certifying the separation.

    windows[i] = (lo, hi) is the coordinate window of x_i (python
    half-open, matching Q_hi - Q_lo); witness_indices[i] points at the
    sample element t_i with ||q t_i|| above threshold; attained[i] is
    |phi_i(<mu_i, q t_i>)|, which exceeds 3*delta/8 by construction.
    """

    spec: SeminormSpec
    witness_indices: tuple[int, ...]
    windows: tuple[tuple[int, int], ...]
    attained: tuple[float, ...]
    delta: float


def adversarial_witness(
    sample: SampleSet, prefix_schedule, delta: float
) -> WitnessReport:
    """Build the seminorm spec that obstructs total boundedness.

    For each consecutive window (j(i), j(i+1)] of the schedule, pick the
    first sample point t_i whose window part q t_i has norm above
    3*delta/4, set mu_i = q t_i / ||q t_i|| (supported in the window) and
    take a state phi_i attaining the norm of <mu_i, q t_i>.  That element
    is positive, so attainment is exact and |phi_i(...)| > 3*delta/4,
    comfortably above the 3*delta/8 the separation argument needs.  Any y
    whose tail past the window start is below delta/8 then satisfies
    d_{X,Phi}(t_i, y) >= 3*delta/8 - delta/8 = delta/4.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not len(sample):
        raise ValueError("empty sample")
    schedule = sorted(int(j) for j in prefix_schedule)
    if len(schedule) < 2:
        raise ValueError("the schedule needs at least two prefixes")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule prefixes must strictly increase")
    if schedule[0] < 0:
        raise ValueError("schedule prefixes must be non-negative")
    dim = sample.dim
    if schedule[-1] > dim:
        raise ValueError("schedule exceeds the module dimension")

    threshold = 0.75 * delta
    xs, states, idxs, windows, attained = [], [], [], [], []
    for lo, hi in zip(schedule, schedule[1:]):
        found = None
        best = 0.0
        for i, t in enumerate(sample.points):
            w = t.restrict(lo, hi)
            nw = w.norm()
            best = max(best, nw)
            if nw > threshold:
                found = (i, w, nw)
                break
        if found is None:
            raise TailDecaySignal((lo, hi), best, threshold)
        i, w, nw = found
        mu = w / nw
        pairing = inner_product(mu, w)
        phi = norm_attaining_state(pairing)
        val = abs(phi(pairing))
        if val <= 3.0 * delta / 8.0:
            raise AssertionError(
                "state failed to attain the pairing norm; "
                f"got {val:.6g} on a positive element of norm {pairing.norm():.6g}"
            )
        xs.append(mu)
        states.append(phi)
        idxs.append(i)
        windows.append((lo, hi))
        attained.append(val)

    spec = SeminormSpec(AdmissibleSystem(tuple(xs)), tuple(states))
    return WitnessReport(spec, tuple(idxs), tuple(windows), tuple(attained), delta)
