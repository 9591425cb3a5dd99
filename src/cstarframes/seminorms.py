"""Admissible systems, the seminorm family, epsilon-nets, and witnesses.

An admissible system X = {x_i} (norms at most one, gram sum dominated by
<x,x>) together with states Phi = {phi_k} defines

    nu_{X,Phi}(x)^2 = max_k sum_{i>=k} |phi_k(<x, x_i>)|^2

and the pseudometric d_{X,Phi}(x,y) = nu_{X,Phi}(x-y).  Total boundedness
of finite sample sets under these pseudometrics is checked with greedy
nets; the adversarial construction turns slow coordinate-tail decay into
a witness pair (X, Phi) separating points at a quantified distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import State, norm_attaining_state
from .modules import ModuleOperator, ModuleVector, inner_product, theta_op


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


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite labelled family of vectors in a common module."""

    points: tuple[ModuleVector, ...]
    label: str = ""

    def __post_init__(self):
        points = tuple(self.points)
        if points:
            first = points[0]
            for p in points:
                first._require_compatible(p)
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def shape(self):
        return self.points[0].shape if self.points else None

    @property
    def dim(self):
        return self.points[0].dim if self.points else None


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    max_norm: float
    gram_slack: float
    bad_norm_index: int | None = None
    bad_probe_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def admissible_check(vectors, probes: SampleSet | None = None, tol: float = 1e-8) -> AdmissibilityReport:
    """Decide admissibility of a candidate system.

    Norm condition: ||x_i|| <= 1 + tol for every i.  Gram condition: the
    operator inequality sum_i <x,x_i><x_i,x> <= <x,x> for every x, which
    over A^n is exactly lambda_min(Id - Theta*Theta) >= -tol on the
    realization.  Probe points, when given, are rechecked individually so
    a failure can name the offending probe.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("empty system")
    max_norm, bad_norm = 0.0, None
    for i, v in enumerate(vectors):
        nv = v.norm()
        if nv > max_norm:
            max_norm = nv
        if nv > 1.0 + tol and bad_norm is None:
            bad_norm = i

    shape, dim = vectors[0].shape, vectors[0].dim
    theta = ModuleOperator(
        shape, tuple(tuple(c.adjoint() for c in v.coords) for v in vectors)
    )
    gram = theta.adjoint() @ theta
    ident = ModuleOperator.identity(shape, dim)
    defect = ident - gram
    slack = min(
        float(np.linalg.eigvalsh(
            (lambda m: (m + m.conj().T) / 2.0)(defect.realize_block(k))
        ).min())
        for k in range(shape.num_blocks)
    )

    bad_probe = None
    if probes is not None:
        for j, x in enumerate(probes.points):
            lhs = inner_product(x, x)
            for v in vectors:
                ip = inner_product(x, v)
                lhs = lhs - ip * ip.adjoint()
            if lhs.min_eigenvalue() < -tol * max(1.0, x.norm()) ** 2:
                bad_probe = j
                break

    ok = bad_norm is None and slack >= -tol and bad_probe is None
    return AdmissibilityReport(ok, max_norm, slack, bad_norm, bad_probe)


@dataclass(frozen=True, eq=False)
class AdmissibleSystem:
    """Validated admissible system; construction rejects violators."""

    vectors: tuple[ModuleVector, ...]
    tol: float = field(default=1e-8, compare=False)

    def __post_init__(self):
        vectors = tuple(self.vectors)
        report = admissible_check(vectors, tol=self.tol)
        if not report:
            raise ValueError(
                "system is not admissible "
                f"(max norm {report.max_norm:.6g}, gram slack {report.gram_slack:.3e})"
            )
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class SeminormSpec:
    """A pair (X, Phi): one state per system index."""

    system: AdmissibleSystem
    states: tuple[State, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) != len(self.system):
            raise ValueError(
                f"need exactly one state per system element: "
                f"{len(states)} states for {len(self.system)} vectors"
            )
        object.__setattr__(self, "states", states)


def seminorm_eval(spec: SeminormSpec, x: ModuleVector) -> float:
    """nu_{X,Phi}(x): the sup over k of the tail-l2 of state values."""
    ips = [inner_product(x, xi) for xi in spec.system.vectors]
    best = 0.0
    for k, phi in enumerate(spec.states):
        acc = 0.0
        for i in range(k, len(ips)):
            acc += abs(phi(ips[i])) ** 2
        best = max(best, acc)
    return math.sqrt(best)


def pseudometric_eval(spec: SeminormSpec, x: ModuleVector, y: ModuleVector) -> float:
    """d_{X,Phi}(x,y) = nu_{X,Phi}(x-y); vanishing on x != y is allowed."""
    return seminorm_eval(spec, x - y)


# -- nets ----------------------------------------------------------------


def epsilon_net(sample: SampleSet, spec: SeminormSpec, eps: float) -> list[int]:
    """Greedy farthest-point net: indices into the sample.

    Seeded at the first point; while some point sits at distance >= eps
    from the net, the farthest one joins (first index on ties).  Every
    sample point ends strictly within eps of a net point, and net points
    are sample points, as the totally-bounded definition demands.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = sample.points
    if not pts:
        return []
    net = [0]
    dist = np.array([pseudometric_eval(spec, p, pts[0]) for p in pts])
    while True:
        far = int(np.argmax(dist))
        if dist[far] < eps:
            return net
        net.append(far)
        new = np.array([pseudometric_eval(spec, p, pts[far]) for p in pts])
        dist = np.minimum(dist, new)


def net_covers(sample: SampleSet, spec: SeminormSpec, net_indices, radius: float) -> bool:
    """Exhaustive check that every point is within `radius` of the net."""
    idx = list(net_indices)
    if not idx:
        return len(sample) == 0
    for p in sample.points:
        if min(pseudometric_eval(spec, p, sample.points[j]) for j in idx) >= radius:
            return False
    return True


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
    for i, s in enumerate(sample.points):
        d = min((s - y).norm() for y in approx.points)
        if d >= eps:
            raise ApproximationHypothesisError(i, d, eps)

    net = epsilon_net(approx, spec, eps)
    chosen: list[int] = []
    for j in net:
        yj = approx.points[j]
        for i, s in enumerate(sample.points):
            if pseudometric_eval(spec, s, yj) < 3.0 * eps:
                if i not in chosen:
                    chosen.append(i)
                break
    if not net_covers(sample, spec, chosen, 6.0 * eps):
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
    if not sample.points:
        raise ValueError("empty sample")
    schedule = sorted(int(j) for j in prefix_schedule)
    if len(schedule) < 2:
        raise ValueError("the schedule needs at least two prefixes")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule prefixes must strictly increase")
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
