"""Independent output checks for the cstarframes benchmark.

Nothing here imports the library: every expected value is recomputed
from the generated inputs with numpy, Python integers or the JSON text
itself.  A vector is a list over blocks k of arrays of shape
(dim, n_k, n_k); its realization R_k(x) stacks the k-th blocks of its
coordinates, so <x, y> restricted to block k is R_k(x)^* R_k(y).

`check(job, code, stdout, files)` returns None when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

RTOL = 1e-9


# -- numpy reference ------------------------------------------------------


def realize(vec, k):
    b = vec[k]
    return b.reshape(b.shape[0] * b.shape[1], b.shape[2])


def vector_norm(vec) -> float:
    return max(float(np.linalg.norm(realize(vec, k), 2)) for k in range(len(vec)))


def state_values(points, system, states) -> np.ndarray:
    """V[p, i, s] = phi_s(<x_p, x_i>), linear in the point x_p."""
    out = 0.0
    for k in range(len(system[0])):
        rho = np.array([s[k] for s in states])              # (S, n, n)
        sys_k = np.array([realize(v, k) for v in system])     # (I, d*n, n)
        pts_k = np.array([realize(p, k) for p in points])     # (P, d*n, n)
        ip = np.einsum("prq,irt->piqt", pts_k.conj(), sys_k)  # <x_p, x_i>_k
        out = out + np.einsum("sab,piba->pis", rho, ip)
    return out


def nu_from_values(values) -> np.ndarray:
    """nu(x)^2 = max_s sum_{i >= s} |phi_s(<x, x_i>)|^2, per row of values."""
    sq = np.abs(values) ** 2                                  # (P, I, S)
    count = sq.shape[1]
    tails = np.stack([sq[:, s:, s].sum(axis=1) for s in range(count)], axis=1)
    return np.sqrt(tails.max(axis=1))


def pseudometric_row(values, j) -> np.ndarray:
    """d(x_p, x_j) for every p: nu is evaluated on x_p - x_j."""
    return nu_from_values(values - values[j])


def greedy_net(values, eps: float, limit: int | None = None):
    """Greedy farthest-point net and the farthest distance after each step."""
    net = [0]
    dist = pseudometric_row(values, 0)
    farthest = []
    while limit is None or len(net) < limit:
        far = int(np.argmax(dist))
        farthest.append(float(dist[far]))
        if dist[far] < eps:
            break
        net.append(far)
        dist = np.minimum(dist, pseudometric_row(values, far))
    return net, farthest


def frame_operator(frame):
    """S_k = sum_j R_k(x_j) R_k(x_j)^* per block."""
    return [
        sum(realize(v, k) @ realize(v, k).conj().T for v in frame)
        for k in range(len(frame[0]))
    ]


def dual_frame(frame):
    inv = [np.linalg.inv(s) for s in frame_operator(frame)]
    return [[(inv[k] @ realize(v, k)).reshape(v[k].shape) for k in range(len(v))] for v in frame]


def prefix_projections(frame, dual):
    """P_n realized per block for n = 0..size: sum_{j<n} R_k(x_j) R_k(g_j)^*."""
    out = []
    for k in range(len(frame[0])):
        acc = np.zeros((realize(frame[0], k).shape[0],) * 2, complex)
        per_n = [acc.copy()]
        for x, g in zip(frame, dual):
            acc = acc + realize(x, k) @ realize(g, k).conj().T
            per_n.append(acc.copy())
        out.append(per_n)
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1.0)


# -- JSON payload readers -------------------------------------------------


def vector_from_payload(payload, shape):
    return [
        np.array([[[complex(*c) for c in row] for row in coord[k]] for coord in payload])
        .reshape(len(payload), n, n)
        for k, n in enumerate(shape)
    ]


def _csv(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"missing CSV header {header!r}")
    return [line.split(",") for line in lines[1:]]


# -- per-job checks ---------------------------------------------------------


def _counterexample(job, stdout, files):
    eps, dim = job.data["eps"], job.data["dim"]
    lines = stdout.splitlines()
    split = lines.index("prefix,tail")
    if lines[0] != "k,required_norm" or len(lines[1:split]) != dim:
        return "required-norm table has the wrong shape"
    one_minus = 1 - Fraction(eps)
    factorial = 1
    for k, line in enumerate(lines[1:split], start=1):
        factorial *= k
        name, value = line.split(",")
        exact = one_minus * factorial
        if int(name) != k or abs(Fraction(float(value)) - exact) > exact * Fraction(1, 10**12):
            return f"required norm at k={k} is {value}, expected (1-eps)*k! = {float(exact)!r}"
    tails = lines[split + 1:]
    if len(tails) != dim:
        return "tail table has the wrong length"
    for n, line in enumerate(tails):
        if line != f"{n},1.0":
            return f"tail row {line!r} is not exactly 1.0"
    return None


def _entries(stdout):
    doc = json.loads(stdout)
    if doc.get("kind") != "equivalence_report":
        raise ValueError("not an equivalence report")
    return doc["entries"]


def _planted(job, stdout, files):
    points = job.data["points"]
    blocks = len(points[0])
    dim = points[0][0].shape[0]
    # standard-basis tails: the norm of each point's coordinates from n on
    tails = [
        max(max(float(np.linalg.norm(realize([b[n:] for b in p], k), 2)) if n < dim else 0.0
                for k in range(blocks)) for p in points)
        for n in range(dim + 1)
    ]
    for entry in _entries(stdout):
        if entry["violations"]:
            return f"coherence violations at eps={entry['eps']}: {entry['violations'][0]}"
        for cond in ("a", "a_scaled", "b", "cd"):
            if entry[cond]["verdict"] != "pass":
                return f"condition {cond} fails on a planted sample at eps={entry['eps']}"
        got = entry["b"]["diagnostics"]["tail_profile"]
        if len(got) != dim + 1 or not all(_close(a, b) for a, b in zip(got, tails)):
            return f"condition b tail profile {got} differs from {tails}"
        n_stable = max((n + 1 for n in range(dim) if tails[n] >= entry["eps"]), default=0)
        if entry["b"]["witness"]["N"] != n_stable:
            return f"condition b reports N={entry['b']['witness']['N']}, expected {n_stable}"
    return None


def _witness(job, stdout, files):
    n = job.data["n"]
    (entry,) = _entries(stdout)
    if entry["violations"]:
        return f"coherence violations: {entry['violations'][0]}"
    if entry["b"]["verdict"] != "fail":
        return "condition b passes on the obstruction witnesses"
    if entry["b"]["diagnostics"]["tail_profile"] != [1.0] * n + [0.0]:
        return "witness tail profile is not n ones then zero"
    if not entry["cd"]["budget_exhausted"] or entry["cd"]["verdict"] != "fail":
        return "condition cd is not budget-exhausted at rank n-1"
    bound = entry["a"].get("coefficient_bound")
    if entry["a"]["verdict"] != "pass" or bound is None or not _close(bound, math.factorial(n)):
        return f"condition a coefficient bound {bound} is not n! = {math.factorial(n)}"
    return None


def _seminorm(job, stdout, files):
    rows = _csv(stdout, "index,seminorm")
    nu = job.data["nu"]
    if len(rows) != len(nu):
        return "seminorm table has the wrong length"
    for i, (idx, value) in enumerate(rows):
        if int(idx) != i or not _close(float(value), float(nu[i])):
            return f"seminorm of point {i} is {value}, reference {nu[i]!r}"
    return None


def _net(job, stdout, files):
    values, eps = job.data["values"], job.data["eps"]
    net = [int(r[0]) for r in _csv(stdout, "net_index")]
    if not net or net[0] != 0 or len(set(net)) != len(net):
        return "net must start at point 0 and repeat no index"
    if not all(0 <= j < len(values) for j in net):
        return "net index out of range"
    for a, j in enumerate(net[1:], start=1):
        if min(pseudometric_row(values, i)[j] for i in net[:a]) < eps * (1 - RTOL):
            return f"net point {j} lies within eps of an earlier net point"
    cover = np.min([pseudometric_row(values, j) for j in net], axis=0)
    if cover.max() >= eps:
        return f"net misses a point at distance {cover.max():.6g} >= eps"
    return None


def _frame_bounds(job, stdout, files):
    eig = [np.linalg.eigvalsh(s) for s in frame_operator(job.data["frame"])]
    c1 = min(float(w.min()) for w in eig)
    c2 = max(float(w.max()) for w in eig)
    text = stdout.strip()
    if not (text.startswith("(") and text.endswith(")")):
        return "frame bounds are not printed as (c1,c2)"
    got = [float(v) for v in text[1:-1].split(",")]
    if not (_close(got[0], c1) and _close(got[1], c2)):
        return f"frame bounds {got} differ from gram eigenvalues ({c1!r}, {c2!r})"
    return None


def _dual(job, stdout, files):
    frame = job.data["frame"]
    doc = json.loads(files[0])
    shape = doc["shape"]
    dual = [vector_from_payload(v, shape) for v in doc["vectors"]]
    if doc["kind"] != "frame" or len(dual) != len(frame):
        return "dual is not a frame of the same size"
    for k, s in enumerate(frame_operator(frame)):
        recon = sum(realize(x, k) @ realize(g, k).conj().T for x, g in zip(frame, dual))
        if np.abs(recon - np.eye(s.shape[0])).max() > 1e-8:
            return f"dual frame does not reconstruct on block {k}"
        for x, g in zip(frame, dual):
            if np.abs(s @ realize(g, k) - realize(x, k)).max() > 1e-8 * max(1.0, np.abs(s).max()):
                return f"dual vector is not S^-1 x_j on block {k}"
    return None


def _reconstruct(job, stdout, files):
    frame, x = job.data["frame"], job.data["x"]
    proj = prefix_projections(frame, dual_frame(frame))
    rows = _csv(stdout, "prefix,tail")
    if len(rows) != len(frame) + 1:
        return "tail table has the wrong length"
    scale = vector_norm(x)
    for n, (idx, value) in enumerate(rows):
        want = max(
            float(np.linalg.norm(realize(x, k) - proj[k][n] @ realize(x, k), 2))
            for k in range(len(x))
        )
        if int(idx) != n or abs(float(value) - want) > 1e-8 * scale:
            return f"tail at prefix {n} is {value}, reference {want!r}"
    return None


def _series(job, stdout, files):
    frame, op = job.data["frame"], job.data["op"]
    doc = json.loads(files[0])
    errors = doc["errors"]
    proj = prefix_projections(frame, dual_frame(frame))
    scale = max(float(np.linalg.norm(t, 2)) for t in op)
    if len(errors) != len(frame) + 1 or doc["rank_count"] != len(frame):
        return "series has the wrong length"
    for n, err in enumerate(errors):
        want = max(float(np.linalg.norm(t - p[n] @ t, 2)) for t, p in zip(op, proj))
        if abs(err - want) > 1e-8 * scale:
            return f"series error at rank {n} is {err!r}, reference {want!r}"
    if not errors[-1] <= 1e-9:
        return f"last series error {errors[-1]!r} exceeds eps 1e-9"
    first = next((n for n, e in enumerate(errors) if e < 1e-9), None)
    if doc["achieved_rank"] != first:
        return f"achieved rank {doc['achieved_rank']} is not the first rank below eps"
    return None


_CHECKS = {
    "counterexample": _counterexample,
    "planted": _planted,
    "witness": _witness,
    "seminorm": _seminorm,
    "net": _net,
    "frame_bounds": _frame_bounds,
    "dual": _dual,
    "reconstruct": _reconstruct,
    "series": _series,
}


def check(job, code: int, stdout: str, files: list[bytes]) -> str | None:
    if code != job.expect:
        return f"exit code {code}, expected {job.expect}"
    try:
        return _CHECKS[job.kind](job, stdout, files)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"
