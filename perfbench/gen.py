"""Seeded input generator for the cstarframes benchmark.

Uses only numpy and json: the library under test never shapes its own
inputs.  Every document is written straight in the JSON schema the CLI
reads, so the parent commit and a change get byte-identical files for
one seed.  `generate` returns the job list of one round of a workload;
each job carries the argv for `cstarframes.cli.main`, the exit code it
must return, and the data the independent checker needs.

Sizes are fixed per workload and only values come from the seed, so the
work in a round hardly depends on the seed.  Each round holds 25 jobs,
and the sizes are chosen so that the median and the 90th percentile over
a run's jobs fall inside a group of jobs of one size, never between two.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from check import frame_operator, greedy_net, nu_from_values, realize, state_values, vector_norm

WORKLOADS = ("obstruction", "certify_mixed", "nets", "frames_io")


@dataclass
class Job:
    """One CLI invocation with what its output must satisfy."""

    argv: list[str]
    expect: int
    kind: str
    data: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)


# -- schema writers -----------------------------------------------------------


def _cplx(z) -> list:
    return [float(z.real), float(z.imag)]


def _vector_payload(blocks) -> list:
    """blocks[k] has shape (dim, n_k, n_k): coordinate i's k-th block."""
    dim = blocks[0].shape[0]
    return [
        [[[_cplx(z) for z in row] for row in b[i]] for b in blocks]
        for i in range(dim)
    ]


def _state_payload(densities) -> list:
    return [[[_cplx(z) for z in row] for row in d] for d in densities]


def _dumps(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _doc(kind: str, shape, **fields) -> dict:
    return {"version": 1, "kind": kind, "shape": list(shape), **fields}


def _cgauss(rng, size, scale=1.0):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def _vector(rng, shape, dim, scale=1.0):
    return [_cgauss(rng, (dim, n, n), scale) for n in shape]


def _unit_ball(rng, shape, dim):
    x = _vector(rng, shape, dim)
    nx = vector_norm(x)
    return [b / nx for b in x] if nx > 1.0 else x


def _density(rng, n, weight):
    a = _cgauss(rng, (n, n))
    d = a @ a.conj().T + 1e-3 * np.eye(n)
    d = (d + d.conj().T) / 2.0
    return d * (weight / float(np.trace(d).real))


def _state(rng, shape):
    w = rng.uniform(0.2, 1.0, len(shape))
    w /= w.sum()
    return [_density(rng, n, float(wk)) for n, wk in zip(shape, w)]


class _Writer:
    """Writes input files into one directory and records their bytes."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, bytes] = {}

    def put(self, name: str, doc: dict) -> str:
        data = _dumps(doc)
        (self.root / name).write_bytes(data)
        self.files[name] = data
        return str(self.root / name)

    def out(self, name: str) -> str:
        return str(self.root / name)


# -- workloads ----------------------------------------------------------------

# obstruction: (trunc, dim) per job of a round; 25 jobs.  The trunc-12
# job is the scaling case and takes most of the round; the many trunc-4
# jobs keep the round near 5 s, so a run holds at least four copies of
# every job.  The four trunc-8 jobs hold ranks 21-24 of 25, so the 90th
# percentile falls well inside their group, not at its edge.
_OBSTRUCTION_ROUND = [(4, 4)] * 19 + [(12, 6)] + [(8, 8)] * 4 + [(12, 12)]


def _obstruction(rng, w: _Writer) -> list[Job]:
    jobs = []
    for trunc, dim in _OBSTRUCTION_ROUND:
        eps = round(float(rng.uniform(0.1, 0.9)), 4)
        argv = ["counterexample", "--trunc", str(trunc), "--eps", repr(eps)]
        if dim != trunc:
            argv += ["--dim", str(dim)]
        jobs.append(Job(argv, 1, "counterexample", {"eps": eps, "dim": dim}))
    return jobs


# certify_mixed: planted (shape, dim, points, prefix) cases, exit 0, then
# single-generator obstruction witnesses of size n, exit 1; 25 jobs.  The
# prefix is fixed, not seeded, because the rank condition C/D reaches
# depends on it.
# The two middle cases appear twice (with fresh values), so that the four
# runs of similar size hold ranks 21-24 of 25 and the 90th percentile
# falls well inside their group.
_PLANTED = [
    ((1, 2), 4, 8, 2), ((1, 2, 3), 4, 12, 2), ((2, 2), 6, 8, 3),
    ((1, 2, 3), 4, 12, 2), ((2, 2), 6, 8, 3), ((1, 1, 2), 5, 16, 2),
]
# most witnesses have n = 5, so the median job sits inside that group
_WITNESS_SIZES = (4,) * 4 + (5,) * 11 + (6,) * 4


def _certify_mixed(rng, w: _Writer) -> list[Job]:
    jobs = []
    for c, (shape, dim, count, prefix) in enumerate(_PLANTED):
        points = []
        for _ in range(count):
            x = _vector(rng, shape, dim, 0.4)
            for b in x:
                b[prefix:] = 0.0
            points.append(x)
        path = w.put(
            f"planted_{c}.json",
            _doc("sample_set", shape, points=[_vector_payload(p) for p in points]),
        )
        argv = ["precompact", "--condition", "all", "--sample", path]
        jobs.append(Job(argv, 0, "planted", {"points": points}))
    for c, n in enumerate(_WITNESS_SIZES):
        shape = (1,) * (n + 1)
        eps = round(float(rng.uniform(0.2, 0.65)), 4)
        witnesses = []
        for k in range(n):
            x = [np.zeros((n, 1, 1), complex) for _ in shape]
            x[k][k, 0, 0] = 1.0
            witnesses.append(x)
        gen = [np.zeros((n, 1, 1), complex) for _ in shape]
        for k in range(1, n + 1):
            gen[k - 1][k - 1, 0, 0] = 1.0 / math.factorial(k)
        sample = w.put(
            f"witnesses_{c}.json",
            _doc("sample_set", shape, label="witnesses",
                 points=[_vector_payload(x) for x in witnesses]),
        )
        gens = w.put(f"generator_{c}.json", _doc("sample_set", shape, points=[_vector_payload(gen)]))
        argv = [
            "precompact", "--condition", "all", "--sample", sample, "--gens", gens,
            "--eps", repr(eps), "--rank-budget", str(n - 1),
        ]
        jobs.append(Job(argv, 1, "witness", {"n": n, "eps": eps}))
    return jobs


# nets: (shape, system size) per spec; each spec gets one seminorm job and
# net jobs at four radii chosen for fixed net sizes; 25 jobs.
_NET_SPECS = [((1, 2), 4), ((1, 2, 3), 5), ((2, 2), 6), ((1, 2), 6), ((2, 2), 4)]
_NET_DIM = 3
_NET_POINTS = 64
_NET_SIZES = (3, 4, 5, 6)


def _admissible_system(rng, shape, dim, size):
    """Random system scaled so that sum_i theta_{x_i,x_i} <= 0.9 * Id."""
    vecs = [_vector(rng, shape, dim) for _ in range(size)]
    top = max(float(np.linalg.eigvalsh(s).max()) for s in frame_operator(vecs))
    scale = np.sqrt(0.9 / top)
    return [[b * scale for b in v] for v in vecs]


def _nets(rng, w: _Writer) -> list[Job]:
    jobs = []
    for c, (shape, size) in enumerate(_NET_SPECS):
        system = _admissible_system(rng, shape, _NET_DIM, size)
        states = [_state(rng, shape) for _ in range(size)]
        points = [_unit_ball(rng, shape, _NET_DIM) for _ in range(_NET_POINTS)]
        spec = w.put(
            f"spec_{c}.json",
            _doc("seminorm_spec", shape,
                 system=[_vector_payload(v) for v in system],
                 states=[_state_payload(s) for s in states]),
        )
        sample = w.put(
            f"net_sample_{c}.json",
            _doc("sample_set", shape, points=[_vector_payload(p) for p in points]),
        )
        values = state_values(points, system, states)
        data = {"values": values, "nu": nu_from_values(values)}
        jobs.append(Job(["seminorm", spec, sample], 0, "seminorm", data))
        for target in _NET_SIZES:
            eps = _net_eps(values, target)
            jobs.append(Job(["net", sample, spec, "--eps", repr(eps)], 0, "net",
                            dict(data, eps=eps)))
    return jobs


def _net_eps(values, target: int) -> float:
    """Radius giving a greedy net of `target` points, centred in its gap.

    The greedy farthest-point net grows while the farthest remaining point
    sits at distance >= eps.  Its sequence of farthest distances m_s falls
    with the net size s; any eps in (m_target, m_(target-1)] stops it at
    `target` points, so the net size, and the work in a net job, is the
    same for every seed.  The gap must be wide enough that rounding in
    the program cannot move the cut.
    """
    while True:
        far = greedy_net(values, 0.0, limit=target + 1)[1]
        hi, lo = far[target - 2], far[target - 1]
        if hi - lo > 1e-6 * hi:
            return float(np.sqrt(hi * lo)) if lo > 0 else hi / 2.0
        target += 1


# frames_io: (dim, size) per frame over shape (2, 3, 4); every frame gets
# frame-bounds, dual --out, two reconstructs and series --out; 25 jobs.
_FRAME_SHAPE = (2, 3, 4)
_FRAMES = [(2, 4), (3, 8), (4, 12), (6, 18), (8, 24)]


def _frame(rng, shape, dim, size):
    while True:
        vecs = [_vector(rng, shape, dim) for _ in range(size)]
        if min(float(np.linalg.eigvalsh(s).min()) for s in frame_operator(vecs)) > 1e-3:
            return vecs


def _frames_io(rng, w: _Writer) -> list[Job]:
    jobs = []
    shape = _FRAME_SHAPE
    for c, (dim, size) in enumerate(_FRAMES):
        vecs = _frame(rng, shape, dim, size)
        frame = w.put(
            f"frame_{c}.json",
            _doc("frame", shape, spanning="ambient", vectors=[_vector_payload(v) for v in vecs]),
        )
        data = {"frame": vecs}
        jobs.append(Job(["frame-bounds", frame], 0, "frame_bounds", data))
        dual_out = w.out(f"dual_{c}.json")
        jobs.append(Job(["dual", frame, "--out", dual_out], 0, "dual", data, [dual_out]))
        for r in range(2):
            x = _vector(rng, shape, dim)
            vec = w.put(f"vector_{c}_{r}.json", _doc("vector", shape, coords=_vector_payload(x)))
            jobs.append(Job(["reconstruct", frame, vec], 0, "reconstruct", dict(data, x=x)))
        op = _theta(_vector(rng, shape, dim), _vector(rng, shape, dim))
        for _ in range(int(rng.integers(1, dim))):
            op = [a + b for a, b in zip(op, _theta(_vector(rng, shape, dim), _vector(rng, shape, dim)))]
        entries = [
            [[[[_cplx(z) for z in row] for row in op[k][i * n:(i + 1) * n, j * n:(j + 1) * n]]
              for k, n in enumerate(shape)] for j in range(dim)]
            for i in range(dim)
        ]
        opfile = w.put(f"operator_{c}.json", _doc("operator", shape, entries=entries))
        series_out = w.out(f"series_{c}.json")
        jobs.append(Job(["series", opfile, "--frame", frame, "--out", series_out], 0,
                        "series", dict(data, op=op), [series_out]))
    return jobs


def _theta(x, y):
    """Realized blocks of theta_{x,y}: z -> x <y, z>, i.e. R_k(x) R_k(y)^*."""
    return [realize(x, k) @ realize(y, k).conj().T for k in range(len(x))]


_BUILDERS = {
    "obstruction": _obstruction,
    "certify_mixed": _certify_mixed,
    "nets": _nets,
    "frames_io": _frames_io,
}


def generate(workload: str, seed: int, root: Path) -> tuple[list[Job], str]:
    """Write the inputs of one round into `root`; return the jobs and a digest.

    The digest covers every written file and every job's argv with the
    directory replaced by a placeholder, so two checkouts can compare it.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    root.mkdir(parents=True, exist_ok=True)
    w = _Writer(root)
    jobs = _BUILDERS[workload](rng, w)
    h = hashlib.sha256()
    for name in sorted(w.files):
        h.update(name.encode() + b"\0" + w.files[name] + b"\0")
    prefix = str(root) + "/"
    for job in jobs:
        h.update(json.dumps([a.replace(prefix, "@/") for a in job.argv]).encode())
    return jobs, h.hexdigest()
