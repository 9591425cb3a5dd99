"""Planted route bugs: what the run-time coherence checks catch of twelve one-line mutants of src.

Run from the root of a checkout:

    python3 tools/mutants.py    # every mutant, then the kill matrix

Each mutant is one text substitution in one file of src/cstarframes
(`MUTANTS`), and each must apply exactly once (`mutated`), so the list
cannot rot silently when the source moves.  The mutants are those of
ROADMAP.md item 17: three in the C/D scan, three in condition B, two
in condition A, one in the d=>a replay, a C/D pass at `<=` with slack,
and two tolerance cuts a million times too coarse.

The corpus is the `precompact` commands of tools/reach.py's command
list.  The checkout itself runs first, then a copy of it without a
substitution, then each mutant on a copy with its one substitution
(`_plant`); every run is a fresh interpreter (`bytediff.run_tree`).
The kill matrix has one row per copy: how many commands report a
coherence violation (the run-time checks of `certify_equivalences`),
and how many differ from the checkout's run in exit code, and in
stdout or --out bytes.  The unmutated copy's row is the control: a
file the copy misses would show there as a changed command, and would
count as a kill for every mutant.  Exits 1 if a substitution does not
apply exactly once, or if the unmutated copy's row is not all zeros:
on the unmutated source every violation is a bug.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import bytediff

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cstarframes"

# name: (file of src/cstarframes, text, replacement)
MUTANTS = {
    "cd_no_conj": (
        "certify.py",
        "coeffs = gk[:, j, None].conj().swapaxes(-1, -2) @ xk",
        "coeffs = gk[:, j, None].swapaxes(-1, -2) @ xk",
    ),
    "cd_sign": (
        "certify.py",
        "residuals[c] = residuals[c] - zk[:, j, None] @ coeffs",
        "residuals[c] = residuals[c] + zk[:, j, None] @ coeffs",
    ),
    "cd_skip_pair": (
        "certify.py",
        "coeffs = gk[:, j, None].conj()",
        "coeffs = gk[:, j - 1, None].conj()",
    ),
    "b_drop_last_point": (
        "certify.py",
        "return profiles.max(axis=0, initial=0.0).tolist()",
        "return profiles[:-1].max(axis=0, initial=0.0).tolist()",
    ),
    "b_swap_dual": (
        "frames.py",
        "return prefix_tails(points, self._family, self._dual)",
        "return prefix_tails(points, self._dual, self._family)",
    ),
    "b_off_by_one": (
        "certify.py",
        "    n_stable = _settled_from(tails[:-1], eps)\n",
        "    n_stable = max(0, _settled_from(tails[:-1], eps) - 1)\n",
    ),
    "a_residual_half": (
        "certify.py",
        "        residuals,\n        norms[:, :s].tolist(),",
        "        [r / 2 for r in residuals],\n        norms[:, :s].tolist(),",
    ),
    "a_coeff_norm_x2": (
        "certify.py",
        "return np.concatenate((spectral_norms(per_coeff), whole), axis=-1)",
        "return np.concatenate((2 * spectral_norms(per_coeff), whole), axis=-1)",
    ),
    "replay_z_for_g": (
        "certify.py",
        "coefficients = frame_coefficients(gk[blocks], x)",
        "coefficients = frame_coefficients(zk[blocks], x)",
    ),
    "cd_eps_le": (
        "certify.py",
        "    achieved = _first_below(errors, eps)\n    profile",
        "    achieved = next((n for n, e in enumerate(errors) if e <= eps * (1 + 1e-12)), None)\n    profile",
    ),
    "span_drop_x1e6": ("tolerances.py", "SPAN_DROP_RTOL = 1e-9\n", "SPAN_DROP_RTOL = 1e-9 * 1e6\n"),
    "frame_rtol_x1e6": ("tolerances.py", "FRAME_RTOL = 1e-10\n", "FRAME_RTOL = 1e-10 * 1e6\n"),
}


def mutated(name: str, package: Path = PACKAGE) -> tuple[str, str]:
    """(file, source) of mutant `name`: its file's text with the substitution applied once.

    A text that does not occur exactly once raises ValueError.
    """
    filename, text, replacement = MUTANTS[name]
    source = (package / filename).read_text()
    count = source.count(text)
    if count != 1:
        raise ValueError(f"{name}: {filename} holds its text {count} times, not once")
    return filename, source.replace(text, replacement)


def _plant(tree: Path, name: str | None) -> Path:
    """A checkout at `tree` of what the command list reads, mutant `name` (if any) applied to its src.

    The copy holds the package, the tools, the benchmark's generator
    and the fixtures, so the command list and its paths are those of
    any checkout.
    """
    for part in ("src/cstarframes", "tools", "perfbench", "tests/fixtures"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    if name is not None:
        filename, source = mutated(name)
        (tree / "src" / "cstarframes" / filename).write_text(source)
    return tree


def kills(base: list[dict], runs: list[dict]) -> tuple[int, int, int]:
    """(commands with a violation, with another exit code, with other stdout or --out bytes) than `base`."""
    if [r["argv"] for r in runs] != [r["argv"] for r in base]:
        raise RuntimeError("the mutant ran another command list than the unmutated tree")
    flagged = sum(r["violations"] > 0 for r in runs)
    codes = sum(r["code"] != b["code"] for r, b in zip(runs, base))
    outputs = sum((r["stdout"], r["out"]) != (b["stdout"], b["out"]) for r, b in zip(runs, base))
    return flagged, codes, outputs


def main() -> int:
    for name in MUTANTS:
        try:
            mutated(name)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base = bytediff.run_tree(ROOT, work, "checkout", only="precompact")
        rows = []
        for name in (None, *MUTANTS):
            label = name or "unmutated"
            runs = bytediff.run_tree(_plant(work / label, name), work, label, only="precompact")
            rows.append((label, kills(base, runs)))
    print(f"\n{len(base)} precompact commands")
    print(f"{'mutant':<20} {'violations':>10} {'exit codes':>10} {'outputs':>10}")
    for name, (flagged, codes, outputs) in rows:
        print(f"{name:<20} {flagged:>10} {codes:>10} {outputs:>10}")
    return 1 if any(rows[0][1]) else 0


if __name__ == "__main__":
    sys.exit(main())
