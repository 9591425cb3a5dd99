"""Command-line dispatch: batch commands over JSON files.

Subcommands mirror the library surface: frame-bounds, dual, reconstruct,
seminorm, net, precompact, series, counterexample.  Exit codes follow
the certificate convention: 0 pass, 1 certified fail (or data error,
explained on stderr), 2 inconclusive within budget, 64 usage.  All
output is deterministic: JSON goes through the canonical serializer,
CSV floats through shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

from .certify import (
    CertifyConfig,
    certify_equivalences,
    check_condition_a,
    check_condition_b,
    check_condition_cd,
    free_submodule_check,
    series_decompose,
    tails_certificate,
)
from .counterexample import build_setting, coeff_growth, tail_obstruction
from .frames import standard_basis_frame
from .seminorms import epsilon_net, seminorm_values
from .serialization import parse, serialize, serialize_dual
from .tolerances import SERIES_EPS

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the sysexits usage code instead of its default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the subcommand parsers by name, built on first use and kept."""
    parser = _Parser(prog="cstarframes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("frame-bounds", help="print the optimal frame bounds of a frame file")
    p.add_argument("frame_file")

    p = sub.add_parser("dual", help="write the canonical dual frame")
    p.add_argument("frame_file")
    p.add_argument("--out", default=None)

    p = sub.add_parser("reconstruct", help="CSV of reconstruction tails per prefix")
    p.add_argument("frame_file")
    p.add_argument("vector_file")

    p = sub.add_parser("seminorm", help="CSV of seminorm values over a sample")
    p.add_argument("spec_file")
    p.add_argument("sample_file")

    p = sub.add_parser("net", help="greedy epsilon-net indices for a sample")
    p.add_argument("sample_file")
    p.add_argument("spec_file")
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("precompact", help="run a precompactness condition or all of them")
    p.add_argument("--condition", choices=("a", "b", "cd", "all", "free"), required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--rank-budget", type=int, default=None)
    p.add_argument("--frame", default=None)
    p.add_argument("--gens", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("series", help="theta-series decomposition of an operator")
    p.add_argument("operator_file")
    p.add_argument("--eps", type=float, default=SERIES_EPS)
    p.add_argument("--frame", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("counterexample", help="factorial-growth obstruction tables")
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of one job, each string read by one parser.

    When argv[0] names a command, that command's parser reads the rest,
    as the top-level parser would have handed it over, and leftovers are
    refused through the top-level parser as `parse_args` refuses them.
    Any other argv (empty, an option first, an unknown or abbreviated
    name) goes through the top-level parser, so help, usage lines and
    error messages are argparse's own either way.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _load(kind: str, path: str):
    return parse(kind, Path(path).read_bytes())


def _csv(header: str, rows) -> str:
    """A CSV table: the header line, then one line per row of reprs.

    Commands build every table before their first write, so a command
    that is refused part way prints nothing to stdout.
    """
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)])


def _emit(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        print(data.decode("utf-8"))


def _cmd_frame_bounds(args) -> int:
    c1, c2 = _load("frame", args.frame_file).bounds
    print(f"({c1:.12g},{c2:.12g})")
    return 0


def _cmd_dual(args) -> int:
    _emit(serialize_dual(_load("frame", args.frame_file)), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    frame = _load("frame", args.frame_file)
    x = _load("vector", args.vector_file)
    print(_csv("prefix,tail", enumerate(frame.tail_profile(x))))
    return 0


def _cmd_seminorm(args) -> int:
    spec = _load("seminorm_spec", args.spec_file)
    sample = _load("sample_set", args.sample_file)
    print(_csv("index,seminorm", enumerate(seminorm_values(spec, sample).tolist())))
    return 0


def _cmd_net(args) -> int:
    sample = _load("sample_set", args.sample_file)
    spec = _load("seminorm_spec", args.spec_file)
    print(_csv("net_index", ((i,) for i in epsilon_net(sample, spec, args.eps))))
    return 0


def _usage_error(message: str) -> int:
    print(f"cstarframes: error: {message}", file=sys.stderr)
    return USAGE_EXIT


def _cmd_precompact(args) -> int:
    sample = _load("sample_set", args.sample)
    frame = _load("frame", args.frame) if args.frame else None
    gens = _load("sample_set", args.gens) if args.gens else None

    if args.condition == "all":
        grid = (args.eps,) if args.eps is not None else CertifyConfig().eps_grid
        config = CertifyConfig(
            eps_grid=grid,
            frame=frame,
            generators=gens,
            rank_budget=args.rank_budget,
        )
        report = certify_equivalences(sample, config)
        _emit(serialize(report), args.out)
        return report.exit_code

    if args.eps is None:
        return _usage_error(f"--eps is required for --condition {args.condition}")
    if args.condition == "a":
        if gens is None:
            return _usage_error("--gens is required for --condition a")
        cert = check_condition_a(sample, gens, args.eps)
    elif args.condition == "b":
        if frame is None:
            if not len(sample):
                return _usage_error("--frame is required for an empty sample")
            frame = standard_basis_frame(sample.shape, sample.dim)
        cert = check_condition_b(sample, frame, args.eps)
    elif args.condition == "cd":
        cert = check_condition_cd(sample, args.eps, rank_budget=args.rank_budget, frame=frame)
    else:
        if gens is None:
            return _usage_error("--gens is required for --condition free")
        cert = free_submodule_check(sample, gens, args.eps)
    _emit(serialize(cert), args.out)
    return cert.exit_code


def _cmd_series(args) -> int:
    op = _load("operator", args.operator_file)
    frame = _load("frame", args.frame) if args.frame else None
    decomposition = series_decompose(op, frame=frame, eps=args.eps)
    _emit(serialize(decomposition), args.out)
    return 0 if decomposition.achieved_rank is not None else 1


def _cmd_counterexample(args) -> int:
    setting = build_setting(args.trunc, args.dim)
    growth = _csv("k,required_norm", coeff_growth(setting, args.eps))
    tails = _csv("prefix,tail", ((n, tail_obstruction(setting, n)) for n in range(setting.dim)))
    cert = tails_certificate(setting.witness_profiles(), args.eps)
    if args.out:
        _emit(serialize(cert), args.out)
    print(growth)
    print(tails)
    return cert.exit_code


_COMMANDS = {
    "frame-bounds": _cmd_frame_bounds,
    "dual": _cmd_dual,
    "reconstruct": _cmd_reconstruct,
    "seminorm": _cmd_seminorm,
    "net": _cmd_net,
    "precompact": _cmd_precompact,
    "series": _cmd_series,
    "counterexample": _cmd_counterexample,
}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    if args.command is None:
        return _usage_error("a subcommand is required (see --help)")
    # A command builds acyclic trees of small objects (decoded JSON lists,
    # arrays, result tuples) that reference counting frees; the cyclic
    # collector's passes over them collect nothing.  So it is paused while
    # the command runs and left as it was found.  The library itself
    # never touches it: that would be a side effect on embedding programs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"cstarframes: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
