"""Command-line front end.

Subcommands:

    ringmix run --config exp.ini [--out DIR] [--seed N] [--trials N] [--quiet]
    ringmix verify-bounds [--seed N] [--trials N] [--quiet]
    ringmix spectral L [L ...]

Exit codes: 0 success, 1 invalid invocation, configuration (including a
value the library rejects) or file access, 2 at least one training cell
diverged, 3 a consensus bound check failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config, with_overrides
from .harness import run_sweep, verify_bounds
from .spectral import second_eigenvalue_ring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_BOUNDS = 3


class _Diverged(Exception):
    """Training cells diverged; `main` reports it and exits EXIT_DIVERGED."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; that code is reserved for divergence
    # here, so usage errors are routed through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ringmix",
        description=(
            "Decentralized SGD simulation on ring topologies: run experiment "
            "sweeps, verify consensus bounds, inspect mixing spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep described by a config file")
    run_p.add_argument("--config", required=True, help="path to an INI experiment config")
    run_p.add_argument("--out", default="sweep_out", help="output directory (default: sweep_out)")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--trials", type=int, default=None, help="override the trial count")
    run_p.add_argument("--quiet", action="store_true", help="suppress per-cell progress lines")

    vb = sub.add_parser("verify-bounds", help="check consensus decay against analytic envelopes")
    vb.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default: 0)")
    vb.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials (default: 1000)")
    vb.add_argument("--quiet", action="store_true", help="print only the overall verdict")

    sp = sub.add_parser("spectral", help="print rho and spectral gap for ring sizes")
    sp.add_argument("learners", nargs="+", type=int, help="ring sizes (each >= 3)")
    return parser


def _cmd_run(args) -> int:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = parse_config(path.read_text(encoding="utf-8"))
    cfg = with_overrides(cfg, master_seed=args.seed, trials=args.trials)
    result = run_sweep(cfg, args.out, quiet=args.quiet)
    n_div = sum(c.diverged for c in result.cells)
    if not args.quiet:
        print(f"wrote {len(result.cells)} cell traces to {result.out_dir}")
    if n_div:
        raise _Diverged(f"{n_div} of {len(result.cells)} cells diverged")
    return EXIT_OK


def _cmd_verify_bounds(args) -> int:
    if args.trials < 2:
        raise ConfigError("--trials must be >= 2")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    report = verify_bounds(trials=args.trials, seed=args.seed)
    if args.quiet:
        print("PASS" if report.ok else "FAIL")
    else:
        print(report.render())
    return EXIT_OK if report.ok else EXIT_BOUNDS


def _cmd_spectral(args) -> int:
    rhos = [second_eigenvalue_ring(L) for L in args.learners]
    print("   L        rho   spectral_gap")
    for L, rho in zip(args.learners, rhos):
        print(f"{L:>4}  {rho:.9f}  {1.0 - rho:.9f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-bounds":
            return _cmd_verify_bounds(args)
        return _cmd_spectral(args)
    except (ValueError, OSError, _Diverged) as exc:  # ConfigError, a rejected value, I/O
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED if isinstance(exc, _Diverged) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
