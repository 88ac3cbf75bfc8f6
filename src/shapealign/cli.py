"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 usage or input error,
2 numerical non-convergence (results are still written in that case).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import ShapeAlignError
from .fit import FitConfig, fit
from .inference import confidence_intervals, two_sided_quantile
from .io import (
    dumps_canonical,
    load_study_config,
    read_panel,
    report_document,
    result_document,
    write_atomic,
    write_shape_table,
)
from .model import ConstraintRegime, Regime
from .montecarlo import run_study

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        raise _UsageError(message)


@functools.lru_cache(maxsize=None)  # built once per process: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="shapealign",
                     description="Register noisy periodic curves sharing one common shape.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one panel and write a JSON result")
    p_fit.add_argument("--input", required=True, help="panel CSV path")
    p_fit.add_argument("--regime", choices=["a0", "a1"], default="a0")
    p_fit.add_argument("--m", default="auto", help="band limit (integer) or 'auto'")
    p_fit.add_argument("--level", type=float, default=0.95, help="confidence level")
    p_fit.add_argument("--upsilon-max", type=float, default=ConstraintRegime.upsilon_max, dest="upsilon_max")
    p_fit.add_argument("--out", required=True, help="result JSON path")
    p_fit.add_argument("--shape-out", default=None, dest="shape_out",
                       help="optional CSV of the fitted shape at 512 points")
    p_fit.add_argument("--seed", type=int, default=None,
                       help="recorded in the output for bookkeeping (fits are deterministic)")
    p_fit.add_argument("--period-days", type=float, default=None, dest="period_days",
                       help="also report shifts in days for this period length; "
                            "day zero is the first sample, no calendar anchoring")
    p_fit.add_argument("--multistart", type=int, default=FitConfig.n_multistart)
    p_fit.add_argument("--max-iters", type=int, default=FitConfig.max_iters, dest="max_iters")

    p_sim = sub.add_parser("simulate", help="run a replication study from a JSON config")
    p_sim.add_argument("--config", required=True, help="study config JSON path")
    p_sim.add_argument("--out", required=True, help="study report JSON path")
    return parser


def _cmd_fit(args) -> int:
    two_sided_quantile(args.level)  # the level rule, checked before the fit: an unconverged fit never reads it
    if args.period_days is not None and not (math.isfinite(args.period_days) and args.period_days > 0):
        raise _UsageError(f"--period-days must be positive and finite, got {args.period_days!r}")
    panel = read_panel(args.input)
    if args.m == "auto":
        m = None
    else:
        try:
            m = int(args.m)
        except ValueError:
            raise _UsageError(f"--m must be an integer or 'auto', got {args.m!r}")
    config = FitConfig(m=m, n_multistart=args.multistart, max_iters=args.max_iters)
    regime = ConstraintRegime(kind=Regime(args.regime), upsilon_max=args.upsilon_max)

    result = fit(panel, regime, config)
    report = None
    if result.converged:
        report = confidence_intervals(result, args.level)
    doc = result_document(result, report, seed=args.seed, period_days=args.period_days)
    write_atomic(args.out, dumps_canonical(doc))
    if args.shape_out:
        write_shape_table(args.shape_out, result.shape_hat)
    if not result.converged:
        print("fit did not converge; results written anyway", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_study_config(args.config)
    report = run_study(config)
    write_atomic(args.out, dumps_canonical(report_document(report)))
    if any(cell.invalid for cell in report.cells):
        print("study contains cells with too many non-convergent replicates", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_simulate(args)
    except (_UsageError, ShapeAlignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # reads already raise ShapeAlignError, so this is an output write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
