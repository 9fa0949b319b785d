"""CLI entry points for ``repro lint`` and ``repro sanitize``.

Kept out of :mod:`repro.cli` so the lint toolchain is importable (and
testable) without the simulator CLI, and vice versa.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline
from .engine import lint_paths
from .findings import Severity
from .registry import select_rules
from .report import format_human, format_json, format_rules

DEFAULT_BASELINE = "simlint-baseline.json"


def add_lint_arguments(parser) -> None:
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help=f"baseline file of grandfathered findings "
                             f"(default: ./{DEFAULT_BASELINE} if present)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings "
                             "and exit 0")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="rewrite the baseline keeping only entries "
                             "that still fire, dropping the rest, and "
                             "exit 0")
    parser.add_argument("--select", nargs="+", metavar="CODE",
                        default=None,
                        help="run only these rule codes (e.g. SIM001)")
    parser.add_argument("--fail-on", choices=("warning", "error"),
                        default="warning",
                        help="minimum severity that fails the run "
                             "(default: warning — any finding fails)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def cmd_lint(args) -> int:
    if args.list_rules:
        print(format_rules())
        return 0
    try:
        rules = select_rules(args.select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE).exists():
        baseline_path = DEFAULT_BASELINE
    baseline = (Baseline.load(baseline_path) if baseline_path
                else Baseline())
    baseline_size = len(baseline)   # match() consumes slots below
    try:
        result = lint_paths(args.paths, rules=rules, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        out_path = args.baseline or DEFAULT_BASELINE
        Baseline.from_findings(
            result.findings + result.baselined).dump(out_path)
        print(f"wrote {len(result.findings) + len(result.baselined)} "
              f"grandfathered findings to {out_path}")
        return 0
    if args.prune_baseline:
        # Keep only entries a finding still consumed this run: fixed (or
        # deleted) debt falls out of the ledger instead of rotting there.
        out_path = args.baseline or DEFAULT_BASELINE
        dropped = baseline_size - len(result.baselined)
        Baseline.from_findings(result.baselined).dump(out_path)
        print(f"pruned {dropped} stale entries from {out_path}; "
              f"{len(result.baselined)} remain")
        return 0
    if args.format == "json":
        print(format_json(result))
    else:
        print(format_human(result, verbose=getattr(args, "verbose",
                                                   False)))
    return result.exit_code(Severity(args.fail_on))


def add_sanitize_arguments(parser) -> None:
    parser.add_argument("--mix", default="H4",
                        help="Table 3 mix to check (default: H4)")
    parser.add_argument("-n", "--n-instrs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--prefetcher", default="none")
    parser.add_argument("--emc", action="store_true")
    parser.add_argument("--no-trace", dest="trace", action="store_false",
                        help="skip comparing traced stage sums")
    parser.add_argument("--warmup", type=int, default=0, metavar="N",
                        help="run each check as a warmup(N)+measure pair, "
                             "putting the phase boundary under the gate")
    parser.add_argument("--topology", default="ring",
                        choices=("ring", "mesh"),
                        help="interconnect fabric the checks run on "
                             "(default: ring)")
    parser.add_argument("--predictor", default="map-i",
                        choices=("map-i", "hermes"),
                        help="EMC bypass predictor the checks run on "
                             "(default: map-i)")
    parser.add_argument("--jobs", type=int, default=0, metavar="J",
                        help="also diff a serial run_jobs pass against a "
                             "J-worker pass (bit-identity gate on the "
                             "parallel runner)")
    parser.add_argument("--checkpoint-roundtrip", action="store_true",
                        help="also diff a straight warmup+measure run "
                             "against a checkpoint-at-boundary resume "
                             "(implies a warmup window; --warmup sets its "
                             "length, default n_instrs/4)")
    parser.add_argument("--fork-identity", action="store_true",
                        help="also gate the System.fork contract: a "
                             "no-override fork must be bit-identical to "
                             "its parent, warmup-inert overrides must "
                             "match a from-scratch warmup, and aggressive "
                             "forks must be deterministic (reports the "
                             "per-component carryover ratios)")


def cmd_sanitize(args) -> int:
    from ..cli import _job
    from .sanitize import (sanitize_checkpoint_roundtrip,
                           sanitize_determinism, sanitize_fork_identity,
                           sanitize_parallel_runner)
    job = _job(args, ("mix", args.mix))
    reports = [sanitize_determinism(job)]
    if args.jobs and args.jobs > 1:
        reports.append(sanitize_parallel_runner(job, jobs=args.jobs))
    if args.checkpoint_roundtrip:
        reports.append(sanitize_checkpoint_roundtrip(job))
    if args.fork_identity:
        reports.append(sanitize_fork_identity(job))
    for report in reports:
        print(report.format())
    return 0 if all(r.deterministic for r in reports) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="simlint", description="simulator-invariant checker")
    add_lint_arguments(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
