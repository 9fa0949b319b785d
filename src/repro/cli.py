"""Command-line interface: run simulations and experiments without writing
Python.

Examples::

    python -m repro run --mix H4 --prefetcher ghb --emc -n 5000
    python -m repro run --benchmarks mcf lbm milc bwaves -n 4000
    python -m repro homog --benchmark mcf --emc
    python -m repro compare --mix H3 -n 5000
    python -m repro trace --mix H4 --emc --out trace.json
    python -m repro profiles
    python -m repro figure fig12 --scale 0.5
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from types import MappingProxyType
from typing import Final, List, Mapping, Optional

from .analysis.parallel import (ParallelRunError, RunJob, _stderr_progress,
                                run_direct, run_grid)
from .analysis.report import format_fabric_summary, format_table
from .sim.runner import PREFETCHER_CONFIGS, RunResult
from .trace import Tracer, trace_enabled_from_env
from .uarch.params import PREDICTORS, TOPOLOGIES
from .workloads.mixes import MIX_NAMES, MIXES
from .workloads.spec import HIGH_INTENSITY, LOW_INTENSITY, PROFILES


def _print_result(result: RunResult, verbose: bool = False) -> None:
    stats = result.stats
    print(f"performance (sum of IPCs): {result.aggregate_ipc:.3f}")
    print(format_table(
        ["core", "benchmark", "ipc", "mpki", "dep_miss%"],
        [(c.core_id, c.benchmark, c.ipc(), c.mpki(),
          100 * (c.dependent_misses / c.llc_misses if c.llc_misses else 0))
         for c in stats.cores],
        formats={"ipc": ".3f", "mpki": ".1f", "dep_miss%": ".1f"}))
    print(f"row-buffer conflict rate: {result.dram_row_conflict_rate:.1%}")
    print(f"DRAM reads: {result.dram_reads}")
    if result.ring is not None:
        print("fabric " + format_fabric_summary(
            result.config.ring.topology, result.ring))
    if stats.emc.chains_generated:
        e = stats.emc
        print(f"EMC: {e.chains_generated} chains "
              f"({e.avg_chain_uops:.1f} uops avg), "
              f"{stats.emc_miss_fraction():.1%} of misses, "
              f"latency {stats.emc_miss_latency.mean:.0f} vs core "
              f"{stats.core_miss_latency.mean:.0f} cycles")
    if stats.prefetches_issued:
        print(f"prefetches: {stats.prefetches_issued} issued, "
              f"accuracy {stats.prefetch_accuracy():.1%}")
    if result.latency_attribution is not None:
        print("latency attribution (cycles/request):")
        print(result.latency_attribution.format())
    if verbose:
        print(f"total cycles: {stats.total_cycles}")
        print(f"energy: chip {result.energy.chip * 1e3:.3f} mJ, "
              f"DRAM {result.energy.dram * 1e3:.3f} mJ")
        if stats.core_miss_latency.count:
            acc = stats.core_miss_latency
            print(f"core miss latency p50 <= {acc.percentile(0.5)} cy, "
                  f"p99 <= {acc.percentile(0.99)} cy")
            print("latency histogram (core-issued misses):")
            peak = max(n for _lo, _hi, n in acc.histogram())
            for lo, hi, n in acc.histogram():
                bar = "#" * max(1, round(40 * n / peak))
                print(f"  {lo:>6d}-{hi:<6d} {n:>6d} {bar}")


def _job(args, workload) -> RunJob:
    """The run a command line describes, on ``workload``."""
    return RunJob(workload=workload, n_instrs=args.n_instrs,
                  prefetcher=args.prefetcher, emc=args.emc,
                  num_mcs=getattr(args, "num_mcs", 1), seed=args.seed,
                  trace=args.trace, warmup_instrs=args.warmup,
                  fabric=args.topology,
                  num_cores=getattr(args, "num_cores", 0),
                  predictor=args.predictor)


def _workload(args):
    """--mix/--benchmarks as a RunJob workload tuple, or None after
    printing why there is none."""
    if args.mix:
        return ("eight" if args.eight_core else "mix", args.mix)
    if args.benchmarks:
        cores = args.num_cores or (8 if args.eight_core else 4)
        if len(args.benchmarks) != cores:
            print(f"error: need {cores} benchmark names, got "
                  f"{len(args.benchmarks)}", file=sys.stderr)
            return None
        return ("named",) + tuple(args.benchmarks)
    print("error: give --mix or --benchmarks", file=sys.stderr)
    return None


def cmd_run(args) -> int:
    workload = _workload(args)
    if workload is None:
        return 2
    job = _job(args, workload)
    if getattr(args, "sanitize", False):
        from .lint.sanitize import sanitize_determinism
        report = sanitize_determinism(job)
        print(report.format())
        return 0 if report.deterministic else 1
    label = args.mix or "+".join(args.benchmarks)
    print(f"running {label} / prefetcher={args.prefetcher} "
          f"emc={'on' if args.emc else 'off'} "
          f"({args.n_instrs} instrs/core"
          + (f", warmup {args.warmup}" if args.warmup else "") + ")")
    _print_result(run_direct(job), verbose=args.verbose)
    return 0


def cmd_homog(args) -> int:
    job = _job(args, ("homog", args.benchmark, 8 if args.eight_core else 4))
    print(f"running {job.effective_cores()}x {args.benchmark} / "
          f"prefetcher={args.prefetcher} emc={'on' if args.emc else 'off'}")
    _print_result(run_direct(job), verbose=args.verbose)
    return 0


def cmd_trace(args) -> int:
    """Run one workload with tracing on; report + optionally export."""
    workload = _workload(args)
    if workload is None:
        return 2
    tracer = Tracer(limit=args.limit)
    print(f"tracing {args.mix or '+'.join(args.benchmarks)} / "
          f"prefetcher={args.prefetcher} "
          f"emc={'on' if args.emc else 'off'} "
          f"({args.n_instrs} instrs/core)")
    result = run_direct(replace(_job(args, workload), trace=True), tracer)
    att = result.latency_attribution
    print(f"traced {len(tracer.finished())} requests over "
          f"{result.stats.total_cycles} cycles")
    print(att.format())
    if args.out:
        tracer.write_chrome_trace(args.out)
        print(f"wrote Chrome trace-event JSON to {args.out} "
              "(open in https://ui.perfetto.dev)")
    return 0


def cmd_compare(args) -> int:
    """All prefetchers x EMC on one workload, normalized."""
    results = run_grid(
        _job(args, ("mix", args.mix)),
        {"prefetcher": args.prefetchers, "emc": (False, True)},
        label=lambda p: f"{args.mix}/{p['prefetcher']}"
                        f"{'+emc' if p['emc'] else ''}",
        jobs=args.jobs, cache_dir=args.cache_dir,
        progress=True if args.jobs > 1 else None)
    base_perf = results[args.prefetchers[0], False].aggregate_ipc
    rows = [(f"{prefetcher}{'+emc' if emc else ''}",
             result.aggregate_ipc, result.aggregate_ipc / base_perf,
             result.stats.emc_miss_fraction(), result.dram_reads)
            for (prefetcher, emc), result in results.items()]
    print(f"workload {args.mix}, {args.n_instrs} instrs/core, "
          f"normalized to {args.prefetchers[0]} without EMC:")
    print(format_table(
        ["config", "perf", "normalized", "emc_frac", "dram_reads"],
        rows, formats={"perf": ".3f", "normalized": ".3f",
                       "emc_frac": ".2f"}))
    return 0


def _parse_value(text: str):
    """Parse a sweep value: bool, int, float, or string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def cmd_sweep(args) -> int:
    grid = {}
    for spec in args.grid:
        if "=" not in spec:
            print(f"error: bad --set {spec!r} (want PATH=V1,V2)",
                  file=sys.stderr)
            return 2
        path, values = spec.split("=", 1)
        grid[path] = [_parse_value(v) for v in values.split(",")]
    print(f"sweeping {args.mix} over {grid}"
          + (f" with {args.jobs} workers" if args.jobs > 1 else ""))
    base = replace(_job(args, ("mix", args.mix)),
                   label=f"{args.mix}/{args.prefetcher}"
                   f"{'+emc' if args.emc else ''}")
    results = run_grid(
        base, grid,
        label=lambda p: f"{base.label}["
                        + ",".join(f"{k}={v}" for k, v in p.items()) + "]",
        jobs=args.jobs, cache_dir=args.cache_dir,
        progress=True if args.jobs > 1 else None)
    print(format_table(
        list(grid) + ["perf", "emc_frac"],
        [values + (result.aggregate_ipc, result.stats.emc_miss_fraction())
         for values, result in results.items()],
        formats={"perf": ".3f", "emc_frac": ".2f"}))
    best, result = max(results.items(), key=lambda kv: kv[1].aggregate_ipc)
    print(f"best: {dict(zip(grid, best))} -> {result.aggregate_ipc:.3f}")
    return 0


def cmd_workload(args) -> int:
    from .workloads.inspect import format_report, inspect_trace
    from .workloads.spec import build_trace
    trace, image = build_trace(args.benchmark, args.n_instrs,
                               seed=args.seed)
    print(format_report(inspect_trace(trace, image)))
    if args.save:
        from .workloads.serialize import save_workload
        save_workload(args.save, trace, image)
        print(f"saved to {args.save}")
    return 0


def cmd_profiles(_args) -> int:
    print(format_table(
        ["benchmark", "intensity", "kernel"],
        [(name, prof.intensity, prof.kernel)
         for name, prof in sorted(PROFILES.items(),
                                  key=lambda kv: (kv[1].intensity, kv[0]))]))
    print(f"\nhigh intensity (MPKI >= 10): {len(HIGH_INTENSITY)}; "
          f"low intensity: {len(LOW_INTENSITY)}")
    print(f"mixes: {', '.join(MIX_NAMES)}")
    for mix in MIX_NAMES:
        print(f"  {mix}: {'+'.join(MIXES[mix])}")
    return 0


FIGURES: Final[Mapping[str, str]] = MappingProxyType({
    "fig01": "test_fig01_latency_breakdown.py",
    "fig02": "test_fig02_dependent_misses.py",
    "fig03": "test_fig03_prefetch_coverage.py",
    "fig06": "test_fig06_chain_length.py",
    "fig12": "test_fig12_quadcore_hetero.py",
    "fig13": "test_fig13_quadcore_homog.py",
    "fig14": "test_fig14_eightcore.py",
    "fig15-19": "test_fig15_19_22_emc_behaviour.py",
    "fig20": "test_fig20_dram_sweep.py",
    "fig21": "test_fig21_emc_prefetch_overlap.py",
    "fig23": "test_fig23_24_energy.py",
    "sec65": "test_sec65_overheads.py",
    "ablations": "test_ablations.py",
})


def cmd_figure(args) -> int:
    """Dispatch to the benchmark file regenerating one figure."""
    import os
    import subprocess
    name = args.name
    if name not in FIGURES:
        print(f"unknown figure {name!r}; choose from: "
              f"{', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    if args.scale is not None:
        env["REPRO_BENCH_SCALE"] = str(args.scale)
    if args.jobs is not None:
        env["REPRO_JOBS"] = str(args.jobs)
    if args.cache_dir is not None:
        env["REPRO_CACHE_DIR"] = args.cache_dir
    cmd = [sys.executable, "-m", "pytest",
           f"benchmarks/{FIGURES[name]}", "-q", "--benchmark-disable", "-s"]
    return subprocess.call(cmd, env=env)


def _print_kernels() -> None:
    """Name the core tick, the event wheel and the workload layout that
    ran (C or Python)."""
    from .core.ooo_core import tick_implementation
    from .sim.events import wheel_implementation
    from .workloads.generators import layout_implementation
    print(f"core tick: {tick_implementation()}")
    print(f"event wheel: {wheel_implementation()}")
    print(f"workload layout: {layout_implementation()}")


def cmd_bench(args) -> int:
    """Time the pinned simulator-throughput microbench (best-of-N)."""
    from .analysis.bench import check_trend, load_baseline, run_bench
    result, path = run_bench(repeats=args.repeats, out_dir=args.out_dir)
    print(result.format())
    _print_kernels()
    if path:
        print(f"wrote {path}")
    if args.baseline is not None:
        baseline = load_baseline(args.baseline)
        if baseline is None:
            print(f"bench trend: no usable baseline at {args.baseline}; "
                  f"skipping the gate for rev {result.rev} "
                  "(first run or expired artifact — nothing to compare "
                  "against)")
            return 0
        ok, message = check_trend(result, baseline)
        print(message)
        if not ok:
            return 1
    return 0


def cmd_profile(args) -> int:
    """Profile the pinned bench run on the host (cProfile/pyinstrument)."""
    from .analysis.bench import BENCH_JOB
    from .analysis.profile import profile_run
    job = BENCH_JOB
    if args.n_instrs is not None:
        job = replace(job, n_instrs=args.n_instrs)
    if args.warmup is not None:
        job = replace(job, warmup_instrs=args.warmup)
    reports = profile_run(job, phase=args.phase, engine=args.engine,
                          sort=args.sort, limit=args.limit,
                          out_path=args.out)
    for report in reports:
        print(report.format())
    _print_kernels()
    return 0


def cmd_farm_run(args) -> int:
    """Expand a YAML spec and run it (through a queue, or run_jobs)."""
    import os

    from .analysis.farm import FarmError, run_farm
    from .analysis.spec import load_spec
    spec = load_spec(args.spec)
    jobs_list = spec.jobs()
    mode = (f"queue {args.queue_dir}" if args.queue_dir
            else "local executor")
    print(f"farm run {spec.name}: {len(jobs_list)} jobs "
          f"({len(spec.points())} matrix points x {len(spec.seeds)} "
          f"seed(s)) via {mode}, {args.jobs} worker(s)")
    out_dir = args.out_dir or os.path.join("farm-out", spec.name)
    try:
        report = run_farm(spec, queue_dir=args.queue_dir, jobs=args.jobs,
                          out_dir=out_dir, lease_s=args.lease,
                          timeout=args.timeout, cache_dir=args.cache_dir,
                          progress=_stderr_progress)
    except FarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in report.output_paths:
        print(f"wrote {path}")
    return 0


def cmd_farm_worker(args) -> int:
    """Serve a shared queue directory until it drains."""
    from .analysis.farm import run_worker
    executed = run_worker(
        args.queue_dir, worker_id=args.worker_id, lease_s=args.lease,
        poll_s=args.poll, max_jobs=args.max_jobs, wait=args.wait,
        timeout=args.timeout,
        log=lambda line: print(line, file=sys.stderr))
    print(f"worker executed {executed} job(s)")
    return 0


def cmd_farm_status(args) -> int:
    """Report queue state; with --expect-done, gate on completion."""
    from .analysis.farm import FarmError, format_status, queue_status
    try:
        status = queue_status(args.queue_dir)
    except FarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_status(status))
    if args.expect_done and not status.all_done:
        print("error: queue is not fully done", file=sys.stderr)
        return 1
    return 0


def cmd_farm_report(args) -> int:
    """Re-emit a spec's declared outputs from the shared result store."""
    import os

    from .analysis.farm import FarmError, collect_results, write_outputs
    from .analysis.spec import load_spec
    spec = load_spec(args.spec)
    try:
        results = collect_results(args.queue_dir, spec.jobs())
    except FarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out_dir or os.path.join("farm-out", spec.name)
    for path in write_outputs(spec, results, out_dir):
        print(f"wrote {path}")
        if path.endswith((".md", ".txt")):
            with open(path) as fh:
                print(fh.read())
    return 0


def _jobs_count(text: str) -> int:
    """argparse type for every ``--jobs``-style worker count: >= 1.

    Mirrors the ``repeats < 1`` bench fix — silently accepting 0 or a
    negative count would either deadlock or fall back to serial without
    telling the user.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_parallel(parser: argparse.ArgumentParser,
                  jobs_default=None) -> None:
    from .analysis.parallel import default_cache_dir, default_jobs
    parser.add_argument(
        "--jobs", type=_jobs_count,
        default=jobs_default if jobs_default is not None else default_jobs(),
        help="worker processes for independent runs (default: "
             "$REPRO_JOBS or 1; 1 = serial, bit-identical results)")
    parser.add_argument(
        "--cache-dir", default=default_cache_dir(), metavar="DIR",
        help="on-disk result cache keyed by config hash "
             "(default: $REPRO_CACHE_DIR or disabled)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", "--n-instrs", type=int, default=5000,
                        help="instructions per core (default 5000)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--prefetcher", default="none",
                        choices=PREFETCHER_CONFIGS)
    parser.add_argument("--emc", action="store_true",
                        help="enable the Enhanced Memory Controller")
    parser.add_argument("--trace", action="store_true",
                        default=trace_enabled_from_env(),
                        help="record request lifecycles and print the "
                             "latency attribution (also: REPRO_TRACE=1)")
    parser.add_argument("--warmup", type=int, default=0, metavar="N",
                        help="warm up N instructions/core first; stats "
                             "cover only the measured window after the "
                             "boundary (default 0: no warmup)")
    parser.add_argument("--topology", default="ring", choices=TOPOLOGIES,
                        help="interconnect fabric (default ring)")
    parser.add_argument("--predictor", default="map-i", choices=PREDICTORS,
                        help="EMC bypass (LLC hit/miss) predictor "
                             "(default map-i)")
    parser.add_argument("--num-cores", type=int, default=0, metavar="N",
                        help="override the core count (default: the "
                             "machine shape's natural count; mixes tile "
                             "their benchmarks cyclically)")
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Accelerating Dependent Cache Misses "
                    "with an Enhanced Memory Controller' (ISCA 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one multiprogrammed workload")
    _add_common(p_run)
    p_run.add_argument("--mix", choices=MIX_NAMES,
                       help="a Table 3 mix (H1..H10)")
    p_run.add_argument("--benchmarks", nargs="+",
                       help="explicit benchmark names, one per core")
    p_run.add_argument("--eight-core", action="store_true")
    p_run.add_argument("--num-mcs", type=int, default=1, choices=(1, 2))
    p_run.add_argument("--sanitize", action="store_true",
                       help="run twice and diff the full stats tree "
                            "instead of printing results (determinism "
                            "check; non-zero exit on divergence)")
    p_run.set_defaults(func=cmd_run)

    p_homog = sub.add_parser("homog",
                             help="run N copies of one benchmark")
    _add_common(p_homog)
    p_homog.add_argument("--benchmark", required=True,
                         choices=sorted(PROFILES))
    p_homog.add_argument("--eight-core", action="store_true")
    p_homog.set_defaults(func=cmd_homog)

    p_cmp = sub.add_parser("compare",
                           help="sweep prefetchers x EMC on one mix")
    _add_common(p_cmp)
    p_cmp.add_argument("--mix", default="H4", choices=MIX_NAMES)
    p_cmp.add_argument("--prefetchers", nargs="+",
                       default=["none", "ghb"],
                       choices=PREFETCHER_CONFIGS)
    _add_parallel(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_prof = sub.add_parser("profiles",
                            help="list benchmark profiles and mixes")
    p_prof.set_defaults(func=cmd_profiles)

    p_fig = sub.add_parser("figure",
                           help="regenerate one figure of the paper")
    p_fig.add_argument("name", help=f"one of: {', '.join(sorted(FIGURES))}")
    p_fig.add_argument("--scale", type=float, default=None,
                       help="REPRO_BENCH_SCALE multiplier")
    p_fig.add_argument("--jobs", type=_jobs_count, default=None,
                       help="worker processes (exported as REPRO_JOBS to "
                            "the figure's driver)")
    p_fig.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="on-disk result cache (exported as "
                            "REPRO_CACHE_DIR)")
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser(
        "sweep", help="grid-sweep config knobs over one mix "
                      "(e.g. --set emc.num_contexts=1,2,4)")
    _add_common(p_sweep)
    p_sweep.add_argument("--mix", default="H3", choices=MIX_NAMES)
    p_sweep.add_argument("--set", dest="grid", action="append",
                         required=True, metavar="PATH=V1,V2,...",
                         help="dotted config path and comma-separated "
                              "values (repeatable)")
    _add_parallel(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser(
        "trace", help="run one workload with lifecycle tracing on and "
                      "report the latency attribution")
    _add_common(p_trace)
    p_trace.add_argument("--mix", choices=MIX_NAMES,
                         help="a Table 3 mix (H1..H10)")
    p_trace.add_argument("--benchmarks", nargs="+",
                         help="explicit benchmark names, one per core")
    p_trace.add_argument("--eight-core", action="store_true")
    p_trace.add_argument("--num-mcs", type=int, default=1, choices=(1, 2))
    p_trace.add_argument("--out", metavar="PATH",
                         help="write the per-request timelines as Chrome "
                              "trace-event JSON (Perfetto-viewable)")
    p_trace.add_argument("--limit", type=int, default=None,
                         help="trace only the first N requests")
    p_trace.set_defaults(func=cmd_trace)

    p_wl = sub.add_parser(
        "workload", help="generate, inspect, or save a workload trace")
    p_wl.add_argument("--benchmark", required=True,
                      choices=sorted(PROFILES))
    p_wl.add_argument("-n", "--n-instrs", type=int, default=5000)
    p_wl.add_argument("--seed", type=int, default=1)
    p_wl.add_argument("--save", metavar="PATH",
                      help="write the (trace, image) pair to PATH "
                           "(.gz for compression)")
    p_wl.set_defaults(func=cmd_workload)

    from .lint.cli import (add_lint_arguments, add_sanitize_arguments,
                           cmd_lint, cmd_sanitize)
    p_lint = sub.add_parser(
        "lint", help="simlint: check simulator invariants "
                     "(SIM001-SIM013, SIM099) with the AST-based static "
                     "analyzer")
    add_lint_arguments(p_lint)
    p_lint.add_argument("-v", "--verbose", action="store_true",
                        help="also print suppressed/baselined findings")
    p_lint.set_defaults(func=cmd_lint)

    p_bench = sub.add_parser(
        "bench", help="time the fixed simulator-throughput microbench "
                      "and write BENCH_<rev>.json (host speed, not "
                      "simulated performance)")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="repetitions; the fastest wall time wins "
                              "(default 3)")
    p_bench.add_argument("--out-dir", default=None, metavar="DIR",
                         help="write BENCH_<rev>.json here (default: "
                              "print only)")
    p_bench.add_argument("--baseline", default=None, metavar="PATH",
                         help="previous BENCH_<rev>.json (or a directory "
                              "of them); exit 1 if instrs_per_s regressed "
                              "more than 20%%, soft-pass when missing")
    p_bench.set_defaults(func=cmd_bench)

    p_hprof = sub.add_parser(
        "profile", help="profile the pinned bench run on the host "
                        "(cProfile or pyinstrument; finds the hot frames "
                        "behind a BENCH_<rev>.json trend change)")
    p_hprof.add_argument("--phase", default="all",
                         choices=("build", "sim", "all"),
                         help="profile workload build, the simulation, or "
                              "the whole run (default all)")
    p_hprof.add_argument("--engine", default="cprofile",
                         choices=("cprofile", "pyinstrument"),
                         help="profiler backend (pyinstrument falls back "
                              "to cProfile when not installed)")
    p_hprof.add_argument("--sort", default="cumulative",
                         help="pstats sort key for cProfile output "
                              "(default cumulative; try tottime)")
    p_hprof.add_argument("--limit", type=int, default=30,
                         help="rows of pstats output (default 30)")
    p_hprof.add_argument("--out", default=None, metavar="PATH",
                         help="dump raw stats (.pstats for cProfile, "
                              ".html for pyinstrument)")
    p_hprof.add_argument("-n", "--n-instrs", type=int,
                         default=None,
                         help="override the pinned instruction count")
    p_hprof.add_argument("--warmup", type=int, default=None, metavar="N",
                         help="override the pinned warmup window")
    p_hprof.set_defaults(func=cmd_profile)

    p_farm = sub.add_parser(
        "farm", help="declarative experiment farm: run YAML matrix "
                     "specs through a shared work queue "
                     "(see docs/experiments-farm.md)")
    farm_sub = p_farm.add_subparsers(dest="farm_command", required=True)

    def _add_farm_queue(p, required: bool) -> None:
        p.add_argument("--queue-dir", metavar="DIR", required=required,
                       default=None,
                       help="shared queue + result-store directory; "
                            "many workers/hosts may point at one DIR"
                       + ("" if required else
                          " (default: no queue, plain in-process "
                          "executor)"))
        p.add_argument("--lease", type=float, default=60.0, metavar="S",
                       help="job lease seconds; an expired lease "
                            "(killed worker) returns the job to the "
                            "queue (default 60)")
        p.add_argument("--timeout", type=float, default=None,
                       metavar="S",
                       help="per-job wall-clock timeout in seconds")

    pf_run = farm_sub.add_parser(
        "run", help="expand a spec and run it to completion, emitting "
                    "its declared tables/figures")
    pf_run.add_argument("spec", help="path to the YAML experiment spec")
    pf_run.add_argument("--jobs", type=_jobs_count, default=1,
                        help="local worker processes (default 1)")
    pf_run.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache for the no-queue path "
                             "(ignored with --queue-dir, which has its "
                             "own store)")
    pf_run.add_argument("--out-dir", default=None, metavar="DIR",
                        help="where to write declared outputs "
                             "(default farm-out/<spec name>)")
    _add_farm_queue(pf_run, required=False)
    pf_run.set_defaults(func=cmd_farm_run)

    pf_worker = farm_sub.add_parser(
        "worker", help="serve a shared queue directory (run any number "
                       "of these, on any host sharing DIR)")
    _add_farm_queue(pf_worker, required=True)
    pf_worker.add_argument("--worker-id", default=None,
                           help="stable worker name (default "
                                "<hostname>-<pid>)")
    pf_worker.add_argument("--max-jobs", type=_jobs_count, default=None,
                           help="exit after executing N jobs")
    pf_worker.add_argument("--poll", type=float, default=0.5,
                           metavar="S", help="idle poll interval")
    pf_worker.add_argument("--wait", action="store_true",
                           help="keep polling an empty queue instead "
                                "of exiting when it drains")
    pf_worker.set_defaults(func=cmd_farm_worker)

    pf_status = farm_sub.add_parser(
        "status", help="per-state job counts (total and per spec)")
    pf_status.add_argument("--queue-dir", metavar="DIR", required=True)
    pf_status.add_argument("--expect-done", action="store_true",
                           help="exit 1 unless every queued job is "
                                "done (CI gate)")
    pf_status.set_defaults(func=cmd_farm_status)

    pf_report = farm_sub.add_parser(
        "report", help="re-emit a spec's declared outputs from the "
                       "queue's result store")
    pf_report.add_argument("spec", help="path to the YAML experiment "
                                        "spec")
    pf_report.add_argument("--queue-dir", metavar="DIR", required=True)
    pf_report.add_argument("--out-dir", default=None, metavar="DIR",
                           help="where to write outputs (default "
                                "farm-out/<spec name>)")
    pf_report.set_defaults(func=cmd_farm_report)

    p_san = sub.add_parser(
        "sanitize", help="determinism sanitizer: run one config twice "
                         "with the same seed and diff the full stats "
                         "tree + traced stage sums")
    add_sanitize_arguments(p_san)
    p_san.set_defaults(func=cmd_sanitize)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParallelRunError, ValueError) as exc:
        # Bad config overrides and failed runs are user errors, not
        # tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
