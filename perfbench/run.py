"""The repository's benchmark of record.

Runs one workload (see ``workloads.py`` and README.md) for ``--seconds``
seconds of repeated operations, checks every output against the
committed references, prints a human-readable report and, as its last
line, one JSON result::

    python3 perfbench/run.py --workload emc_quad --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced operations, reports the
per-layer metrics of the traced ones and the tracing overhead, and
requires the traced simulated counters to equal the untraced ones.
``--record`` runs one operation and stores its outputs as the reference
for that workload and seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from ledger import LAYERS, Ledger, installed  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1
#: Not used while writing or tuning the benchmark; check claims on it.
HELD_OUT_SEED = 1009
#: At least this many operations per run, whatever ``--seconds`` says.
MIN_OPS = 3
#: Set-up is timed at least this many times per run (extra set-ups are
#: added while they fit in ``EXTRA_SETUP_S``), since it is short.
MIN_SETUPS = 15
EXTRA_SETUP_S = 1.0

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.  The
#: report also prints the work rate (``sim_kips``/``klines_per_s``),
#: which spreads more between runs than these.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Host-time phases, reported as shares of the traced wall time:
#: name -> seconds from the ledger.  Lifecycle phases are inclusive;
#: the lint passes nest (the taint graph is built inside the rules), so
#: they are self times.
PHASES: Tuple[Tuple[str, Callable], ...] = (
    ("workloads.build", lambda lg: lg.inclusive_s("workloads.build")),
    ("sim.warmup", lambda lg: lg.inclusive_s("sim.warmup")),
    ("sim.measure", lambda lg: (lg.inclusive_s("sim.run")
                               - lg.inclusive_s("sim.drain"))),
    ("sim.drain", lambda lg: lg.inclusive_s("sim.drain")),
    ("sim.fork", lambda lg: lg.inclusive_s("sim.fork")),
    ("sim.restore", lambda lg: lg.inclusive_s("sim.restore")),
    ("sim.checkpoint", lambda lg: lg.inclusive_s("sim.checkpoint")),
    ("analysis.spec", lambda lg: lg.inclusive_s("analysis.spec")),
    ("analysis.execute_job",
     lambda lg: lg.inclusive_s("analysis.execute_job")),
    ("analysis.result_store",
     lambda lg: lg.inclusive_s("analysis.result_store")),
    ("analysis.render", lambda lg: lg.inclusive_s("analysis.render")),
    ("lint.parse", lambda lg: lg.self_s("lint.parse")),
    ("lint.graph", lambda lg: lg.self_s("lint.graph")),
    ("lint.rules", lambda lg: lg.self_s("lint.rules")),
)


#: (name, unit) of every per-layer metric, as in BENCHMARK.json.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"{layer}.self_pct", "%") for layer in LAYERS + ("other",)),
    *((f"{phase}_pct", "%") for phase, _seconds in PHASES),
    ("trace.overhead_pct", "%"),
    ("core.events", "count"),
    ("sim.events_per_kinstr", "1/kinstr"),
    ("sim.events_per_s", "1/s"),
    ("interconnect.sends", "count"),
    ("memsys.demand_requests", "count"),
    ("memsys.llc_mpki", "1/kinstr"),
    ("memsys.dram_accesses", "count"),
    ("memsys.dram_row_conflict_rate", "ratio"),
    ("memsys.miss_latency_mean", "cycles"),
    ("interconnect.hops_per_kinstr", "1/kinstr"),
    ("interconnect.avg_latency", "cycles"),
    ("core.full_window_stall_frac", "ratio"),
    ("core.dependent_miss_frac", "ratio"),
    ("emc.chains_generated", "count"),
    ("emc.chain_exec_ratio", "ratio"),
    ("emc.miss_fraction", "ratio"),
    ("emc.bypass_precision", "ratio"),
    ("emc.bypass_recall", "ratio"),
    ("prefetch.issued", "count"),
    ("prefetch.accuracy", "ratio"),
    ("workloads.uops", "count"),
    ("sim.checkpoint_bytes", "B"),
    ("analysis.warmups_per_sweep", "count"),
    ("analysis.fork_carryover", "ratio"),
    ("lint.files", "count"),
)


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation; times are raw host seconds."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: None when the operation raised (it then counts as failed)
    outcome: Optional[Outcome] = None
    ledger: Optional[Ledger] = None
    #: host-speed scale factor measured around the operation
    speed: float = 1.0


def _operation(workload, seed: int, ledger: Optional[Ledger] = None) -> Op:
    """Set up, do the work, clean up (untimed); traced when given a
    ledger.  An exception is printed and leaves ``outcome`` unset."""
    op = Op(ledger=ledger)
    gc.collect()
    before = hostspeed.probe_s()
    with (installed(ledger) if ledger else nullcontext(lambda: None)
          ) as after_setup:
        state = None
        try:
            start = time.perf_counter()
            state = workload.setup(seed)
            op.setup_s = time.perf_counter() - start
            after_setup()
            op.outcome = workload.work(state)
            op.wall_s = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
        finally:
            if state is not None:
                workload.cleanup(state)
    op.speed = hostspeed.speed(before, hostspeed.probe_s())
    return op


def _setup_times(workload, seed: int, ops: List[Op]) -> List[float]:
    """Scaled set-up times of ``ops`` plus those of extra set-ups."""
    times = [op.setup_s * op.speed for op in ops if op.outcome is not None]
    extra: List[float] = []
    before = hostspeed.probe_s()
    while len(times) + len(extra) < MIN_SETUPS and sum(extra) < EXTRA_SETUP_S:
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        extra.append(time.perf_counter() - start)
        workload.cleanup(state)
    speed = hostspeed.speed(before, hostspeed.probe_s())
    return times + [t * speed for t in extra]


def _repeat(seconds: float, min_ops: int, step: Callable[[], None]) -> None:
    """Call ``step`` until ``seconds`` would be exceeded (at least
    ``min_ops`` times)."""
    start = time.perf_counter()
    durations: List[float] = []
    while True:
        begin = time.perf_counter()
        step()
        durations.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if (len(durations) >= min_ops
                and elapsed + statistics.median(durations) > seconds):
            return


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _load_references() -> Dict[str, Dict[str, object]]:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())


def _reference(refs, workload: str, seed: int):
    """The committed outputs for ``workload`` at ``seed``, or None.
    An ``any`` entry holds outputs that do not depend on the seed."""
    table = refs.get(workload, {})
    return table.get(str(seed), table.get("any"))


def _record(workload, seed: int) -> int:
    op = _operation(workload, seed)
    if op.outcome is None:
        return 1
    refs = _load_references()
    refs.setdefault(workload.name, {})[str(seed)] = op.outcome.counters
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload.name} seed {seed}: {op.outcome.counters}")
    return 0


def _check(ops: List[Op], expected) -> int:
    """Number of failed operations: errors, and outputs that differ from
    the reference (or, without one, from the first operation)."""
    if expected is None:
        expected = next((op.outcome.counters for op in ops
                         if op.outcome is not None), None)
    failed = 0
    for op in ops:
        if op.outcome is None or op.outcome.counters != expected:
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(ops: List[Op], setups: List[float],
                peak_rss_mb: float) -> Dict[str, float]:
    """Host times scaled by each operation's host-speed factor."""
    ok = [op for op in ops if op.outcome is not None]
    return {
        "wall_s": _median(op.wall_s * op.speed for op in ok),
        "setup_s": _median(setups),
        "throughput": _median(op.outcome.work_items
                              / (op.outcome.work_s * op.speed)
                              for op in ok) / 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_values(op: Op) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    ledger, outcome, wall = op.ledger, op.outcome, op.wall_s
    raw = Counter(outcome.raw)      # zero for what a workload lacks

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    layer_s = {layer: self_s
               for layer, (_calls, self_s) in ledger.by_layer().items()}
    out = {f"{layer}.self_pct": pct(layer_s.get(layer, 0.0))
           for layer in LAYERS}
    out["other.self_pct"] = pct(wall - sum(layer_s.get(layer, 0.0)
                                           for layer in LAYERS))
    for phase, seconds in PHASES:
        out[f"{phase}_pct"] = pct(seconds(ledger))
    kinstr = raw["instructions"] / 1000.0
    out.update({
        "core.events": ledger.calls("core.event"),
        "sim.events_per_kinstr": _ratio(ledger.events(), kinstr),
        "sim.events_per_s": _ratio(ledger.events(), ledger.sim_s()),
        "interconnect.sends": ledger.calls("interconnect.send"),
        "memsys.demand_requests": ledger.calls("memsys.demand_request"),
        "memsys.llc_mpki": _ratio(raw["llc_misses"], kinstr),
        "memsys.dram_accesses": raw["dram_accesses"],
        "memsys.dram_row_conflict_rate": _ratio(raw["dram_row_conflicts"],
                                                raw["dram_accesses"]),
        "memsys.miss_latency_mean": _ratio(raw["miss_latency_total"],
                                           raw["miss_latency_count"]),
        "interconnect.hops_per_kinstr": _ratio(raw["fabric_hops"], kinstr),
        "interconnect.avg_latency": _ratio(raw["fabric_latency"],
                                           raw["fabric_messages"]),
        "core.full_window_stall_frac": _ratio(
            raw["full_window_stall_cycles"], raw["core_cycles"]),
        "core.dependent_miss_frac": _ratio(raw["dependent_misses"],
                                           raw["llc_misses"]),
        "emc.chains_generated": raw["chains_generated"],
        "emc.chain_exec_ratio": _ratio(raw["chains_executed"],
                                       raw["chains_generated"]),
        "emc.miss_fraction": _ratio(
            raw["llc_misses_from_emc"],
            raw["llc_misses_from_emc"] + raw["llc_misses_from_core"]),
        "emc.bypass_precision": _ratio(
            raw["bypass_true_pos"],
            raw["bypass_true_pos"] + raw["bypass_false_pos"]),
        "emc.bypass_recall": _ratio(
            raw["bypass_true_pos"],
            raw["bypass_true_pos"] + raw["bypass_false_neg"]),
        "prefetch.issued": raw["prefetches_issued"],
        "prefetch.accuracy": _ratio(raw["prefetches_useful"],
                                    raw["prefetches_issued"]),
        "workloads.uops": ledger.uops,
        "sim.checkpoint_bytes": ledger.checkpoint_bytes,
        "analysis.warmups_per_sweep": ledger.calls("sim.warmup"),
        "analysis.fork_carryover": (statistics.fmean(outcome.carryover)
                                    if outcome.carryover else 0.0),
        "lint.files": ledger.calls("lint.parse"),
    })
    return out


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

def _src_digest() -> str:
    """Content hash of ``src/``: identifies the code when no git
    revision is available."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--short", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _header(workload, seed: int, trace: bool) -> str:
    return (f"perfbench {workload.name} seed={seed} trace={int(trace)} "
            f"rev={_git_rev()} src={_src_digest()} nproc={os.cpu_count()} "
            f"python={platform.python_version()} "
            f"warmed={'yes' if workload.warmed else 'no (not a simulation)'} "
            f"model=unvalidated (no hardware reference results in the "
            f"repository; no accuracy-error figure)")


def _fmt(value: Optional[float], digits: int = 4) -> str:
    return "n/a" if value is None else f"{value:.{digits}g}"


def _print_end_to_end(ops: List[Op], setups: int, failed: int,
                      metrics: Dict[str, float]) -> None:
    ok_ops = [op for op in ops if op.outcome is not None]
    ok = [op.outcome for op in ok_ops]
    sim = ok[0].sim_ipc is not None
    first = ok[0]
    raw_wall = _median(op.wall_s for op in ok_ops)
    raw_rate = _median(o.work_items / o.work_s for o in ok) / 1000.0
    rows = [
        ("wall_s", metrics["wall_s"], "s"),
        ("setup_s", metrics["setup_s"], "s"),
        ("sim_kips" if sim else "klines_per_s", metrics["throughput"],
         "kinstr/s" if sim else "klines/s"),
        ("sim_ipc", first.sim_ipc, "instr/cycle, simulated"),
        ("emc_speedup", first.emc_speedup, "x, simulated"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB"),
        ("failed_frac", failed / len(ops), f"{failed}/{len(ops)} ops"),
    ]
    print(f"  end to end (median of {len(ok)} operations, {setups} set-ups;"
          f" host times scaled to the reference host, see hostspeed.py):")
    for name, value, unit in rows:
        print(f"    {name:<14} {_fmt(value, 6):>12}  {unit}")
    print(f"    raw, unscaled: wall_s {raw_wall:.6g} s, "
          f"{'sim_kips' if sim else 'klines_per_s'} {raw_rate:.6g}; "
          f"median host-speed factor "
          f"{_median(op.speed for op in ok_ops):.4g}")


def _print_layers(traced: List[Op], per_op: List[Dict[str, float]],
                  values: Dict[str, float], untraced_wall: float) -> None:
    traced_wall = _median(op.wall_s * op.speed for op in traced)
    print(f"  per layer (median of {len(traced)} traced operations, self_s "
          f"in raw host seconds); scaled wall: traced {traced_wall:.4f} s, "
          f"untraced {untraced_wall:.4f} s, tracing overhead "
          f"{traced_wall - untraced_wall:+.4f} s")
    print(f"    {'layer':<14} {'self_s':>10} {'calls':>10} {'share':>8}")
    for layer in LAYERS + ("other",):
        self_s = _median(op.wall_s * v[f"{layer}.self_pct"] / 100.0
                         for op, v in zip(traced, per_op))
        calls = ("-" if layer == "other" else
                 str(int(_median(op.ledger.by_layer().get(layer, (0,))[0]
                                 for op in traced))))
        print(f"    {layer:<14} {self_s:>10.4f} {calls:>10} "
              f"{values[f'{layer}.self_pct']:>7.2f}%")
    print(f"    {'span':<26} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
    ledger = traced[len(traced) // 2].ledger
    for name in sorted(ledger.spans):
        calls, incl, self_s = ledger.spans[name]
        if not calls:
            continue
        print(f"    {name:<26} {int(calls):>9} {incl:>9.4f} {self_s:>9.4f}")
    if ledger.events():
        print(f"    sim.host_us_per_event "
              f"{1e6 * ledger.sim_s() / ledger.events():.3f} us")
    for name, unit in PER_LAYER:
        if not name.endswith("_pct"):
            print(f"    {name:<34} {_fmt(values[name], 6):>12}  {unit}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _result(correct: bool, attempted: int, failed: int,
            metrics: Dict[str, float],
            units: Tuple[Tuple[str, str], ...]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}})


def run_untraced(workload, seed: int, seconds: float, expected) -> int:
    ops: List[Op] = []
    peak_rss_mb: List[float] = []

    def step() -> None:
        ops.append(_operation(workload, seed))
        if len(ops) == 1:
            # Later operations reuse freed memory, but the allocator's
            # fragmentation grows with their number, which depends on
            # host speed: the peak through the first one is repeatable.
            peak_rss_mb.append(_peak_rss_mb())

    _repeat(seconds, MIN_OPS, step)
    if all(op.outcome is None for op in ops):
        return 1
    failed = _check(ops, expected)
    setups = _setup_times(workload, seed, ops)
    metrics = _end_to_end(ops, setups, peak_rss_mb[0])
    _print_end_to_end(ops, len(setups), failed, metrics)
    print(_result(failed == 0, len(ops), failed, metrics, END_TO_END))
    return 0


def run_traced(workload, seed: int, seconds: float, expected) -> int:
    untraced: List[Op] = []
    traced: List[Op] = []

    def pair() -> None:
        untraced.append(_operation(workload, seed))
        traced.append(_operation(workload, seed, Ledger()))

    _repeat(seconds, 2, pair)
    # Tracing must not perturb the simulation: traced outputs are checked
    # against the same expectation as untraced ones.
    attempted = len(untraced) + len(traced)
    failed = _check(untraced + traced, expected)
    untraced = [op for op in untraced if op.outcome is not None]
    traced = [op for op in traced if op.outcome is not None]
    if not untraced or not traced:
        return 1
    per_op = [_layer_values(op) for op in traced]
    values = {name: _median(v[name] for v in per_op)
              for name in per_op[0]}
    untraced_wall = _median(op.wall_s * op.speed for op in untraced)
    traced_wall = _median(op.wall_s * op.speed for op in traced)
    values["trace.overhead_pct"] = (100.0 * (traced_wall - untraced_wall)
                                    / untraced_wall)
    _print_layers(traced, per_op, values, untraced_wall)
    print(_result(failed == 0, attempted, failed, values, PER_LAYER))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, one after another."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    print(f"{'workload':<14} {'correct':>8} {'failed':>7} "
          + " ".join(f"{n + ' (' + u + ')':>22}" for n, u in END_TO_END))
    for name, result in rows:
        print(f"{name:<14} {str(result['correct']):>8} "
              f"{result['failed']:>3}/{result['attempted']:<3} "
              + " ".join(f"{result['metrics'][n]['value']:>22.6g}"
                         for n, _u in END_TO_END))
    return 0


def _check_benchmark_json() -> Optional[str]:
    """BENCHMARK.json must declare exactly the metrics this file emits."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", END_TO_END),
                      ("per_layer", PER_LAYER)):
        theirs = tuple((m["name"], m["unit"]) for m in spec[key])
        if theirs != ours:
            return (f"BENCHMARK.json {key} does not match perfbench/run.py: "
                    f"{sorted(set(theirs) ^ set(ours))}")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store one operation's outputs as the "
                             "reference for this workload and seed")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    problem = _check_benchmark_json()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workload = WORKLOADS[args.workload]
    if args.record:
        return _record(workload, args.seed)
    expected = _reference(_load_references(), workload.name, args.seed)
    print(_header(workload, args.seed, bool(args.trace)))
    if expected is None:
        print("  reference: none for this seed (outputs checked for "
              "repeatability only)")
    else:
        print("  reference: committed"
              + (" (held-out seed)" if args.seed == HELD_OUT_SEED else ""))
    runner = run_traced if args.trace else run_untraced
    return runner(workload, args.seed, args.seconds, expected)


if __name__ == "__main__":
    sys.exit(main())
