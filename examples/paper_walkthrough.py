#!/usr/bin/env python3
"""A guided tour of the paper's argument, one mini-experiment per section.

Runs laptop-sized versions of the key measurements in the order the paper
presents them: the on-chip-latency problem (Fig 1), the dependent-miss
opportunity (Fig 2), why prefetchers don't solve it (Fig 3 flavor), how
short the chains are (Fig 6), and what the EMC delivers (Figs 12/15/18).

Run:  python examples/paper_walkthrough.py [scale]
      (scale multiplies the instruction counts; default 1.0)
"""

import sys

from repro.analysis.experiments import (clear_cache,
                                        fig01_latency_breakdown,
                                        fig02_dependent_misses,
                                        fig06_chain_lengths, run_all)
from repro.analysis.parallel import RunJob
from repro.analysis.report import format_table, percent


def section(title):
    print()
    print("#" * 70)
    print("#", title)
    print("#" * 70)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    n = int(3000 * scale)
    clear_cache()

    section("1. The problem: on-chip delay dominates memory latency (Fig 1)")
    rows = fig01_latency_breakdown(["povray", "omnetpp", "mcf",
                                    "libquantum"], n_instrs=n)
    print(format_table(
        ["benchmark", "mpki", "dram_cy", "onchip_cy", "onchip_share"],
        [(r.benchmark, r.mpki, r.dram_cycles, r.onchip_cycles,
          percent(r.onchip_fraction, signed=False)) for r in rows],
        formats={"mpki": ".0f", "dram_cy": ".0f", "onchip_cy": ".0f"}))
    print("\n-> For the memory-intensive rows most of a miss's latency is"
          "\n   spent on-chip: interconnect, cache probes, queueing.")

    section("2. The opportunity: dependent cache misses (Fig 2)")
    rows = fig02_dependent_misses(["mcf", "omnetpp", "libquantum"],
                                  n_instrs=n)
    print(format_table(
        ["benchmark", "dependent_misses", "if_they_were_hits"],
        [(r.benchmark, percent(r.dependent_fraction, signed=False),
          f"{r.oracle_speedup:.2f}x") for r in rows]))
    print("\n-> Pointer chasers serialize misses behind misses; making the"
          "\n   dependents free would speed mcf-like code up massively.")

    section("3. Chains are short (Fig 6)")
    lengths = fig06_chain_lengths(["mcf", "omnetpp", "sphinx3"], n_instrs=n)
    print(format_table(["benchmark", "ops_between"],
                       list(lengths.items()),
                       formats={"ops_between": ".1f"}))
    print("\n-> A handful of integer ops separate a miss from its dependent"
          "\n   miss: a tiny remote engine can execute them.")

    section("4. The EMC at work (Figs 12/15/18 flavor, mix H3)")
    # The mix measurement needs the reference scale to be meaningful:
    # below ~4k instructions per core interference phases dominate.
    n_mix = max(n, int(5000 * scale))
    base, emc = run_all(RunJob(workload=("mix", "H3"), n_instrs=n_mix,
                               emc=emc) for emc in (False, True))
    stats = emc.stats
    print(f"performance:      {base.aggregate_ipc:.3f} -> "
          f"{emc.aggregate_ipc:.3f} "
          f"({percent(emc.aggregate_ipc / base.aggregate_ipc - 1)})")
    print(f"EMC miss share:   {percent(stats.emc_miss_fraction(), False)}"
          f"  (paper Fig 15: 10-22%)")
    print(f"miss latency:     core {stats.core_miss_latency.mean:.0f} cy, "
          f"EMC {stats.emc_miss_latency.mean:.0f} cy "
          f"(paper Fig 18: EMC ~20% lower)")
    print(f"chains:           {stats.emc.chains_generated} generated, "
          f"{stats.emc.avg_chain_uops:.1f} uops each "
          f"(paper Fig 22: <10)")

    section("5. Where our reproduction agrees and disagrees")
    print("Agrees: dependent-miss ranking, chain shapes, EMC latency"
          "\nadvantage, EMC share of misses, prefetcher cost ordering."
          "\nDisagrees: workload-level speedups are several times smaller"
          "\nthan the paper's (our synthetic mixes are more bandwidth-bound"
          "\nthan the authors' testbed).  EXPERIMENTS.md has the full"
          "\nper-figure record and the calibration analysis.")


if __name__ == "__main__":
    main()
