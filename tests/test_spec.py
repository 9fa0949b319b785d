"""YAML experiment-spec tests: parsing, line-precise validation,
deterministic expansion, output rendering, and the schema-vs-docs gate."""

import os
import re
from types import SimpleNamespace

import pytest

pytest.importorskip("yaml")

from repro.analysis.spec import (DOCUMENTED_KEYS, FIGURE_KEYS, METRICS,
                                 OUTPUT_KEYS, RESERVED_AXES, SpecError,
                                 TABLE_KEYS, TOP_LEVEL_KEYS, load_spec,
                                 parse_spec, render_outputs)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE = """\
name: demo
n_instrs: 800
samples: 2
matrix:
  workload: [H4, H3]
  prefetcher: [none, stream]
  emc: [false, true]
outputs:
  tables:
    - name: perf
      columns: [workload, prefetcher, emc]
      metrics: [ipc, dram_reads]
  figures:
    - name: speedup
      x: prefetcher
      where: {emc: true}
      normalize_to: none
"""


def _fails(text, fragment, line=None):
    with pytest.raises(SpecError) as err:
        parse_spec(text, "demo.yaml")
    assert fragment in str(err.value), str(err.value)
    if line is not None:
        assert err.value.line == line, str(err.value)
        assert f"demo.yaml:{line}:" in str(err.value)
    return err.value


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_golden_expansion_count_and_order():
    spec = parse_spec(BASE, "demo.yaml")
    jobs = spec.jobs()
    # 2 workloads x 2 prefetchers x 2 emc x 2 seeds
    assert len(spec.points()) == 8
    assert len(jobs) == 16
    assert len({j.label for j in jobs}) == 16          # labels unique
    # deterministic: same bytes -> same expansion
    again = parse_spec(BASE, "demo.yaml").jobs()
    assert jobs == again
    # axes expand in declaration order, seeds innermost
    assert jobs[0].workload == ("mix", "H4") and jobs[0].seed == 1
    assert jobs[1].workload == ("mix", "H4") and jobs[1].seed == 2
    assert jobs[0].prefetcher == "none" and not jobs[0].emc
    assert jobs[2].emc and jobs[2].prefetcher == "none"
    assert jobs[-1].workload == ("mix", "H3")
    assert jobs[-1].prefetcher == "stream" and jobs[-1].emc


def test_spec_fields_reach_the_jobs():
    text = BASE.replace("n_instrs: 800",
                        "n_instrs: 900\nwarmup: 150\nmax_cycles: 7777\n"
                        "trace: true")
    job = parse_spec(text, "demo.yaml").jobs()[0]
    assert (job.n_instrs, job.warmup_instrs, job.max_cycles,
            job.trace) == (900, 150, 7777, True)


def test_dotted_axes_become_sorted_overrides():
    text = BASE.replace("emc: [false, true]",
                        "emc: [true]\n  llc.latency: [20, 24]\n"
                        "  dram.t_cas: [11]")
    jobs = parse_spec(text, "demo.yaml").jobs()
    assert len(jobs) == 2 * 2 * 2 * 2      # 2 wl x 2 pf x 2 lat x 2 seeds
    assert jobs[0].overrides == (("dram.t_cas", 11), ("llc.latency", 20))


def test_exclude_removes_matching_points():
    text = BASE + "exclude:\n  - prefetcher: stream\n    emc: false\n"
    spec = parse_spec(text, "demo.yaml")
    assert len(spec.points()) == 6                      # 8 - 2
    assert not any(p["prefetcher"] == "stream" and not p["emc"]
                   for p in spec.points())


def test_include_keeps_only_matching_points():
    text = BASE + "include:\n  - emc: true\n"
    spec = parse_spec(text, "demo.yaml")
    assert len(spec.points()) == 4
    assert all(p["emc"] for p in spec.points())


def test_include_accepts_value_lists_and_exclude_wins():
    text = (BASE + "include:\n  - workload: [H4, H3]\n"
            + "exclude:\n  - workload: H3\n")
    spec = parse_spec(text, "demo.yaml")
    assert {p["workload"] for p in spec.points()} == {"H4"}


def test_workload_forms_set_topology():
    text = BASE.replace(
        "workload: [H4, H3]",
        "workload: ['mix:H4', 'eight:H1', 'homog:mcf', 'homog:mcf:8', "
        "'named:mcf+lbm+milc+bwaves']")
    jobs = parse_spec(text, "demo.yaml").jobs()
    by_workload = {j.workload: j.machine for j in jobs}
    assert by_workload[("mix", "H4")] == "quad"
    assert by_workload[("eight", "H1")] == "eight"
    assert by_workload[("homog", "mcf", 4)] == "quad"
    assert by_workload[("homog", "mcf", 8)] == "eight"
    assert by_workload[("named", "mcf", "lbm", "milc", "bwaves")] == "quad"


def test_jobs_are_picklable():
    import pickle
    jobs = parse_spec(BASE, "demo.yaml").jobs()
    assert pickle.loads(pickle.dumps(jobs)) == jobs


# ---------------------------------------------------------------------------
# validation errors carry exact lines
# ---------------------------------------------------------------------------

def test_unknown_top_level_key_names_its_line():
    _fails(BASE + "warmpu: 3\n", "unknown spec key 'warmpu'", line=18)


def test_duplicate_axis_value_rejected():
    bad = BASE.replace("emc: [false, true]", "emc: [false, false]")
    _fails(bad, "duplicate value False in axis 'emc'", line=7)


def test_duplicate_yaml_key_rejected():
    _fails(BASE + "name: twice\n", "duplicate key 'name'", line=18)


def test_unknown_prefetcher_value():
    bad = BASE.replace("[none, stream]", "[none, warp]")
    _fails(bad, "unknown prefetcher 'warp'", line=6)


@pytest.mark.parametrize("axis", [
    "core.lsq_entries", "core.clock_ghz", "emc.lsq_entries",
    "emc.live_in_entries", "emc.dep_counter_bits"])
def test_unmodelled_config_field_axis_rejected(axis):
    """No simulator code reads these capacities, so an axis over them
    would run identical points; the validator names it instead."""
    bad = BASE.replace("  emc: [false, true]\n",
                       f"  emc: [false, true]\n  {axis}: [4, 16]\n")
    _fails(bad, f"bad config override {axis}=4", line=8)


def test_unknown_workload_and_kind():
    _fails(BASE.replace("[H4, H3]", "[H99]"), "unknown mix 'H99'", line=5)
    _fails(BASE.replace("[H4, H3]", "['quantum:H4']"),
           "unknown workload kind 'quantum'", line=5)
    _fails(BASE.replace("[H4, H3]", "['named:mcf+lbm']"),
           "4 or 8", line=5)
    _fails(BASE.replace("[H4, H3]", "['homog:mcf:6']"),
           "must be 4 or 8", line=5)


def test_bad_dotted_override_path_and_value():
    bad = BASE.replace("emc: [false, true]",
                       "emc: [true]\n  dram.t_bogus: [9]")
    _fails(bad, "bad config override dram.t_bogus=9", line=8)


def test_matrix_and_workload_axis_required():
    _fails("name: x\n", "needs a 'matrix'")
    _fails("matrix:\n  emc: [true]\n", "needs a 'workload' axis", line=1)


def test_emc_axis_must_be_boolean():
    bad = BASE.replace("emc: [false, true]", "emc: [0, 1]")
    _fails(bad, "emc values must be booleans", line=7)


def test_num_mcs_axis_validated():
    bad = BASE.replace("emc: [false, true]",
                       "emc: [true]\n  num_mcs: [1, 3]")
    _fails(bad, "num_mcs must be 1 or 2", line=8)


def test_num_mcs_axis_rejects_booleans():
    # YAML ``true`` equals 1 but would reach the job as a bool, a distinct
    # cache identity from the 1-MC run.
    bad = BASE.replace("emc: [false, true]",
                       "emc: [true]\n  num_mcs: [true]")
    _fails(bad, "num_mcs must be 1 or 2", line=8)


def test_num_mcs_needs_an_eight_core_workload():
    # A quad workload has one memory controller: num_mcs=2 would expand to
    # a distinct job identity that runs the very same 1-MC machine.
    bad = BASE.replace("emc: [false, true]",
                       "emc: [true]\n  num_mcs: [1, 2]")
    _fails(bad, "num_mcs=2 needs an eight-core workload", line=8)
    # ...but it is fine where every point with two MCs is eight-core
    eight = bad.replace("workload: [H4, H3]",
                        "workload: ['eight:H4', 'homog:mcf:8']")
    jobs = parse_spec(eight, "demo.yaml").jobs()
    assert {j.num_mcs for j in jobs} == {1, 2}
    assert {j.machine for j in jobs} == {"eight"}
    filtered = bad.replace("workload: [H4, H3]",
                           "workload: [H4, 'eight:H3']") + (
        "exclude:\n  - {workload: H4, num_mcs: 2}\n")
    # 2 workloads x 2 prefetchers x 2 num_mcs, minus H4 x 2 MCs
    assert len(parse_spec(filtered, "demo.yaml").points()) == 6


def test_topology_axis_validated_and_lands_on_fabric():
    bad = BASE.replace("emc: [false, true]",
                       "emc: [true]\n  topology: [ring, torus]")
    _fails(bad, "unknown topology 'torus'", line=8)
    spec = parse_spec(
        BASE.replace("emc: [false, true]",
                     "emc: [true]\n  topology: [ring, mesh]"),
        "demo.yaml")
    fabrics = {j.fabric for j in spec.jobs()}
    assert fabrics == {"ring", "mesh"}
    # The workload fixes the machine shape; the axis is the fabric.
    assert {j.machine for j in spec.jobs()} == {"quad"}
    # Warmup identity is fabric-independent: ring and mesh points of one
    # workload share the same warmed base machine.
    ring_keys = {j.warmup_key() for j in spec.jobs() if j.fabric == "ring"}
    mesh_keys = {j.warmup_key() for j in spec.jobs() if j.fabric == "mesh"}
    assert ring_keys == mesh_keys


def test_num_cores_axis_validated_and_splits_identity():
    bad = BASE.replace("emc: [false, true]",
                       "emc: [true]\n  num_cores: [4, 0]")
    _fails(bad, "num_cores must be a positive integer", line=8)
    _fails(BASE.replace("emc: [false, true]",
                        "emc: [true]\n  num_cores: [4, true]"),
           "num_cores must be a positive integer", line=8)
    spec = parse_spec(
        BASE.replace("emc: [false, true]",
                     "emc: [true]\n  num_cores: [4, 8]"),
        "demo.yaml")
    assert {j.num_cores for j in spec.jobs()} == {4, 8}
    # Different core counts still share one warmup (fork re-seats).
    assert len({j.warmup_key() for j in spec.jobs()
                if j.workload == ("mix", "H4")}) == 2  # one per seed


def test_samples_validation():
    _fails(BASE.replace("samples: 2", "samples: 0"),
           "samples must be >= 1", line=3)
    _fails(BASE.replace("samples: 2", "samples: [3, 3]"),
           "duplicate seed 3", line=3)
    _fails(BASE.replace("samples: 2", "samples: [] "),
           "must not be empty", line=3)
    spec = parse_spec(BASE.replace("samples: 2", "samples: [5, 9]"),
                      "demo.yaml")
    assert spec.seeds == (5, 9)


def test_include_unknown_axis_and_value():
    _fails(BASE + "include:\n  - turbo: true\n",
           "unknown axis 'turbo'", line=19)
    _fails(BASE + "include:\n  - emc: maybe\n",
           "not in axis 'emc'", line=19)


def test_filters_must_leave_points():
    _fails(BASE + "exclude:\n  - workload: [H4, H3]\n",
           "leave no matrix points")


def test_duplicate_expanded_point_rejected():
    bad = BASE.replace("[H4, H3]", "[H4, 'mix:H4']")
    _fails(bad, "duplicate experiment point")


def test_output_validation_errors():
    _fails(BASE.replace("metrics: [ipc, dram_reads]",
                        "metrics: [ipc, mips]"),
           "unknown metric 'mips'", line=12)
    _fails(BASE.replace("columns: [workload, prefetcher, emc]",
                        "columns: [workload, core_count]"),
           "unknown column 'core_count'", line=11)
    _fails(BASE.replace("x: prefetcher", "x: turbo"),
           "figure x must be a matrix axis", line=15)
    _fails(BASE.replace("normalize_to: none", "normalize_to: warp"),
           "normalize_to value 'warp'", line=17)
    _fails(BASE.replace("      metrics: [ipc, dram_reads]",
                        "      metrics: [ipc]\n      format: xls"),
           "unknown table format 'xls'", line=13)
    _fails(BASE.replace("      where: {emc: true}",
                        "      where: {emc: true}\n      facet: emc"),
           "unknown figure key 'facet'", line=17)


def test_invalid_yaml_reports_line():
    err = _fails("matrix:\n  workload: [H4\n", "invalid YAML")
    assert err.line is not None


def test_spec_error_is_value_error():
    # the CLI's error handling relies on this
    assert issubclass(SpecError, ValueError)


# ---------------------------------------------------------------------------
# output rendering (over fabricated results; no simulation)
# ---------------------------------------------------------------------------

def _fake_result(ipc, dram_reads=100):
    return SimpleNamespace(aggregate_ipc=ipc, dram_reads=dram_reads)


def test_render_table_and_figure():
    spec = parse_spec(BASE, "demo.yaml")
    results = [_fake_result(0.5 + 0.01 * i, dram_reads=100 + i)
               for i in range(16)]
    out = render_outputs(spec, results)
    assert set(out) == {"perf.md", "speedup.txt"}
    table = out["perf.md"]
    assert table.startswith("| workload | prefetcher | emc | ipc |")
    # 8 matrix points, seeds averaged away by the column selection
    assert table.count("\n| H") == 8
    figure = out["speedup.txt"]
    assert "normalized to none" in figure
    assert "emc=on" in figure


def test_render_table_formats_and_seed_column():
    text = BASE.replace(
        "      columns: [workload, prefetcher, emc]\n"
        "      metrics: [ipc, dram_reads]",
        "      metrics: [ipc]\n      format: csv")
    spec = parse_spec(text, "demo.yaml")
    results = [_fake_result(1.0) for _ in range(16)]
    csv_text = spec.tables[0].filename, render_outputs(spec, results)
    assert csv_text[0] == "perf.csv"
    header = csv_text[1]["perf.csv"].splitlines()[0]
    # default columns = every axis + seed (because samples > 1)
    assert header == "workload,prefetcher,emc,seed,ipc"
    assert len(csv_text[1]["perf.csv"].splitlines()) == 17


def test_render_result_count_mismatch_raises():
    spec = parse_spec(BASE, "demo.yaml")
    with pytest.raises(ValueError, match="result count mismatch"):
        render_outputs(spec, [_fake_result(1.0)] * 3)


def test_seed_averaging_matches_mean():
    text = BASE.replace("samples: 2", "samples: [1, 2]")
    spec = parse_spec(text, "demo.yaml")
    results = [_fake_result(1.0 if i % 2 == 0 else 3.0)
               for i in range(16)]
    table = render_outputs(spec, results)["perf.md"]
    assert "| 2 |" in table                      # mean(1.0, 3.0)


# ---------------------------------------------------------------------------
# the example spec + the schema-vs-docs gate
# ---------------------------------------------------------------------------

def test_example_spec_parses_to_golden_count():
    spec = load_spec(os.path.join(REPO, "examples", "farm",
                                  "emc_sweep.yaml"))
    assert spec.name == "emc-sweep"
    # 1 workload x 3 prefetchers x 2 emc - 1 excluded point
    assert len(spec.points()) == 5
    assert len(spec.jobs()) == 5
    assert spec.n_instrs == 1200
    assert [t.filename for t in spec.tables] == ["perf.md"]
    assert [f.filename for f in spec.figures] == ["speedup.txt"]


def test_predictor_sweep_expands_to_pinned_jobs():
    """The example's (label, job identity) list, recorded before the
    spec expansion moved onto ``RunJob.at``: cache and queue keys of an
    existing farm must not move."""
    spec = load_spec(os.path.join(REPO, "examples", "farm",
                                  "predictor_sweep.yaml"))
    assert [(job.label, job.key()) for job in spec.jobs()] == [
        ("predictor-sweep/H4[emc=on,predictor=map-i]",
         (("mix", "H4"), 1200, "none", True, 1, 1, (), 50000000, False,
          300, "ring", 0, "map-i")),
        ("predictor-sweep/H4[emc=on,predictor=hermes]",
         (("mix", "H4"), 1200, "none", True, 1, 1, (), 50000000, False,
          300, "ring", 0, "hermes")),
    ]


def test_docs_reference_covers_every_schema_key():
    """docs/experiments-farm.md must document exactly the keys the
    validator accepts: one ``### `key``` heading per key, no drift in
    either direction."""
    path = os.path.join(REPO, "docs", "experiments-farm.md")
    with open(path) as fh:
        text = fh.read()
    documented = set(re.findall(r"^### `([^`]+)`", text, re.MULTILINE))
    assert documented == set(DOCUMENTED_KEYS), (
        "docs/experiments-farm.md drifted from the spec schema:\n"
        f"  undocumented: {sorted(set(DOCUMENTED_KEYS) - documented)}\n"
        f"  stale docs:   {sorted(documented - set(DOCUMENTED_KEYS))}")


def test_documented_keys_cover_the_registries():
    assert (TOP_LEVEL_KEYS | OUTPUT_KEYS | TABLE_KEYS | FIGURE_KEYS
            | RESERVED_AXES | set(METRICS)) == set(DOCUMENTED_KEYS)
