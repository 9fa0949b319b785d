"""Tests for the command-line interface."""

from repro.cli import FIGURES, build_parser, main


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["run", "--mix", "H4", "-n", "500"])
    assert args.mix == "H4"
    assert args.n_instrs == 500
    assert not args.emc


def test_run_mix(capsys):
    rc = main(["run", "--mix", "H4", "-n", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "performance" in out
    assert "mcf" in out


def test_run_with_emc_reports_chains(capsys):
    rc = main(["run", "--mix", "H3", "-n", "1200", "--emc"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "EMC:" in out


def test_run_named_benchmarks(capsys):
    rc = main(["run", "--benchmarks", "mcf", "lbm", "milc", "bwaves",
               "-n", "500"])
    assert rc == 0
    assert "lbm" in capsys.readouterr().out


def test_run_wrong_benchmark_count_fails(capsys):
    rc = main(["run", "--benchmarks", "mcf", "-n", "500"])
    assert rc == 2
    assert "need 4" in capsys.readouterr().err


def test_run_benchmarks_count_follows_eight_core(capsys):
    rc = main(["run", "--benchmarks", "mcf", "lbm", "milc", "bwaves",
               "--eight-core", "-n", "500"])
    assert rc == 2
    assert "need 8" in capsys.readouterr().err


def test_run_second_memory_controller_needs_eight_core(capsys):
    rc = main(["run", "--mix", "H4", "--num-mcs", "2", "-n", "300"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "num_mcs=2" in err


def test_run_without_workload_fails(capsys):
    rc = main(["run", "-n", "500"])
    assert rc == 2


def test_homog(capsys):
    rc = main(["homog", "--benchmark", "omnetpp", "-n", "500"])
    assert rc == 0
    assert "omnetpp" in capsys.readouterr().out


def test_compare(capsys):
    rc = main(["compare", "--mix", "H4", "-n", "500",
               "--prefetchers", "none"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalized" in out
    assert "none+emc" in out


def test_profiles(capsys):
    rc = main(["profiles"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "H10" in out
    assert "high" in out and "low" in out


def test_figure_unknown(capsys):
    rc = main(["figure", "not-a-figure"])
    assert rc == 2


def test_figures_map_to_existing_files():
    import pathlib
    bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
    for path in FIGURES.values():
        assert (bench_dir / path).exists(), path


def test_verbose_run(capsys):
    rc = main(["run", "--mix", "H4", "-n", "500", "-v"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total cycles" in out
    assert "energy" in out


def test_sweep_subcommand(capsys):
    rc = main(["sweep", "--mix", "H4", "-n", "400", "--emc",
               "--set", "emc.max_load_depth=1,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best:" in out
    assert "emc.max_load_depth" in out


def test_sweep_bad_spec(capsys):
    rc = main(["sweep", "--mix", "H4", "-n", "400",
               "--set", "malformed-no-equals"])
    assert rc == 2


def test_sweep_value_parsing():
    from repro.cli import _parse_value
    assert _parse_value("true") is True
    assert _parse_value("False") is False
    assert _parse_value("3") == 3
    assert _parse_value("0.5") == 0.5
    assert _parse_value("cancel") == "cancel"


def test_trace_subcommand(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    rc = main(["trace", "--mix", "H1", "-n", "800", "--emc",
               "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "traced" in out
    assert "core miss" in out
    import json
    assert json.loads(out_path.read_text())["traceEvents"]


def test_trace_subcommand_limit(capsys):
    rc = main(["trace", "--mix", "H1", "-n", "800", "--limit", "5"])
    assert rc == 0
    assert "traced 5 requests" in capsys.readouterr().out


def test_trace_without_workload_fails(capsys):
    rc = main(["trace", "-n", "500"])
    assert rc == 2


def test_run_trace_flag_prints_attribution(capsys):
    rc = main(["run", "--mix", "H1", "-n", "800", "--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency attribution" in out
    assert "core miss" in out


def test_workload_subcommand(capsys):
    rc = main(["workload", "--benchmark", "mcf", "-n", "500"])
    assert rc == 0
    assert "mcf" in capsys.readouterr().out
