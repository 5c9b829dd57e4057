"""The command line, driven end to end through main()."""

import csv
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tollgate
from tollgate import cli, experiments
from tollgate.cli import main
from tollgate.network import serialize_instance

@pytest.fixture
def fig_file(tmp_path, fig):
    path = tmp_path / "five.npp"
    path.write_text(serialize_instance(fig))
    return path


def test_enumerate_prints_feasible_paths(fig_file, capsys):
    assert main(["enumerate", "--instance", str(fig_file)]) == 0
    out = capsys.readouterr().out
    assert "# commodity 0: 0->4, 3 paths (exhaustive)" in out
    assert "3\t0,1,2,4" in out
    assert "4\t0,1,4" in out
    assert "10\t0,4" in out
    assert "6\t" not in out  # the dominated path stays hidden


def test_enumerate_cap_marks_truncation(fig_file, capsys):
    assert main(["enumerate", "--instance", str(fig_file), "--cap", "2"]) == 0
    assert "(truncated)" in capsys.readouterr().out


def test_enumerate_perturb_changes_costs(fig_file, capsys):
    assert (
        main(["enumerate", "--instance", str(fig_file), "--perturb", "3"]) == 0
    )
    out = capsys.readouterr().out
    assert "3\t0,1,2,4" not in out  # the spine now costs 3 plus noise
    assert "0,1,2,4" in out


def test_reduce_reports_shrinkage(fig_file, capsys):
    assert main(["reduce", "--instance", str(fig_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "commodity\tnodes\tarcs\ttolled"
    assert out[1] == "0\t5->4\t7->5\t3->3"


def test_reduce_spgm(fig_file, capsys):
    assert (
        main(["reduce", "--instance", str(fig_file), "--method", "spgm"]) == 0
    )
    assert "0\t5->4\t7->6\t3->3" in capsys.readouterr().out


def test_build_pure_kind_writes_lp(fig_file, tmp_path, capsys):
    out = tmp_path / "model.lp"
    rc = main(
        [
            "build",
            "--instance",
            str(fig_file),
            "--kind",
            "PCS2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert text.startswith("\\")
    assert "Maximize" in text and "End" in text
    assert "wrote" in capsys.readouterr().out


def test_build_hybrid_to_stdout(fig_file, capsys):
    rc = main(
        [
            "build",
            "--instance",
            str(fig_file),
            "--main",
            "PVF",
            "--breakpoint",
            "4",
        ]
    )
    assert rc == 0
    assert "Subject To" in capsys.readouterr().out


def test_build_kind_bounds_only_exhaustive_sets(fig_file, monkeypatch, capsys):
    # At cap 2 the fixture's one commodity is truncated, so it gets no path
    # bound, and reducing the graph to its paths then fails.
    handed = []
    compute = cli.compute_bigm
    monkeypatch.setattr(
        cli, "compute_bigm", lambda *args: handed.append(args[2]) or compute(*args)
    )
    argv = ["build", "--instance", str(fig_file), "--kind", "STD", "--cap", "2"]
    assert main(argv) == 1
    assert "enumeration cap" in capsys.readouterr().err
    assert handed == [{}]
    assert main(argv[:-2]) == 0
    assert [len(s) for s in handed[1].values()] == [3]


def test_build_needs_exactly_one_mode(fig_file, capsys):
    assert main(["build", "--instance", str(fig_file)]) == 1
    assert "either --kind" in capsys.readouterr().err


def test_build_refuses_cut_loop_kinds(fig_file, capsys):
    rc = main(
        ["build", "--instance", str(fig_file), "--kind", "VFCS1"]
    )
    assert rc == 1
    assert "cut loop" in capsys.readouterr().err


def test_build_refuses_cut_loop_main_kinds(fig_file, capsys):
    rc = main(
        ["build", "--instance", str(fig_file), "--main", "VFCS2", "--breakpoint", "4"]
    )
    assert rc == 1
    assert "cut loop" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--instance", "{bad_arc}"],
        ["enumerate", "--instance", "{bad_commodity}"],
        ["enumerate", "--instance", "{fig}", "--cap", "0"],
        ["reduce", "--instance", "{fig}", "--cap", "-2"],
        ["build", "--instance", "{fig}", "--kind", "STD", "--cap", "0"],
        ["build", "--instance", "{fig}", "--kind", "STD", "--cap", "1"],
        ["build", "--instance", "{fig}", "--main", "PCS2", "--breakpoint", "0"],
        ["build", "--instance", "{missing}", "--kind", "STD"],
        ["generate", "--topology", "grid:3x4", "--commodities", "2",
         "--high-cost-fraction", "2"],
        ["sweep", "--instances", "{fig}", "--kinds", "STD", "--breakpoints", "x"],
        ["sweep", "--instances", "{fig}", "--kinds", "STD", "--breakpoints", "4,0"],
        *(
            ["sweep", "--instances", "{fig}", "--kinds", "STD", "--breakpoints", "4",
             option, value]
            for option, value in (
                ("--budget", "nan"), ("--budget", "-1"), ("--budget", "0"),
                ("--budget", "inf"), ("--budget", "soon"),
                ("--jobs", "0"), ("--jobs", "-2"), ("--jobs", "1.5"),
            )
        ),
    ],
    ids=[
        "arc-node", "commodity-node", "enumerate-cap", "reduce-cap", "build-cap",
        "build-truncated", "breakpoint", "missing-file", "high-cost-fraction",
        "breakpoints-word", "breakpoints-zero",
        "budget-nan", "budget-negative", "budget-zero", "budget-inf", "budget-word",
        "jobs-zero", "jobs-negative", "jobs-fraction",
    ],
)
def test_malformed_input_ends_on_an_error_line(fig_file, tmp_path, capsys, argv):
    # An exception escaping main() would print a traceback instead.
    bad_arc = tmp_path / "bad_arc.npp"
    bad_arc.write_text("npp 2 1 1\narc 0 one 3 T\ncommodity 0 1 1\n")
    bad_commodity = tmp_path / "bad_commodity.npp"
    bad_commodity.write_text("npp 2 1 1\narc 0 1 3 T\ncommodity 0 1.5 1\n")
    paths = {
        "fig": fig_file,
        "bad_arc": bad_arc,
        "bad_commodity": bad_commodity,
        "missing": tmp_path / "missing.npp",
    }
    try:
        status = main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # argparse rejecting an option value
        status = exc.code
    assert status not in (0, None)
    err = capsys.readouterr().err
    assert re.search(r"^(tollgate \w+: )?error: ", err, re.MULTILINE), err


def test_generate_roundtrips_through_enumerate(tmp_path, capsys):
    out = tmp_path / "gen.npp"
    rc = main(
        [
            "generate",
            "--topology",
            "grid:3x3",
            "--commodities",
            "2",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(["enumerate", "--instance", str(out)]) == 0
    assert "# commodity 1:" in capsys.readouterr().out


def test_generate_rejects_bad_topology(capsys):
    rc = main(["generate", "--topology", "ring:9", "--commodities", "2"])
    assert rc == 1
    assert "topology" in capsys.readouterr().err


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    for seed in (0, 1):
        main(
            [
                "generate",
                "--topology",
                "grid:3x3",
                "--commodities",
                "2",
                "--seed",
                str(seed),
                "--out",
                str(tmp_path / f"g{seed}.npp"),
            ]
        )
    capsys.readouterr()
    results = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    rc = main(
        [
            "sweep",
            "--instances",
            str(tmp_path),
            "--kinds",
            "STD,PCS2",
            "--breakpoints",
            "1,8",
            "--budget",
            "60",
            "--out",
            str(results),
            "--summary",
            str(summary),
        ]
    )
    assert rc == 0
    lines = results.read_text().splitlines()
    assert lines[0] == (
        "instance,kind,N,status,objective,gap_pct,enum_s,solve_s,total_s,error"
    )
    assert len(lines) == 1 + 2 * 2 * 2
    assert all(",optimal," in line for line in lines[1:])
    sum_lines = summary.read_text().splitlines()
    assert sum_lines[0] == "kind,N,solved,runs,easy_mean_s,hard_mean_gap_pct"
    assert len(sum_lines) == 1 + 4


def test_sweep_missing_instances_fail_cleanly(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--instances",
            str(tmp_path / "missing-*.npp"),
            "--kinds",
            "STD",
            "--breakpoints",
            "1",
        ]
    )
    assert rc == 1
    assert "no instance files" in capsys.readouterr().err


def test_sweep_solver_cmd_reaches_the_command_backend(
    fig_file, tmp_path, toy_solver_cmd, capsys
):
    # The template also logs each call, which only CommandBackend makes.
    calls = tmp_path / "calls.log"
    rc = main(
        [
            "sweep",
            "--instances",
            str(fig_file),
            "--kinds",
            "STD",
            "--breakpoints",
            "8",
            "--solver-cmd",
            f"{toy_solver_cmd} && echo solved >> {calls}",
        ]
    )
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2
    fields = rows[1].split(",")
    assert fields[3] == "optimal"
    assert float(fields[4]) == pytest.approx(7.0)
    assert calls.read_text().splitlines() == ["solved"]


def test_sweep_rejects_a_solver_cmd_without_placeholders(fig_file, capsys):
    rc = main(
        [
            "sweep",
            "--instances",
            str(fig_file),
            "--kinds",
            "STD",
            "--breakpoints",
            "8",
            "--solver-cmd",
            "highs",
        ]
    )
    assert rc == 1
    assert "error: solver command template" in capsys.readouterr().err


@pytest.fixture
def tie_file(tmp_path):
    # Two tolled routes of base cost 2 tie, over incomparable tolled arcs.
    path = tmp_path / "tie.npp"
    path.write_text(
        "npp 4 5 1\n"
        "arc 0 1 1 T\n"
        "arc 1 3 1 F\n"
        "arc 0 2 1 T\n"
        "arc 2 3 1 F\n"
        "arc 0 3 5 F\n"
        "commodity 0 3 1\n"
    )
    return path


def test_build_reports_tied_path_costs(tie_file, capsys):
    # Neither tied route dominates the other: both are kept, at cost 2.
    assert main(["enumerate", "--instance", str(tie_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "# commodity 0: 0->3, 3 paths (exhaustive)", "2\t0,1,3", "2\t0,2,3", "5\t0,3"
    ]
    rc = main(
        ["build", "--instance", str(tie_file), "--main", "PCS2", "--breakpoint", "8"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # One path variable per kept route.
    assert " z__0_2\nEnd\n" in captured.out and "z__0_3" not in captured.out


@pytest.mark.parametrize(
    "command",
    [
        ["build", "--main", "PCS2", "--breakpoint", "8"],
        ["build", "--kind", "STD"],
        ["reduce"],
    ],
    ids=["build-hybrid", "build-kind", "reduce"],
)
def test_perturb_breaks_ties_for_build_and_reduce(tie_file, capsys, command):
    # Tied costs build and reduce as given, and with --perturb too.
    args = [*command, "--instance", str(tie_file)]
    for extra in ([], ["--perturb", "0"]):
        assert main([*args, *extra]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out
        if command[0] == "reduce":
            # Neither tolled route dominates the other: every arc stays.
            assert out.splitlines()[1] == "0\t4->4\t5->5\t2->2"
        else:
            assert out.startswith("\\ ") and out.endswith("End\n")
            assert "Binaries\n" in out


def _spy_on_builder(monkeypatch, module, name):
    """Record the row families of every model ``module.name`` builds."""
    built = []
    builder = getattr(module, name)

    def spy(*args, **kwargs):
        hybrid = builder(*args, **kwargs)
        built.append(hybrid.ir.tag_counts())
        return hybrid

    monkeypatch.setattr(module, name, spy)
    return built


def test_build_paper_exact_drops_the_inequality(fig_file, capsys, monkeypatch):
    single = _spy_on_builder(monkeypatch, cli, "build_single")
    hybrid = _spy_on_builder(monkeypatch, cli, "assemble_hybrid")
    for flag in ([], ["--paper-exact"]):
        args = ["build", "--instance", str(fig_file)]
        assert main(args + ["--kind", "CS1"] + flag) == 0
        assert main(args + ["--main", "PCS1", "--breakpoint", "8"] + flag) == 0
    capsys.readouterr()
    assert [("vi-sd-aa" in counts) for counts in single] == [True, False]
    assert [("vi-sd-pp" in counts) for counts in hybrid] == [True, False]


def test_sweep_paper_exact_reaches_the_builder(fig_file, capsys, monkeypatch):
    built = _spy_on_builder(monkeypatch, experiments, "assemble_hybrid")
    objectives = []
    for flag in ([], ["--paper-exact"]):
        args = ["sweep", "--instances", str(fig_file), "--kinds", "VFCS1",
                "--breakpoints", "8"]
        assert main(args + flag) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3] == "optimal"
        objectives.append(float(row[4]))
    assert [("vi-sd-ap" in counts) for counts in built] == [True, False]
    assert objectives[0] == pytest.approx(objectives[1])
    assert objectives[0] == pytest.approx(7.0)


def test_sweep_to_stdout_is_pure_csv(tmp_path):
    # On this cell HiGHS writes a debug line to file descriptor 1 while it
    # solves; none of it may reach the CSV.
    src = str(Path(tollgate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    instance = tmp_path / "g17.npp"

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "tollgate.cli", *args],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    cli("generate", "--topology", "grid:5x5", "--commodities", "3",
        "--seed", "17", "--out", str(instance))
    out = cli("sweep", "--instances", str(instance), "--kinds", "VF",
              "--breakpoints", "4000")
    assert out.startswith("instance,kind,N,")
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 2
    assert all(len(row) == 10 for row in rows)
    assert rows[1][3] == "optimal"
    assert rows[1][9] == ""


def test_output_to_a_closed_pipe_ends_quietly(fig_file):
    # The reader is gone before the sweep writes anything, as when `head -1`
    # has its line: no traceback and no "Exception ignored" notice on stderr,
    # whether stdout is buffered or not.
    src = str(Path(tollgate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tollgate.cli", "sweep",
                 "--instances", str(fig_file), "--kinds", "VF,STD",
                 "--breakpoints", "4000"],
                env=env, stdout=writer, stderr=subprocess.PIPE, text=True,
                timeout=120,
            )
        finally:
            os.close(writer)
        assert proc.stderr == ""
        assert proc.returncode == 1


def test_the_package_metadata_matches_what_runs():
    # CI runs the tests from the source tree and never installs the package,
    # so only this test reads what an install would use.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    import scipy

    root = Path(tollgate.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as stream:
        project = tomllib.load(stream)["project"]
    module, _, function = project["scripts"]["tollgate"].partition(":")
    assert callable(getattr(importlib.import_module(module), function))
    (floor,) = [
        d.removeprefix("scipy>=") for d in project["dependencies"] if d.startswith("scipy")
    ]

    def release(version):
        return tuple(map(int, re.match(r"\d+(\.\d+)*", version).group().split(".")))

    assert release(scipy.__version__) >= release(floor)
