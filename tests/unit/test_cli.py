"""Unit tests for the command-line interface."""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.cli import main
from repro.core.matching import IterativeMatchingEngine
from repro.core.soa import SoAMatchingEngine
from repro.errors import ConfigurationError


def _printed_ms(output: str) -> dict[str, float]:
    """The ``label: N ms`` lines of a command's output."""
    times = {}
    for line in output.splitlines():
        label, _, value = line.partition(":")
        if value.strip().endswith(" ms"):
            times[label.strip()] = float(value.split()[0])
    return times


@contextmanager
def _engine_spies():
    """Count the calls of both matching kernels' ``run`` (still run)."""
    with mock.patch.object(
        SoAMatchingEngine, "run", autospec=True,
        side_effect=SoAMatchingEngine.run,
    ) as soa_run, mock.patch.object(
        IterativeMatchingEngine, "run", autospec=True,
        side_effect=IterativeMatchingEngine.run,
    ) as object_run:
        yield soa_run, object_run


def _profile_rows(output: str) -> list[list[str]]:
    """The per-round rows of ``run --profile``'s phase table."""
    lines = output.splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.startswith(" round")
    )
    rows = [line.split() for line in lines[start + 2:]]
    return rows[:[row[0] for row in rows].index("total")]


class TestCliBasics:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRunCommand:
    def test_run_dmra(self, capsys):
        assert main(["run", "--ues", "60", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "total profit:" in output
        assert "edge served:" in output
        assert "allocator:          dmra" in output

    def test_run_prints_wall_and_allocation_time(self, capsys):
        """``wall time`` spans scenario build through accounting;
        ``allocation time`` is the allocator's share of it."""
        assert main(["run", "--ues", "60", "--seed", "1"]) == 0
        times = _printed_ms(capsys.readouterr().out)
        assert set(times) == {"allocation time", "wall time"}
        assert 0 < times["allocation time"] < times["wall time"]

    def test_shards_is_not_a_run_option(self):
        """The static allocation has one execution path; only the
        stream (``dmra serve --shards``) tiles the region."""
        with pytest.raises(SystemExit):
            main(["run", "--ues", "40", "--shards", "2"])

    def test_profile_prints_round_phase_table(self, capsys):
        assert main(["run", "--ues", "500", "--seed", "1", "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index(
            f"{'round':>6} {'proposals':>10} {'accepted':>9} {'cloud':>6} "
            f"{'propose ms':>11} {'accept ms':>10}"
        )
        # A rule, one row per round from round 1, then the totals.
        assert set(lines[header + 1]) == {"-"}
        assert lines[header + 2].split()[0] == "1"
        assert lines[-1].split()[0] == "total"

    def test_profile_times_the_kernel_that_allocated(self, capsys):
        """``--kernel soa --profile`` re-runs the SoA kernel, never the
        object engine, and the table's productive rounds are the
        printed ``matching rounds``."""
        with _engine_spies() as (soa_run, object_run):
            assert main([
                "run", "--ues", "500", "--seed", "1", "--kernel", "soa",
                "--profile",
            ]) == 0
        assert soa_run.call_count == 2  # the allocation, then the profile
        assert object_run.call_count == 0
        output = capsys.readouterr().out
        printed = int(output.split("matching rounds:")[1].split()[0])
        rows = _profile_rows(output)
        assert sum(1 for row in rows if int(row[1]) > 0) == printed > 0

    def test_dcsp_profile_runs_on_the_object_engine(self, capsys):
        with _engine_spies() as (soa_run, object_run):
            assert main([
                "run", "--ues", "500", "--seed", "1", "--allocator", "dcsp",
                "--profile",
            ]) == 0
        assert object_run.call_count == 2
        assert soa_run.call_count == 0
        assert _profile_rows(capsys.readouterr().out)

    def test_profile_needs_a_matching_allocator(self):
        with pytest.raises(ConfigurationError, match="--profile"):
            main([
                "run", "--ues", "500", "--seed", "1",
                "--allocator", "nonco", "--profile",
            ])

    def test_run_each_allocator(self, capsys):
        for name in ("dcsp", "nonco", "greedy", "random", "cloud-only"):
            assert main(["run", "--allocator", name, "--ues", "40"]) == 0
            assert "total profit:" in capsys.readouterr().out

    def test_run_with_scenario_options(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--ues", "40",
                    "--placement", "random",
                    "--iota", "1.1",
                    "--rho", "50",
                ]
            )
            == 0
        )
        assert "total profit:" in capsys.readouterr().out


class TestInspectCommand:
    def test_inspect_reports_populations(self, capsys):
        assert main(["inspect", "--ues", "40"]) == 0
        output = capsys.readouterr().out
        assert "5 SPs" in output
        assert "25 BSs" in output
        assert "per-SP deployments:" in output
        assert "aggregate capacity:" in output


class TestCompareCommand:
    def test_compare_table(self, capsys):
        assert (
            main(["compare", "--ues", "60", "--allocators", "dmra", "nonco"])
            == 0
        )
        output = capsys.readouterr().out
        assert "dmra" in output and "nonco" in output
        assert "profit" in output


class TestFigureCommand:
    def test_figure_smoke_with_csv(self, capsys, tmp_path):
        assert (
            main(
                [
                    "figure", "fig2",
                    "--scale", "smoke",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Fig. 2" in output
        assert "legend:" in output
        assert (tmp_path / "fig2.csv").exists()

    def test_figure_unknown_id(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["figure", "fig99", "--scale", "smoke"])


class TestBoundCommand:
    def test_bound_both_methods_with_baselines(self, capsys):
        assert main([
            "bound", "--ues", "60", "--seed", "1",
            "--method", "both", "--baselines", "auction",
        ]) == 0
        output = capsys.readouterr().out
        assert "lp bound:" in output
        assert "lagrangian bound:" in output
        assert "certified gap:" in output
        assert "auction:" in output

    def test_bound_writes_metric_families(self, tmp_path, capsys):
        target = tmp_path / "bound.json"
        assert main([
            "bound", "--ues", "60", "--seed", "1",
            "--metrics", str(target),
        ]) == 0
        capsys.readouterr()
        import json

        document = json.loads(target.read_text())
        names = {family["name"] for family in document["families"]}
        assert "dmra_gap_fraction" in names
        assert "dmra_bound_upper" in names

    def test_run_with_bound_flag(self, capsys):
        assert main([
            "run", "--ues", "60", "--seed", "1",
            "--bound", "lagrangian",
        ]) == 0
        output = capsys.readouterr().out
        assert "upper bound:" in output
        assert "certified gap:" in output

    def test_run_each_strategic_baseline(self, capsys):
        for name in ("best-response", "potential-game", "auction"):
            assert main(["run", "--allocator", name, "--ues", "40"]) == 0
            assert "total profit:" in capsys.readouterr().out
