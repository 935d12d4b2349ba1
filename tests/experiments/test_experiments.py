"""Experiment harness: every figure module runs and renders."""

import difflib
import io
from pathlib import Path

import pytest

from repro.benchmarks.registry import BEAM_BENCHMARKS, INJECTION_BENCHMARKS
from repro.experiments import (
    criticality,
    extrapolation,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    mitigation,
)
from repro.experiments.data import ExperimentData
from repro.experiments.runner import EXPERIMENTS, print_experiments
from repro.faults.outcome import Outcome

#: The stdout of ``repro-experiments --seed 31 --scale 0.04``.
PINNED = Path(__file__).resolve().parents[1] / "fixtures" / "experiments_seed31_scale0.04.txt"


@pytest.fixture(scope="module")
def data() -> ExperimentData:
    """Tiny shared campaigns: enough to exercise every figure path."""
    return ExperimentData(seed=31, scale=0.04)


def test_data_scaling():
    assert ExperimentData(scale=1.0).beam_trials == 1500
    assert ExperimentData(scale=1.0).injections == 1600
    assert ExperimentData(scale=0.001).injections == 50  # floor
    with pytest.raises(ValueError):
        ExperimentData(scale=0.0)


def test_data_caches_campaigns(data):
    first = data.injection("lud")
    second = data.injection("lud")
    assert first is second


def test_data_caches_hardened_campaigns(data):
    assert data.hardened("lud") is data.hardened("lud")
    with pytest.raises(KeyError):
        data.hardened("linpack")


def test_data_checkpoints_and_replays_every_kind(tmp_path):
    """Beam and hardened campaigns get checkpoint directories of their own."""
    first = ExperimentData(seed=31, scale=0.04, checkpoint_root=tmp_path)
    beam, injection, hardened = first.beam("lud"), first.injection("lud"), first.hardened("lud")
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"beam-lud-seed31-n60", "lud-seed31-n64", "hardened-lud-seed31-n64"}
    events = []
    again = ExperimentData(seed=31, scale=0.04, checkpoint_root=tmp_path, progress=events.append)
    assert again.beam("lud").trials == beam.trials
    assert again.injection("lud").records == injection.records
    replayed = again.hardened("lud")
    assert replayed.records == hardened.records
    assert (replayed.verify_kib_per_step, replayed.guard_bytes) == (
        hardened.verify_kib_per_step,
        hardened.guard_bytes,
    )
    assert events and {e.event for e in events} == {"replayed"}


def test_data_rejects_wrong_subsets(data):
    with pytest.raises(KeyError):
        data.beam("nw")  # NW was never irradiated
    with pytest.raises(KeyError):
        data.injection("linpack")


def test_figure2_reports_all_beam_benchmarks(data):
    result = figure2.run(data)
    assert set(result.reports) == set(BEAM_BENCHMARKS)
    for report in result.reports.values():
        assert report.sdc.fit >= 0
        assert report.due.fit >= 0
    text = figure2.render(result)
    assert "Figure 2" in text and "dgemm" in text and "paper SDC" in text


def test_figure2_single_element_fraction_low(data):
    result = figure2.run(data)
    # Section 4.3: <10% of corrupted executions have one wrong element;
    # at tiny campaign sizes allow slack but require a clear minority.
    for name, fraction in result.single_element_fraction.items():
        assert fraction <= 0.5, name


def test_figure3_curves_monotone(data):
    result = figure3.run(data)
    assert set(result.curves) == set(BEAM_BENCHMARKS)
    for curve in result.curves.values():
        reductions = [red for _, red in curve]
        assert reductions == sorted(reductions)
    assert "mantissa" in figure3.render(result)


def test_figure4_shares(data):
    result = figure4.run(data)
    assert set(result.shares) == set(INJECTION_BENCHMARKS)
    for shares in result.shares.values():
        assert sum(shares.values()) == pytest.approx(1.0)
    assert "masked" in figure4.render(result)


def test_figure5_pvf_tables(data):
    result = figure5.run(data)
    for table in (result.sdc, result.due):
        assert set(table) == set(INJECTION_BENCHMARKS)
        for by_model in table.values():
            assert set(by_model) <= {"single", "double", "random", "zero"}
            assert all(0.0 <= v <= 100.0 for v in by_model.values())
    assert "Figure 5a" in figure5.render(result)


def test_figure6_windows_match_benchmarks(data):
    result = figure6.run(data)
    assert "lavamd" not in result.sdc
    assert len(result.sdc["clamr"]) <= 9
    assert len(result.sdc["lud"]) <= 4
    peak = result.peak_window("clamr", Outcome.SDC)
    assert 0 <= peak < 9
    assert "Figure 6a" in figure6.render(result)


def test_criticality_tables(data):
    result = criticality.run(data)
    assert set(result.portions) == set(INJECTION_BENCHMARKS)
    most = result.most_critical("dgemm")
    assert most in ("matrices", "control")
    assert "portion" in criticality.render(result)


def test_extrapolation(data):
    result = extrapolation.run(data)
    assert set(result.trinity) == set(BEAM_BENCHMARKS)
    for projections in result.trinity.values():
        for projection in projections.values():
            assert projection.boards == 19_000
            assert projection.mtbf_hours > 0
    assert "Trinity" in extrapolation.render(result)


def test_mitigation(data):
    result = mitigation.run(data)
    assert set(result.abft) == set(BEAM_BENCHMARKS)
    assert set(result.coverage) == set(INJECTION_BENCHMARKS)
    for report in result.coverage.values():
        assert 0.0 <= report.coverage_fraction <= 1.0
        assert report.expected_detections <= report.covered_faults + 1e-9
    assert "ABFT" in mitigation.render(result)


def test_all_ten_artifacts_match_the_pin(data):
    """Every rendered artifact, byte for byte, as committed.

    Regenerate the pin with::

        repro-experiments --seed 31 --scale 0.04 \\
            > tests/fixtures/experiments_seed31_scale0.04.txt

    and only in a change whose stated purpose is to change records or
    rendering: any other difference here is a regression.
    """
    out = io.StringIO()
    print_experiments(list(EXPERIMENTS), data, out)
    rendered = out.getvalue()
    pinned = PINNED.read_text(encoding="utf-8")
    if rendered != pinned:
        diff = difflib.unified_diff(
            pinned.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            fromfile=str(PINNED.name),
            tofile="rendered",
        )
        pytest.fail("rendered artifacts differ from the pin:\n" + "".join(diff))
