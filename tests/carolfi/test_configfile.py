"""Artifact-style config files (Appendix A.4 workflow)."""

import pytest

from repro.carolfi.configfile import load_config, main, run_from_config
from repro.carolfi.flipscript import SitePolicy
from repro.faults.models import FaultModel
from repro.faults.outcome import InjectionRecord
from repro.util.jsonlog import load_records

_CONFIG = """
[carol-fi]
benchmark = nw
injections = 30
seed = 5
fault_models = single, zero
policy = footprint
log = {log}

[benchmark.params]
n = 16
rows_per_step = 4
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "nw.conf"
    path.write_text(_CONFIG.format(log=tmp_path / "nw.jsonl"))
    return path


def test_load_config_full(config_path, tmp_path):
    config, log_path = load_config(config_path)
    assert config.benchmark == "nw"
    assert config.injections == 30
    assert config.seed == 5
    assert config.fault_models == (FaultModel.SINGLE, FaultModel.ZERO)
    assert config.policy is SitePolicy.FOOTPRINT
    assert config.benchmark_params == {"n": 16, "rows_per_step": 4}
    assert log_path == tmp_path / "nw.jsonl"


def test_defaults_when_minimal(tmp_path):
    path = tmp_path / "min.conf"
    path.write_text("[carol-fi]\nbenchmark = lud\n")
    config, log_path = load_config(path)
    assert config.injections == 1000
    assert config.fault_models == FaultModel.all()
    assert config.policy is SitePolicy.WEIGHTED
    assert log_path is None


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/path.conf")


def test_missing_section(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("[other]\nx = 1\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_unknown_benchmark(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("[carol-fi]\nbenchmark = linpack\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_run_from_config_writes_log(config_path, tmp_path):
    result = run_from_config(config_path, repetitions=12)
    assert len(result) == 12
    assert result.config.benchmark_params["n"] == 16
    assert (tmp_path / "nw.jsonl").exists()
    records = [InjectionRecord.from_dict(raw) for raw in load_records(tmp_path / "nw.jsonl")]
    assert len(records) == 12


def test_repetitions_validated(config_path):
    with pytest.raises(ValueError):
        run_from_config(config_path, repetitions=0)


def test_cli(config_path, capsys):
    assert main([str(config_path), "8"]) == 0
    out = capsys.readouterr().out
    assert "nw: 8 injections" in out
    assert "masked" in out


def test_repetitions_preserve_other_settings(config_path):
    result = run_from_config(config_path, repetitions=8)
    assert result.config.seed == 5
    assert result.config.fault_models == (FaultModel.SINGLE, FaultModel.ZERO)
