"""The benchmark ledger names a commit only for the tree that commit holds."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ledger():
    """A private copy of ``benchmarks/ledger.py``, so a test may repoint its ``ROOT``."""
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "benchmarks" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _repo(path: Path) -> Path:
    """A throwaway repository whose ``src`` sorts differently as paths and as strings."""
    for name, text in {
        "src/pkg/__init__.py": "",
        "src/pkg/a.py": "A = 1\n",
        "src/pkg/a/b.py": "B = 2\n",
        "src/pkg/data.txt": "not hashed\n",
        "README": "outside src\n",
    }.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
    _git(path, "init", "-q")
    _git(path, "add", "-A")
    _git(path, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "seed")
    return path


def _stamp(repo: Path) -> dict:
    """``perfbench/run.py``'s own source stamp of ``repo``."""
    code = (
        "import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
        "import run; run.ROOT = Path(sys.argv[2]); print(json.dumps(run.source_stamp()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(repo)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def _append(ledger, repo: Path, stamp: dict, *args: str) -> dict:
    """Append two runs with ``stamp`` to a ledger; return the new entry."""
    outputs = []
    for seed in (1, 2):
        run_stamp = {**stamp, "seed": seed, "input_seeds": [seed], "probe_s": 0.1}
        result = {
            "correct": True,
            "attempted": 5,
            "failed": 0,
            "metrics": {"wall_s": {"unit": "s", "value": float(seed)}},
        }
        out = repo / f"run-{seed}.txt"
        out.write_text(f"stamp {json.dumps(run_stamp)}\n{json.dumps(result)}\n")
        outputs.append(str(out))
    assert ledger.main(["--workload", "w", "--label", "change", *args, *outputs]) == 0
    return json.loads((repo / "BENCH_w.json").read_text())[-1]


def test_clean_stamp_keeps_its_commit_and_a_dirty_one_gets_null(ledger, tmp_path):
    repo = _repo(tmp_path / "repo")
    ledger.ROOT = repo
    head = _git(repo, "rev-parse", "HEAD")
    clean = _stamp(repo)
    assert clean["commit"] == head
    assert ledger.committed_source_sha256(head, repo) == clean["source_sha256"]
    assert _append(ledger, repo, clean)["commit"] == head

    (repo / "src/pkg/a/b.py").write_text("B = 3\n")
    dirty = _stamp(repo)
    assert dirty["commit"] == head  # the stamp names HEAD whatever the tree holds
    assert _append(ledger, repo, dirty)["commit"] is None
    assert _append(ledger, repo, dirty, "--commit", "abc123")["commit"] == "abc123"

    (repo / "src/pkg/a/b.py").write_text("B = 2\n")
    (repo / "src/pkg/new.py").write_text("")
    assert _append(ledger, repo, _stamp(repo))["commit"] is None


def test_unknown_commit_gets_null(ledger, tmp_path):
    repo = _repo(tmp_path / "repo")
    ledger.ROOT = repo
    stamp = {**_stamp(repo), "commit": "0" * 40}
    assert ledger.committed_source_sha256("0" * 40, repo) is None
    assert _append(ledger, repo, stamp)["commit"] is None
