"""Append perfbench results to the repository's benchmark ledger.

Each workload has a repo-root ``BENCH_<workload>.json``: a JSON list
with one entry per measured tree, oldest first, one entry per line.  An entry summarises
several runs of ``perfbench/run.py --workload <workload> --trace 0``
on one tree from their saved standard output (the ``stamp`` line and
the final JSON result line):

* ``label`` (e.g. ``parent``, ``change``) and ``commit`` — the
  ``--commit`` given, else the stamp's git commit when that commit's
  ``src/**/*.py`` hashes to the stamp's ``source_sha256``; otherwise
  ``null``: a run of an uncommitted or modified tree, which the
  stamp's ``source_sha256`` still pins (the stamp names the checked-out
  commit even when ``src/`` differs from it);
* ``stamp``: the stamp fields every run shares (source hash, host
  CPUs, Python and NumPy versions, workers, runs per kernel, host
  speed reference) and the median host-speed probe;
* ``seeds`` (each run's ``--seed``), ``input_seeds`` and ``runs``;
* ``metrics``: for each end-to-end metric, its unit, the median and
  the quartiles over the runs' values, and the values in run order;
* ``correct`` (runs whose result says ``"correct": true``),
  ``attempted`` and ``failed`` totals.

Quartiles are ``statistics.quantiles(values, n=4, method="inclusive")``.

Usage::

    python benchmarks/ledger.py --workload beam --label parent \\
        [--commit SHA] RUN_OUTPUT...

Standard library and ``git`` only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path, PurePosixPath
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Stamp fields that differ from run to run, summarised separately.
PER_RUN_STAMP = ("seed", "input_seeds", "probe_s", "commit")


def parse_run(text: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """The stamp and the result of one saved perfbench run."""
    stamp = None
    result = None
    for line in text.splitlines():
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp ") :])
        elif line.startswith("{"):
            result = json.loads(line)
    if stamp is None or result is None:
        raise ValueError("not a perfbench run: no stamp line or no result line")
    return stamp, result


def committed_source_sha256(commit: str, repo: Path) -> str | None:
    """``src/**/*.py`` at ``commit``, hashed as ``perfbench/run.py``'s stamp hashes a tree.

    Files go in ``Path`` order (part by part, so ``a/b.py`` sorts
    before ``a.py``), each adding its repository-relative path, a NUL
    byte and its contents.  None when ``git`` cannot read the commit.
    """
    try:
        listing = subprocess.run(
            ["git", "ls-tree", "-r", "-z", commit, "--", "src"],
            cwd=repo,
            capture_output=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    blobs = {}
    for item in filter(None, listing.split(b"\0")):
        meta, _, name = item.partition(b"\t")
        kind, blob = meta.split()[1:]
        path = PurePosixPath(name.decode())
        if kind == b"blob" and path.name.endswith(".py"):
            blobs[path] = blob
    paths = sorted(blobs)
    batch = subprocess.run(
        ["git", "cat-file", "--batch"],
        cwd=repo,
        capture_output=True,
        check=True,
        input=b"".join(blobs[path] + b"\n" for path in paths),
    ).stdout
    sha = hashlib.sha256()
    pos = 0
    for path in paths:
        header_end = batch.index(b"\n", pos)
        size = int(batch[pos:header_end].split()[2])
        body = batch[header_end + 1 : header_end + 1 + size]
        sha.update(str(path).encode() + b"\0" + body)
        pos = header_end + 1 + size + 1
    return sha.hexdigest()


def summarise(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def entry(label: str, commit: str | None, runs: list[str]) -> dict[str, Any]:
    """One ledger entry from the saved output of ``runs``."""
    parsed = [parse_run(text) for text in runs]
    stamps = [stamp for stamp, _ in parsed]
    shared = {k: v for k, v in stamps[0].items() if k not in PER_RUN_STAMP}
    for stamp in stamps[1:]:
        for key, value in shared.items():
            if stamp.get(key) != value:
                raise ValueError(f"runs disagree on stamp field {key!r}")
    if commit is None:
        stamped = stamps[0].get("commit")
        if stamped and committed_source_sha256(stamped, ROOT) == shared["source_sha256"]:
            commit = stamped
    metrics: dict[str, Any] = {}
    for name, metric in parsed[0][1]["metrics"].items():
        values = [result["metrics"][name]["value"] for _, result in parsed]
        metrics[name] = {"unit": metric["unit"], **summarise(values)}
    return {
        "label": label,
        "commit": commit,
        "stamp": {**shared, "probe_s": statistics.median(s["probe_s"] for s in stamps)},
        "seeds": [s["seed"] for s in stamps],
        "input_seeds": sorted({seed for s in stamps for seed in s["input_seeds"]}),
        "runs": len(parsed),
        "metrics": metrics,
        "correct": sum(1 for _, result in parsed if result["correct"]),
        "attempted": sum(result["attempted"] for _, result in parsed),
        "failed": sum(result["failed"] for _, result in parsed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit")
    parser.add_argument("outputs", nargs="+", type=Path)
    args = parser.parse_args(argv)
    ledger = ROOT / f"BENCH_{args.workload}.json"
    entries = json.loads(ledger.read_text()) if ledger.exists() else []
    entries.append(entry(args.label, args.commit, [p.read_text() for p in args.outputs]))
    # One entry per line: appending a run adds a line to the diff.
    ledger.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{ledger}: {len(entries)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
