"""The ``--jobs`` gate: telemetry files do not depend on the worker count.

Every entry point with ``--jobs`` and telemetry flags runs at ``jobs=1``
and ``jobs=2``; the ledger JSONL, the metrics ``deterministic_view`` and
the trace JSONL must be byte-identical. Pool workers record into fresh
sessions that the parent absorbs in task order, so nothing recorded in
a worker is lost.
"""

import json

import pytest

from repro import cli
from repro.obs.registry import deterministic_view

FIGURE2_RUNS = 300

#: name -> (argv, telemetry flags the case writes)
CASES = {
    "figure2": (
        ["figure2", "--protocol", "full-ack", "--runs", str(FIGURE2_RUNS),
         "--horizon", "200", "--backend", "fastpath", "--profile"],
        ("ledger", "metrics"),
    ),
    "netexp": (
        ["netexp", "--topology", "fat-tree", "--size", "4", "--paths", "16",
         "--adversaries", "1", "--adversary-rate", "0.1",
         "--protocol", "paai1", "--horizon", "4000", "--seed", "3",
         "--shards", "4"],
        ("ledger", "metrics"),
    ),
    "report": (
        ["report", "--scale", "smoke"],
        ("metrics", "trace"),
    ),
}


def metrics_view(payload):
    """The seed-deterministic content of a ``--metrics-out`` file, as
    canonical JSON."""
    if "experiments" in payload:  # report telemetry
        snapshots = [payload["merged_metrics"]] + [
            entry["metrics"] for entry in payload["experiments"]
        ]
    else:
        snapshots = [payload, payload.get("companion_wire_run", {})]
    return json.dumps(
        [deterministic_view(snapshot) for snapshot in snapshots],
        sort_keys=True,
    )


def run_case(name, jobs, out_dir, capsys):
    argv, flags = CASES[name]
    out_dir.mkdir()
    files = {flag: out_dir / f"{flag}.out" for flag in flags}
    extra = []
    for flag, path in files.items():
        extra += [f"--{flag}-out", str(path)]
    if name == "report":
        extra += ["--out", str(out_dir / "report.txt")]
    cli.main(argv + extra + ["--jobs", str(jobs)])
    capsys.readouterr()
    outputs = {}
    for flag, path in files.items():
        text = path.read_text()
        outputs[flag] = (
            metrics_view(json.loads(text)) if flag == "metrics" else text
        )
    return outputs, files


@pytest.mark.parametrize("name", sorted(CASES))
def test_telemetry_identical_across_jobs(name, tmp_path, capsys):
    serial, _ = run_case(name, 1, tmp_path / "jobs1", capsys)
    parallel, files = run_case(name, 2, tmp_path / "jobs2", capsys)
    for flag in serial:
        assert parallel[flag] == serial[flag], f"{flag} differs at jobs=2"
    if "trace" in files:
        spans = [json.loads(line) for line in serial["trace"].splitlines()]
        assert spans
        for span in spans:
            times = [event["t"] for event in span["events"]]
            assert times == sorted(times), f"span mixes runs: {span['path']}"
    if name == "figure2":
        cli.main(["explain", "--ledger", str(files["ledger"])])
        index = capsys.readouterr().out
        for run in range(FIGURE2_RUNS):
            assert f"run {run}: convicted" in index
        assert "no verdict recorded" not in index
