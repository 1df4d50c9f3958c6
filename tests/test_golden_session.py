"""Every artifact of a tiny end-to-end run, pinned by its sha256: a
`gen-demos --n 2` library, a 40-iteration noiseless and a 40-iteration
degraded `play`, the degraded session resumed from its first checkpoint,
its `export`, `report --demos` and a `warp`. A report's first line, the
`generated_at` timestamp, is left out of its digest.

A change that keeps every output byte-identical leaves the digests as they
are. A deliberate change of an artifact regenerates them with
`PYTHONPATH=src python tests/test_golden_session.py`."""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from keywarp.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_session_digests.json"
DEGRADED = {"pixel_noise_sigma": 2.0, "outlier_rate": 0.05, "p_tip": 0.05,
            "checkpoint_every": 20, "max_consecutive_failures": 3, "seed": 1}


def _digests(directory: Path) -> dict:
    out = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = data.split(b"\n", 1)[1]
        out[path.relative_to(directory).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def session_digests(root) -> dict:
    """The digests of each step's outputs, run in `root` with paths relative
    to it, since configs and checkpoints record the paths they were given."""
    steps = [
        ("library", ["gen-demos", "--out", "lib", "--n", "2", "--seed", "0"]),
        ("noiseless", ["play", "--demos", "lib", "--out", "noiseless", "--iterations", "40"]),
        ("degraded", ["play", "--config", "degraded.json", "--demos", "lib",
                      "--out", "degraded", "--iterations", "40"]),
        ("resume", ["play", "--resume", "degraded/checkpoints/ckpt_000020.json",
                    "--out", "degraded"]),
        ("export", ["export", "--session", "degraded", "--out", "export"]),
        ("report", ["report", "--log", "degraded/session_log.jsonl", "--demos", "lib",
                    "--out", "report"]),
        ("warp", ["warp", "--demos", "lib", "--task", "pineapple_table_to_shelf",
                  "--world-seed", "3", "--sigma", "2", "--outlier-rate", "0.05",
                  "--out", "warp"]),
    ]
    cwd = os.getcwd()
    os.chdir(root)
    try:
        Path("degraded.json").write_text(json.dumps(DEGRADED))
        digests = {}
        for name, argv in steps:
            assert main(argv) == 0, name
            digests[name] = _digests(Path(argv[argv.index("--out") + 1]))
        return digests
    finally:
        os.chdir(cwd)


def test_every_artifact_of_a_tiny_run_is_byte_identical(tmp_path):
    assert session_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(session_digests(tmp), indent=1, sort_keys=True) + "\n")

