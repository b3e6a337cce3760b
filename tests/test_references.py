"""Replay of the benchmark's pinned outputs.

`perfbench/references.json` maps the command line of every benchmark job to
"<exit code>:<sha256 of stdout>".  Each line runs here through `cli.main` in
process, so a change to a job's stdout bytes or exit code fails the tests
and not only a benchmark run.  The file is only read.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

from schubert_unions import cli

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def test_benchmark_references_replay(monkeypatch):
    monkeypatch.delenv(cli.GUARD_ENV, raising=False)
    refs = json.loads(REFERENCES.read_text())
    assert refs
    changed = []
    for line, want in refs.items():
        # a byte stream under a text layer, as the benchmark captures stdout
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", newline="\n"))
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        rc = cli.main(line.split(" "))
        sys.stdout.flush()
        if f"{rc}:{hashlib.sha256(raw.getvalue()).hexdigest()}" != want:
            changed.append(line)
    assert changed == [], f"{len(changed)} of {len(refs)} changed, e.g. {changed[:3]}"
