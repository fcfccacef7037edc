"""The command-line transcript: tests/transcripts/cli.txt, replayed in process.

A run that differs from its record fails with the two records' diff; a
change that moves an output on purpose regenerates the file with
``PYTHONPATH=src python tests/transcripts/generate.py``.
"""

import difflib

import pytest
from transcripts.generate import TRANSCRIPT, battery, record, setup


def test_transcript_replays(tmp_path, monkeypatch):
    expected = TRANSCRIPT.read_text().rstrip("\n").split("\n\n")
    setup(tmp_path)
    monkeypatch.chdir(tmp_path)
    cases = battery()
    for index, case in enumerate(cases):
        got = record(case, tmp_path)
        recorded = expected[index] if index < len(expected) else ""
        if got != recorded:
            diff = difflib.unified_diff(recorded.splitlines(), got.splitlines(),
                                        "cli.txt", "replay", n=6, lineterm="")
            pytest.fail(f"run {index + 1} of {len(cases)} differs:\n" + "\n".join(diff))
    assert len(expected) == len(cases), "cli.txt holds runs the battery no longer makes"
