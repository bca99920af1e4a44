"""Output does not depend on the hash seed: a transcript of CLI and library
calls (``tests/transcript.py``) is byte-identical under two seeds."""

import os
import subprocess
import sys
from pathlib import Path

import cpnet

TRANSCRIPT = Path(__file__).with_name("transcript.py")


def test_transcript_does_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(cpnet.__file__).parents[1])
    runs = [
        subprocess.Popen(
            [sys.executable, str(TRANSCRIPT), str(tmp_path / str(seed))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
        )
        for seed in (0, 1)
    ]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err.decode()
        outputs.append(out)
    assert outputs[0] == outputs[1]
    text = outputs[0].decode()
    # the transcript reached every part: queries, a capped report, the digit net
    assert text.count("$ cpnet ") == 9 * (6 + 3 * 30) + 6
    assert "… and 411 more missing CPT rows for C" in text
    assert "$ cpnet validate digits.cpnet\n[0]\nok\n" in text
