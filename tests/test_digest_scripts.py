"""Each digest script checks its own coverage: it exits 0 when its sweep
reached every count in its ``REACH``, and 1 when one of them is 0.  It also
exits 1 when a seed in its ``PINNED`` prints another digest."""

import importlib
import sys
from collections import Counter

import pytest

# each script's digest result, built from its coverage counts and digests
RESULTS = {
    "plan_digest": lambda counts, shas: {"sha": shas["plan"], **counts},
    "parse_digest": lambda counts, shas: (shas["parse"], 0, Counter(counts)),
    "verdict_digest": lambda counts, shas: (shas["verdict"], 0, Counter(counts)),
    "catalog_digest": lambda counts, shas: {"catalogs": 0, **shas, **counts},
}


@pytest.mark.parametrize("name", RESULTS)
def test_a_digest_script_exits_1_when_a_count_is_0(monkeypatch, capsys, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts its paths first
    script = importlib.import_module(name)
    reached = dict.fromkeys(script.REACH, 1)
    for missed in (None, *script.REACH):
        counts = {**reached, missed: 0} if missed else reached
        monkeypatch.setattr(script, "digest",
                            lambda seed, c=counts: RESULTS[name](c, script.PINNED[1]))
        code, err = script.main(["1"]), capsys.readouterr().err
        if missed is None:
            assert (code, err) == (0, "")
        else:
            assert code == 1 and missed in err


@pytest.mark.parametrize("name", RESULTS)
def test_a_digest_script_exits_1_when_a_pinned_seed_moves(monkeypatch, capsys, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts its paths first
    script = importlib.import_module(name)
    counts = dict.fromkeys(script.REACH, 1)
    moved = "0" * 64
    for label, pinned in script.PINNED[1].items():
        shas = {**script.PINNED[1], label: moved}
        monkeypatch.setattr(script, "digest", lambda seed, s=shas: RESULTS[name](counts, s))
        assert script.main(["1"]) == 1
        err = capsys.readouterr().err
        assert pinned in err and moved in err
        assert 2 not in script.PINNED  # an unpinned seed is not compared
        assert (script.main(["2"]), capsys.readouterr().err) == (0, "")
