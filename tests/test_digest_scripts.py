"""Each digest script checks its own coverage: it exits 0 when its sweep
reached every count in its ``REACH``, and 1 when one of them is 0.  The
verdict digest also exits 1 when a seed in its ``PINNED`` prints another
digest."""

import importlib
import sys
from collections import Counter

import pytest
from verdict_digest import PINNED

# each script's digest result, built from its coverage counts
RESULTS = {
    "plan_digest": lambda counts: {"sha": "", **counts},
    "parse_digest": lambda counts: ("", 0, Counter(counts)),
    "verdict_digest": lambda counts: (PINNED[1], 0, Counter(counts)),
    "catalog_digest": lambda counts: {"catalogs": 0, "sort": "", "pareto": "",
                                      "budgeted": "", "reader": "", **counts},
}


@pytest.mark.parametrize("name", RESULTS)
def test_a_digest_script_exits_1_when_a_count_is_0(monkeypatch, capsys, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts its paths first
    script = importlib.import_module(name)
    reached = dict.fromkeys(script.REACH, 1)
    for missed in (None, *script.REACH):
        counts = {**reached, missed: 0} if missed else reached
        monkeypatch.setattr(script, "digest", lambda seed, c=counts: RESULTS[name](c))
        code, err = script.main(["1"]), capsys.readouterr().err
        if missed is None:
            assert (code, err) == (0, "")
        else:
            assert code == 1 and missed in err


def test_the_verdict_digest_exits_1_when_a_pinned_seed_moves(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts its paths first
    script = importlib.import_module("verdict_digest")
    counts = Counter(dict.fromkeys(script.REACH, 1))
    moved = "0" * 64
    monkeypatch.setattr(script, "digest", lambda seed: (moved, 0, counts))
    assert script.main(["1"]) == 1
    err = capsys.readouterr().err
    assert PINNED[1] in err and moved in err
    assert 2 not in PINNED  # an unpinned seed is not compared
    assert (script.main(["2"]), capsys.readouterr().err) == (0, "")
