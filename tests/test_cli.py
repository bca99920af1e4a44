"""Command-line surface: flags, outputs, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpnet
from cpnet.cli import main
from helpers import DIGITS, FIXTURES, wide_text


@pytest.fixture()
def chain2_path():
    return str(FIXTURES / "chain2.cpnet")


@pytest.fixture()
def chain3_path():
    return str(FIXTURES / "chain3.cpnet")


@pytest.fixture()
def indep3_path():
    return str(FIXTURES / "indep3.cpnet")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys, chain2_path):
        code, out, _ = run(capsys, "validate", chain2_path)
        assert code == 0
        assert out.strip() == "ok"

    def test_cycle_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.cpnet"
        bad.write_text(
            "var A: a, abar\nvar B: b, bbar\nparents A: B\nparents B: A\n"
            "cpt A | B=b: a > abar\ncpt A | B=bbar: a > abar\n"
            "cpt B | A=a: b > bbar\ncpt B | A=abar: b > bbar\n"
        )
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "cycle" in err

    def test_parse_error_positioned(self, capsys, tmp_path):
        bad = tmp_path / "bad.cpnet"
        bad.write_text("var A: a, abar\ncpt A: a > zzz\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "2:" in err and "zzz" in err

    def test_byte_order_mark_is_not_text(self, capsys, chain2_path, tmp_path):
        net = tmp_path / "bom.cpnet"
        net.write_bytes(b"\xef\xbb\xbf" + FIXTURES.joinpath("chain2.cpnet").read_bytes())
        assert run(capsys, "validate", str(net)) == (0, "ok\n", "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.cpnet")
        assert code == 2
        assert "cannot read" in err

    def test_values_may_start_with_a_digit(self, capsys, tmp_path):
        net = tmp_path / "digits.cpnet"
        net.write_text(DIGITS)
        assert run(capsys, "validate", str(net)) == (0, "ok\n", "")
        code, out, _ = run(capsys, "dominates", str(net), "--better", "A=1,B=2x",
                           "--worse", "A=0,B=1x", "--witness")
        assert code == 0
        assert out == "dominates\nA: 0 -> 1  [rule: true]\nB: 1x -> 2x  [rule: A=1]\n"

    def test_a_name_that_starts_with_a_digit_parses_then_fails_validation(
        self, capsys, tmp_path
    ):
        net = tmp_path / "name.cpnet"
        net.write_text("var 1A: a, b\ncpt 1A: a > b\n")
        result = cpnet.parse_cpnet(net.read_text())
        assert result.ok
        assert cpnet.validate(result.net).problems == ["variable name '1A' is not an identifier"]
        assert run(capsys, "validate", str(net)) == (
            1, "", "variable name '1A' is not an identifier\n"
        )

    def test_a_capped_report_exits_one(self, capsys, tmp_path):
        net = tmp_path / "wide.cpnet"
        net.write_text(wide_text(24))
        code, out, err = run(capsys, "validate", str(net))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "… and 16777115 more missing CPT rows for C"
        assert len(err.splitlines()) == 101

    def test_missing_rows_do_not_depend_on_the_hash_seed(self, tmp_path):
        net = tmp_path / "rows.cpnet"
        net.write_text(
            "var A: a0, a1, a2, a3, a4, a5\nvar B: b, bbar\nparents B: A\n"
            "cpt A: a0 > a1 > a2 > a3 > a4 > a5\ncpt B | A=a0: b > bbar\n"
        )
        script = "import sys; from cpnet.cli import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(cpnet.__file__).parents[1])
        errors = set()
        for seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script, "validate", str(net)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert done.returncode == 1
            errors.add(done.stderr)
        assert len(errors) == 1
        (err,) = errors
        rows = [line for line in err.splitlines() if line.startswith("missing CPT row")]
        assert rows == [f"missing CPT row for B under A=a{k}" for k in range(1, 6)]


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "{bad}"],
        ["best", "{bad}"],
        ["dominates", "{bad}", "--better", "A=a,B=b", "--worse", "A=abar,B=b"],
        ["pareto", "{good}", "--catalog", "{bad}"],
        ["sort", "{good}", "--catalog", "{bad}"],
    ],
    ids=lambda command: command[0],
)
def test_undecodable_file_is_input_error(capsys, chain2_path, tmp_path, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"var A: a, \xe9\n")
    code, _, err = run(capsys, *(word.format(bad=bad, good=chain2_path) for word in command))
    assert code == 2
    assert err.startswith(f"cannot read {bad}: ")


class TestBest:
    def test_best(self, capsys, chain2_path):
        code, out, _ = run(capsys, "best", chain2_path)
        assert code == 0
        assert out.strip() == "A=a,B=b"

    def test_worst(self, capsys, chain2_path):
        code, out, _ = run(capsys, "best", chain2_path, "--worst")
        assert code == 0
        assert out.strip() == "A=abar,B=b"


class TestDominates:
    def test_positive_with_witness_and_stats(self, capsys, chain3_path):
        code, out, _ = run(
            capsys,
            "dominates",
            chain3_path,
            "--better", "A=abar,B=bbar,C=c",
            "--worse", "A=abar,B=b,C=cbar",
            "--direction", "worsening",
            "--witness",
            "--stats",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dominates"
        assert lines[1] == "B: bbar -> b  [rule: A=abar]"
        assert lines[2] == "C: c -> cbar  [rule: B=b]"
        assert lines[3].startswith("expansions=")
        assert "direction=worsening" in lines[3]
        assert lines[3].endswith("decided_by=search")

    @pytest.mark.parametrize("name, better, worse, stats", [
        ("chain3", "A=a,B=b,C=c", "A=abar,B=bbar,C=cbar",
         "expansions=3 backtracks=0 direction=improving decided_by=search"),
        ("polytree8", "A=a,B=bbar,C=cbar,D=dbar,E=ebar,F=f,G=g,H=hbar",
         "A=a,B=bbar,C=c,D=d,E=e,F=f,G=gbar,H=h",
         "expansions=8 backtracks=0 direction=improving decided_by=search"),
    ])  # committed, then not
    def test_stats_without_witness_build_no_witness(self, capsys, monkeypatch, name, better,
                                                    worse, stats):
        def refuse(self, moves, direction):
            raise AssertionError("dominates built a witness it does not print")

        monkeypatch.setattr(cpnet.search._Core, "path", refuse)
        code, out, _ = run(capsys, "dominates", str(FIXTURES / f"{name}.cpnet"),
                           "--better", better, "--worse", worse, "--stats")
        assert (code, out) == (0, f"dominates\n{stats}\n")

    def test_stats_name_the_prune_refutation(self, capsys):
        code, out, _ = run(
            capsys,
            "dominates",
            str(FIXTURES / "polytree8.cpnet"),
            "--better", "A=a,B=b,C=c,D=d,E=ebar,F=f,G=g,H=h",
            "--worse", "A=a,B=b,C=c,D=d,E=e,F=f,G=gbar,H=h",
            "--stats",
        )
        assert code == 1
        assert out.splitlines() == [
            "not-dominated",
            "expansions=0 backtracks=0 direction=none decided_by=prune",
        ]

    def test_negative(self, capsys, chain3_path):
        code, out, _ = run(
            capsys,
            "dominates",
            chain3_path,
            "--better", "A=a,B=bbar,C=c",
            "--worse", "A=abar,B=bbar,C=cbar",
        )
        assert code == 1
        assert out.strip() == "not-dominated"

    def test_budget_exhaustion_exit_code(self, capsys, chain3_path):
        code, out, _ = run(
            capsys,
            "dominates",
            chain3_path,
            "--better", "A=a,B=b,C=c",
            "--worse", "A=abar,B=b,C=cbar",
            "--budget", "1",
            "--direction", "improving",
        )
        assert code == 3
        assert out.strip() == "budget-exhausted"

    def test_heuristic_flags_accepted(self, capsys, chain3_path):
        code, out, _ = run(
            capsys,
            "dominates",
            chain3_path,
            "--better", "A=abar,B=bbar,C=c",
            "--worse", "A=abar,B=b,C=cbar",
            "--no-suffix-fixing",
            "--no-suffix-extension",
            "--no-rightmost",
            "--no-least-improving",
            "--no-dedup",
        )
        assert code == 0

    def test_bad_outcome_is_usage_error(self, capsys, chain2_path):
        code, _, err = run(
            capsys,
            "dominates",
            chain2_path,
            "--better", "A=a",
            "--worse", "A=abar,B=b",
        )
        assert code == 2
        assert "missing binding" in err


class TestPrune:
    def test_infeasible(self, capsys):
        path = str(FIXTURES / "polytree8.cpnet")
        code, out, _ = run(
            capsys,
            "prune",
            path,
            "--better", "A=a,B=bbar,C=c,D=d,E=e,F=f,G=g,H=h",
            "--worse", "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h",
        )
        assert code == 1
        assert "infeasible at B" in out

    def test_feasible(self, capsys, chain3_path):
        code, out, _ = run(
            capsys,
            "prune",
            chain3_path,
            "--better", "A=a,B=b,C=c",
            "--worse", "A=abar,B=b,C=cbar",
        )
        assert code == 0
        assert "feasible" in out


class TestExportStrips:
    def test_deterministic_file(self, capsys, chain3_path, tmp_path):
        out_path = tmp_path / "problem.pddl"
        args = (
            "export-strips",
            chain3_path,
            "--better", "A=a,B=b,C=c",
            "--worse", "A=abar,B=b,C=cbar",
            "--direction", "improving",
            "-o", str(out_path),
        )
        code, out, _ = run(capsys, *args)
        assert code == 0
        first = out_path.read_bytes()
        code, _, _ = run(capsys, *args)
        assert code == 0
        assert out_path.read_bytes() == first
        text = first.decode()
        assert "(define (domain" in text
        assert "(define (problem" in text

    @pytest.mark.parametrize("target", ["missing/problem.pddl", "."])
    def test_unwritable_output_is_input_error(self, capsys, chain2_path, tmp_path, target):
        output = tmp_path / target
        code, out, err = run(
            capsys,
            "export-strips",
            chain2_path,
            "--better", "A=a,B=b",
            "--worse", "A=abar,B=b",
            "-o", str(output),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot write {output}: ")

    def test_equal_outcomes_rejected(self, capsys, chain2_path, tmp_path):
        code, _, err = run(
            capsys,
            "export-strips",
            chain2_path,
            "--better", "A=a,B=b",
            "--worse", "A=a,B=b",
            "-o", str(tmp_path / "x.pddl"),
        )
        assert code == 2
        assert "x = y" in err


class TestPareto:
    def test_json_report(self, capsys, chain2_path, tmp_path):
        catalog = tmp_path / "items.csv"
        catalog.write_text("id,A,B\nr1,a,b\nr2,a,bbar\nr3,abar,bbar\nr4,abar,b\n")
        code, out, _ = run(
            capsys, "pareto", chain2_path, "--catalog", str(catalog), "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["nondominated"] == ["r1"]
        assert len(report["dominated"]) == 3

    def test_equal_rank_pair_is_decided_within_budget(self, capsys, chain3_path, tmp_path):
        catalog = tmp_path / "items.csv"
        catalog.write_text("id,A,B,C\np,a,bbar,c\nq,abar,bbar,cbar\n")
        code, out, _ = run(
            capsys,
            "pareto",
            chain3_path,
            "--catalog", str(catalog),
            "--budget", "1",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["nondominated"] == ["p", "q"]
        assert report["undecided"] == []
        assert report["comparisons_run"] == 0

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_undecided_exit_code(self, capsys, indep3_path, tmp_path, as_json):
        catalog = tmp_path / "items.csv"
        catalog.write_text("id,A,B,C\np,a,b,c\nq,a,bbar,cbar\n")
        code, out, _ = run(
            capsys,
            "pareto",
            indep3_path,
            "--catalog", str(catalog),
            "--budget", "1",
            *(["--json"] if as_json else []),
        )
        assert code == 3
        if as_json:
            assert json.loads(out)["undecided"] == [["p", "q"]]
        else:
            assert "undecided: p vs q" in out.splitlines()

    def test_bad_catalog_is_input_error(self, capsys, chain2_path, tmp_path):
        catalog = tmp_path / "items.csv"
        catalog.write_text("id,A\nr1,a\n")
        code, _, err = run(capsys, "pareto", chain2_path, "--catalog", str(catalog))
        assert code == 2
        assert "missing variable B" in err


class TestSort:
    def test_layers_json(self, capsys, chain3_path, tmp_path):
        catalog = tmp_path / "items.csv"
        catalog.write_text("id,A,B,C\np,a,bbar,c\nq,abar,bbar,cbar\ntop,a,b,c\n")
        code, out, _ = run(
            capsys, "sort", chain3_path, "--catalog", str(catalog), "--json"
        )
        assert code == 0
        layers = json.loads(out)["layers"]
        assert layers[0] == ["top"]
        assert ["p", "q"] in layers

    def test_human_output(self, capsys, chain2_path, tmp_path):
        catalog = tmp_path / "items.csv"
        catalog.write_text("id,A,B\nr1,a,b\nr2,abar,b\n")
        code, out, _ = run(capsys, "sort", chain2_path, "--catalog", str(catalog))
        assert code == 0
        assert out.startswith("layer 0: r1")

    def test_byte_order_marks_are_not_text(self, capsys, chain2_path, tmp_path):
        net = tmp_path / "bom.cpnet"
        net.write_bytes(b"\xef\xbb\xbf" + FIXTURES.joinpath("chain2.cpnet").read_bytes())
        catalog = tmp_path / "items.csv"
        catalog.write_bytes(b"\xef\xbb\xbfid,A,B\nr1,a,b\nr2,abar,b\n")
        code, out, err = run(capsys, "sort", str(net), "--catalog", str(catalog))
        assert (code, out, err) == (0, "layer 0: r1\nlayer 1: r2\n", "")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys, chain2_path):
        assert main(["dominates", chain2_path, "--better", "A=a,B=b"]) == 2


# -- fuzzing: any argv over good and bad files exits 0-3 ---------------------

CHAIN3 = FIXTURES.joinpath("chain3.cpnet").read_text()
OUTCOMES = (
    "A=a,B=b,C=c", "A=abar,B=bbar,C=cbar", "A=a,B=bbar,C=c", "A=abar,B=b,C=cbar",
    "A=a,B=b", "A=zz,B=b,C=c", "A=a,A=a,B=b,C=c", "D=d,A=a,B=b,C=c", "", "=", "A", ",,",
)
BUDGETS = ("0", "-1", "x", "1", "2", "50")
DIRECTIONS = ("improving", "worsening", "bidirectional", "sideways")
SEARCH_SWITCHES = (
    "--no-suffix-fixing", "--no-suffix-extension", "--no-rightmost",
    "--no-least-improving", "--no-dedup", "--witness", "--stats",
)
PATHS = ("net", "broken", "empty", "latin1", "bom", "directory", "missing",
         "catalog", "bad_catalog", "output")


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "net": CHAIN3.encode(),
        "broken": b"var A: a, abar\ncpt A: a > zzz\n",
        "empty": b"",
        "latin1": b"var A: a, \xe9\n",
        "bom": b"\xef\xbb\xbf" + CHAIN3.encode(),
        "catalog": b"id,A,B,C\np,a,bbar,c\nq,abar,bbar,cbar\ntop,a,b,c\np2,a,bbar,c\n",
        "bad_catalog": b"id,A,B,C\np,a,b\np,a,b,zz\n",
    }
    paths = {"directory": str(root), "missing": str(root / "missing" / "file"),
             "output": str(root / "out.strips")}
    for name, data in contents.items():
        (root / name).write_bytes(data)
        paths[name] = str(root / name)
    return paths


def _mostly(good: tuple, bad: tuple) -> st.SearchStrategy:
    """One of ``good`` three times in four, else one of ``bad``."""
    return st.sampled_from((good, good, good, bad)).flatmap(st.sampled_from)


@st.composite
def argvs(draw):
    """A subcommand and a path, then its flags in any order, each present
    or not, with values mostly good and sometimes bad; now and then a stray
    word.  A path is a ``{name}`` placeholder for ``fuzz_paths``."""
    def path(*good):
        return _mostly(good, PATHS).map(lambda name: "{%s}" % name)

    outcome = _mostly(OUTCOMES[:4], OUTCOMES[4:])
    direction = _mostly(DIRECTIONS[:3], DIRECTIONS[3:])
    budget = st.sampled_from(BUDGETS)
    output = st.sampled_from(("{output}", "{directory}", "{missing}"))  # never an input
    command = draw(st.sampled_from(
        ("validate", "best", "dominates", "prune", "export-strips", "pareto", "sort")
    ))
    required, optional = {
        "validate": ([], []),
        "best": ([], [st.just(["--worst"])]),
        "dominates": ([], [st.tuples(st.just("--direction"), direction),
                           st.tuples(st.just("--budget"), budget),
                           *(st.just([switch]) for switch in SEARCH_SWITCHES)]),
        "prune": ([], []),
        "export-strips": ([st.tuples(st.just("-o"), output)],
                          [st.tuples(st.just("--direction"), direction)]),
        "pareto": ([st.tuples(st.just("--catalog"), path("catalog", "bom"))],
                   [st.tuples(st.just("--budget"), budget), st.just(["--json"])]),
        "sort": ([st.tuples(st.just("--catalog"), path("catalog", "bom"))],
                 [st.just(["--json"])]),
    }[command]
    if command in ("dominates", "prune", "export-strips"):
        required += [st.tuples(st.just("--better"), outcome),
                     st.tuples(st.just("--worse"), outcome)]
    chosen = [draw(option) for option in required if draw(st.sampled_from(range(8)))]
    chosen += [draw(option) for option in optional if draw(st.booleans())]
    argv = [command, draw(path("net", "bom"))]
    for words in draw(st.permutations(chosen)):
        argv += words
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("-x", "--", "extra"))))
    return argv


@given(argvs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_any_argv_exits_zero_to_three(fuzz_paths, argv):
    argv = [word.format(**fuzz_paths) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
