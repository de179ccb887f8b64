"""Command-line interface tests.

Every subcommand is driven in-process through ``main(argv)`` so stdout,
stderr, and the exit code can be asserted exactly; one subprocess smoke
test covers the installed ``kh`` console script (skipped where no ``kh``
is on PATH), and another resolves the ``pyproject.toml`` entry point
in-process.  The contract under test: exit 0 on success, 1 on
input/usage errors, 2 on internal invariant violations; JSON output
with sorted keys so identical invocations are byte-identical.
"""

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khcube import SignInconsistency, cli
from khcube.cli import main

TREFOIL_PD = "X(2,5,1,4) X(4,1,3,6) X(6,3,5,2)"

# Arc labels each used twice, but no planar drawing has this slot order:
# two faces where Euler's formula needs four.  Refused as input (exit 1).
NONPLANAR_PD = "X(3,1,3,2) X(1,2,4,4)"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


# ---------------------------------------------------------------------------
# parse


class TestParse:
    def test_corpus_name(self):
        info = run_json("parse", "trefoil")
        assert info["n_crossings"] == 3
        assert info["signs"] == [-1, -1, -1]
        assert info["oriented"] is True
        assert info["n_components"] == 1
        assert info["marked"] == [0, 1, 2]
        assert info["retained"] == []
        assert info["n_minus"] == 3 and info["n_plus"] == 0

    def test_inline_pd_text(self):
        info = run_json("parse", TREFOIL_PD)
        assert info["crossings"] == [[2, 5, 1, 4], [4, 1, 3, 6], [6, 3, 5, 2]]

    def test_inline_json_braid(self):
        info = run_json("parse", '{"braid": [1, 1, 1]}')
        assert info["n_crossings"] == 3
        assert info["n_components"] == 1

    def test_inline_json_pd_with_marked(self):
        src = json.dumps({"pd": [[2, 5, 1, 4], [4, 1, 3, 6], [6, 3, 5, 2]],
                          "marked": [0, 2]})
        info = run_json("parse", src)
        assert info["marked"] == [0, 2]
        assert info["retained"] == [1]

    def test_file_input(self, tmp_path):
        path = tmp_path / "knot.pd"
        path.write_text(TREFOIL_PD)
        info = run_json("parse", str(path))
        assert info["n_crossings"] == 3

    def test_mirror_flag_negates_signs(self):
        info = run_json("parse", "trefoil", "--mirror")
        assert info["signs"] == [1, 1, 1]
        assert info["n_plus"] == 3

    def test_unknot_free_circle(self):
        info = run_json("parse", "unknot")
        assert info["n_crossings"] == 0
        assert info["free_circles"] == 1
        assert info["n_components"] == 1

    def test_pseudo_clasp(self):
        info = run_json("parse", "clasp-plus")
        assert info["marked"] == [0]
        assert info["retained"] == [1]


# ---------------------------------------------------------------------------
# homology


TREFOIL_ROWS = [
    {"h": 0, "q": 1, "free_rank": 1, "torsion": []},
    {"h": 0, "q": 3, "free_rank": 1, "torsion": []},
    {"h": 2, "q": 5, "free_rank": 1, "torsion": []},
    {"h": 3, "q": 7, "free_rank": 0, "torsion": [2]},
    {"h": 3, "q": 9, "free_rank": 1, "torsion": []},
]


class TestHomology:
    def test_trefoil_integral_json(self):
        out = run_json("homology", "trefoil")
        assert out["coefficients"] == "Z"
        assert out["reduced"] is False
        assert out["groups"] == TREFOIL_ROWS

    def test_trefoil_integral_csv(self):
        code, out, _ = run_cli("homology", "trefoil", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "h,q,free_rank,torsion"
        assert "3,7,0,2" in lines
        assert "0,1,1," in lines
        assert len(lines) == 1 + len(TREFOIL_ROWS)

    def test_trefoil_rational(self):
        out = run_json("homology", "trefoil", "--coeffs", "q")
        assert out["coefficients"] == "Q"
        got = {(r["h"], r["q"]): r["rank"] for r in out["groups"]}
        assert got == {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}

    def test_trefoil_reduced(self):
        out = run_json("homology", "trefoil", "--reduced")
        got = {(r["h"], r["q"]): (r["free_rank"], tuple(r["torsion"]))
               for r in out["groups"]}
        assert got == {(0, 1): (1, ()), (2, 5): (1, ()), (3, 7): (1, ())}

    def test_unknot(self):
        out = run_json("homology", "unknot")
        got = {(r["h"], r["q"]) for r in out["groups"]}
        assert got == {(0, 1), (0, -1)}

    def test_mirror_table(self):
        out = run_json("homology", "trefoil", "--mirror")
        got = {(r["h"], r["q"]): (r["free_rank"], tuple(r["torsion"]))
               for r in out["groups"]}
        assert got == {(-3, -9): (1, ()), (-2, -5): (1, ()),
                       (-2, -7): (0, (2,)), (0, -3): (1, ()),
                       (0, -1): (1, ())}

    def test_retained_needs_trust(self):
        src = json.dumps({"pd": [[2, 5, 1, 4], [4, 1, 3, 6], [6, 3, 5, 2]],
                          "marked": []})
        code, _, err = run_cli("homology", src)
        assert code == 1
        assert "input error" in err and "NotAPseudoDiagram" in err
        code, out, _ = run_cli("homology", src, "--trust-pseudo")
        assert code == 0
        assert json.loads(out)["groups"]

    def test_orientation_dependent_state_rejected_even_with_trust(self):
        # Resolving only crossing 0 leaves a state whose two retained
        # crossings join distinct circles with a nonzero sign sum; its
        # writhe depends on circle orientations, so even the trusting
        # build must refuse.
        src = json.dumps({"pd": [[2, 5, 1, 4], [4, 1, 3, 6], [6, 3, 5, 2]],
                          "marked": [0]})
        code, _, err = run_cli("homology", src, "--trust-pseudo")
        assert code == 1
        assert "OrientationDependentWrithe" in err


# ---------------------------------------------------------------------------
# cube / verify


class TestCube:
    def test_trefoil_dump(self):
        out = run_json("cube", "trefoil")
        assert out["n_plus"] == 0 and out["n_minus"] == 3
        assert out["o"] == [1, 1, 1]
        assert len(out["vertices"]) == 8
        assert len(out["edges"]) == 12
        by_v = {tuple(v["v"]): v for v in out["vertices"]}
        assert by_v[(0, 0, 0)]["circles"] == 3
        assert by_v[(1, 1, 1)]["circles"] == 2
        assert all(v["unlink_status"] == "verified"
                   for v in out["vertices"])
        assert all(e["kind"] in ("Split", "Merge") and e["sigma"] == 0
                   for e in out["edges"])

    def test_retained_strict_vs_trust(self):
        src = json.dumps({"pd": [[2, 5, 1, 4], [4, 1, 3, 6], [6, 3, 5, 2]],
                          "marked": []})
        code, _, err = run_cli("cube", src)
        assert code == 1 and "NotAPseudoDiagram" in err
        out = run_json("cube", src, "--trust-pseudo")
        assert len(out["vertices"]) == 1
        assert out["vertices"][0]["writhe"] == -3
        assert out["vertices"][0]["unlink_status"] == "unverified"

    def test_fully_marked_subset_is_verified(self):
        src = json.dumps({"pd": [[2, 5, 1, 4], [4, 1, 3, 6], [6, 3, 5, 2]],
                          "marked": [0, 1]})
        out = run_json("cube", src)
        assert len(out["vertices"]) == 4

    def test_band_edge_kind(self):
        out = run_json("cube", "clasp-plus")
        kinds = {e["kind"] for e in out["edges"]}
        assert kinds == {"NonorientableBand"}
        sigmas = {e["sigma"] for e in out["edges"]}
        assert sigmas == {2}


class TestVerify:
    def test_trefoil_vertices(self):
        out = run_json("verify", "trefoil")
        assert out["genuine"] is True
        assert out["pseudo_diagram"] is True
        assert out["n_vertices"] == 8
        assert out["max_self_intersection"] == 0
        assert out["small_self_intersection"] is True
        assert len(out["vertices"]) == 8
        assert {"v", "circles", "writhe", "unlink_status"} <= set(
            out["vertices"][0])

    def test_clasp_is_pseudo_not_genuine(self):
        out = run_json("verify", "clasp-minus")
        assert out["genuine"] is False
        assert out["pseudo_diagram"] is True
        assert out["n_vertices"] == 2

    def test_against_equal(self):
        out = run_json("verify", "trefoil", "--against", TREFOIL_PD)
        assert out == {"equal": True, "table_size": 5}

    def test_against_mirrors_both_sides(self):
        out = run_json("verify", "trefoil", "--against", TREFOIL_PD,
                       "--mirror")
        assert out == {"equal": True, "table_size": 5}

    def test_against_different(self):
        out = run_json("verify", "trefoil", "--against", "figure8")
        assert out["equal"] is False
        diff = out["first_difference"]
        assert {"bigrading", "left", "right"} == set(diff)

    def test_against_reduced(self):
        out = run_json("verify", "trefoil", "--against", TREFOIL_PD,
                       "--reduced")
        assert out["equal"] is True


# ---------------------------------------------------------------------------
# ss


class TestSpectralSequence:
    def test_default_weight(self):
        out = run_json("ss", "trefoil")
        assert out["weight"] == [1, 0]
        assert out["perturb_seed"] is None
        rs = [page["r"] for page in out["pages"]]
        assert rs == sorted(rs) and rs[0] == 0
        final = out["pages"][-1]
        assert sum(g["rank"] for g in final["groups"]) == 4
        assert all(dr["rank"] == 0 for dr in final["d_ranks"])

    def test_collapse_weight(self):
        out = run_json("ss", "trefoil", "--weight", "0,1")
        for page in out["pages"]:
            if page["r"] >= 1:
                assert all(dr["rank"] == 0 for dr in page["d_ranks"])
        final = out["pages"][-1]
        assert sum(g["rank"] for g in final["groups"]) == 4

    def test_perturbed_conserves_terminal_rank(self):
        out = run_json("ss", "trefoil", "--perturb", "7")
        assert out["perturb_seed"] == 7
        final = out["pages"][-1]
        assert sum(g["rank"] for g in final["groups"]) == 4

    def test_reduced(self):
        out = run_json("ss", "trefoil", "--reduced")
        final = out["pages"][-1]
        assert sum(g["rank"] for g in final["groups"]) == 3

    def test_csv(self):
        code, out, _ = run_cli("ss", "trefoil", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,r,p,complementary,rank"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds <= {"group", "differential"}

    @pytest.mark.parametrize("weight", ["0,0", "1", "1,2,3", "a,b", "1,-1"])
    def test_bad_weight(self, weight):
        code, _, err = run_cli("ss", "trefoil", "--weight", weight)
        assert code == 1
        assert "error" in err


# ---------------------------------------------------------------------------
# alexander / analyze


class TestAlexander:
    def test_trefoil_json(self):
        out = run_json("alexander", "trefoil")
        assert out["alexander"] == [[-1, 1], [0, -1], [1, 1]]
        assert out["rank_lower_bound"] == 3

    def test_csv(self):
        code, out, _ = run_cli("alexander", "figure8", "--format", "csv")
        assert code == 0
        assert out.strip().split("\n") == [
            "exponent,coefficient", "-1,1", "0,-3", "1,1"]

    def test_unknot(self):
        out = run_json("alexander", "unknot")
        assert out["alexander"] == [[0, 1]]
        assert out["rank_lower_bound"] == 1

    def test_link_rejected(self):
        code, _, err = run_cli("alexander", "hopf")
        assert code == 1
        assert "MultiComponent" in err


class TestAnalyze:
    def test_trefoil_chain(self):
        out = run_json("analyze", "trefoil")
        assert out["rank_lower_bound"] == 3
        assert out["total_rank"] == 3
        got = {(r["h"], r["q"]): r["rank"]
               for r in out["reduced_rational_groups"]}
        assert got == {(0, 1): 1, (2, 5): 1, (3, 7): 1}
        assert sum(out["mod4_betti"]) == 3
        assert "feasibility" in out
        assert out["feasibility"]["target_rank"] == 3

    def test_explicit_target(self):
        out = run_json("analyze", "trefoil", "--target-rank", "1")
        assert out["feasibility"]["target_rank"] == 1

    def test_q_filtration(self):
        out = run_json("analyze", "trefoil", "--filtration", "q")
        assert out["feasibility"]["target_rank"] == 3

    def test_parity_mismatch(self):
        code, _, err = run_cli("analyze", "trefoil", "--target-rank", "2")
        assert code == 1
        assert "InfeasibleParity" in err


# ---------------------------------------------------------------------------
# exit codes and error channels


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("parse", "no-such-corpus-name"),
        ("parse", "completely unparsable"),
        ("parse", "X(1,1,1,1) X(2,2,3,3)"),
        ("parse", '{"pd": [[1,2,3,4]], "bogus": 1}'),
        ("parse", '{"braid": [1,1], "marked": [0]}'),
        ("parse", "{not json"),
        ("alexander", "hopf"),
        ("ss", "trefoil", "--weight", "0,0"),
    ])
    def test_input_errors_exit_1(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith(("input error", "error"))

    @pytest.mark.parametrize("text", [
        '{"pd": 5}',
        '{"pd": [[1,2]]}',
        '{"pd": "X(1,2,3,4)"}',
        '{"pd": [[1,2,3,"a"],[1,4,3,2]]}',
        '{"pd": [[1.5,2,3,4],[1,4,3,2]]}',
        '{"pd": [[1,2,3,4],[1,4,3,2]], "marked": 5}',
        '{"pd": [[1,2,3,4],[1,4,3,2]], "marked": ["x"]}',
        '{"pd": [[1,2,3,4],[1,4,3,2]], "free_circles": "a"}',
        '{"pd": [[1,2,3,4],[1,4,3,2]], "free_circles": 1.5}',
        '{"pd": [[1,2,3,4],[1,4,3,2]], "basepoint": [1]}',
        '{"braid": 5}',
        '{"braid": [1], "strands": "x"}',
    ])
    def test_malformed_json_exits_1_without_traceback(self, text):
        proc = subprocess.run(
            [sys.executable, "-m", "khcube.cli", "homology", text],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: MalformedPD")
        assert "Traceback" not in proc.stderr

    def test_usage_error_exit_1(self):
        code, _, err = run_cli("homology", "trefoil", "--coeffs", "zz")
        assert code == 1
        assert "error" in err

    def test_missing_subcommand_exit_1(self):
        code, _, err = run_cli()
        assert code == 1

    def test_unknown_subcommand_exit_1(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 1

    def test_directory_input_exit_1(self, tmp_path):
        code, _, err = run_cli("parse", str(tmp_path))
        assert code == 1
        assert "input error" in err

    @pytest.mark.parametrize("text", [NONPLANAR_PD, "PD[X(1,2,1,2)]"])
    def test_nonplanar_code_exit_1(self, text):
        for cmd in ("parse", "cube", "homology"):
            code, out, err = run_cli(cmd, text)
            assert code == 1
            assert out == ""
            assert err.startswith("input error: MalformedPD: PD code is "
                                  "not planar")

    def test_internal_violation_exit_2(self, monkeypatch):
        # No valid input is known to reach a broken cube, so the
        # violation is raised where the cube is built.
        def broken(*args, **kwargs):
            raise SignInconsistency("edge changes circle count by 0")

        monkeypatch.setattr(cli, "build_cube", broken)
        code, out, err = run_cli("cube", "trefoil")
        assert code == 2
        assert out == ""
        assert err.startswith("internal invariant violation")

    def test_error_output_goes_to_stderr_only(self):
        code, out, err = run_cli("alexander", "hopf")
        assert out == "" and err != ""


# Random input of at most three crossings: PD text, and both JSON forms.
_CROSSINGS = st.lists(st.tuples(*[st.integers(0, 7)] * 4), max_size=3)
_PD_TEXT = _CROSSINGS.map(
    lambda xs: "PD[" + ",".join("X(%d,%d,%d,%d)" % x for x in xs) + "]")
_PD_JSON = st.fixed_dictionaries(
    {"pd": _CROSSINGS.map(lambda xs: [list(x) for x in xs])},
    optional={"marked": st.lists(st.integers(-1, 3), max_size=3),
              "free_circles": st.integers(-1, 2),
              "basepoint": st.integers(0, 8)})
_BRAID_JSON = st.fixed_dictionaries(
    {"braid": st.lists(st.integers(-3, 3), max_size=3)},
    optional={"strands": st.integers(0, 4)})
_FUZZ_INPUT = st.one_of(_PD_TEXT, st.one_of(_PD_JSON, _BRAID_JSON).map(
    json.dumps))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_FUZZ_INPUT, st.sampled_from(["parse", "cube", "homology"]))
    def test_random_input_exits_0_or_1(self, text, cmd):
        code, out, err = run_cli(cmd, text)
        assert code in (0, 1), err
        assert "Traceback" not in err
        assert (code == 0) == (out != "")


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("homology", "trefoil"),
        ("homology", "figure8", "--format", "csv"),
        ("cube", "trefoil"),
        ("ss", "trefoil", "--perturb", "11"),
        ("analyze", "trefoil"),
        ("verify", "clasp-plus"),
    ])
    def test_double_run_byte_identical(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0

    def test_json_keys_sorted(self):
        _, out, _ = run_cli("homology", "trefoil")
        parsed = json.loads(out)
        assert out == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# selftest


class TestSelftest:
    def test_report_format_and_exit(self):
        code, out, _ = run_cli("selftest")
        lines = out.strip().split("\n")
        assert len(lines) == 11
        import re
        line_re = re.compile(
            r"^criterion (\d{2}) (PASS|FAIL) \(\d+\.\ds\) - [^:]+: .+$")
        numbers = []
        statuses = {}
        for line in lines[:-1]:
            m = line_re.match(line)
            assert m, f"malformed selftest line: {line!r}"
            numbers.append(int(m.group(1)))
            statuses[int(m.group(1))] = m.group(2)
        assert numbers == list(range(1, 11))
        passed = sum(1 for s in statuses.values() if s == "PASS")
        assert lines[-1] == f"{passed}/10 criteria passed"
        # exit code reflects any failure
        assert code == (0 if passed == 10 else 1)


# ---------------------------------------------------------------------------
# installed console script


class TestConsoleScript:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "khcube.cli", "homology", "trefoil",
             "--format", "csv"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "h,q,free_rank,torsion"

    @pytest.mark.skipif(shutil.which("kh") is None,
                        reason="no `kh` console script on PATH")
    def test_kh_entry_point(self):
        proc = subprocess.run(
            ["kh", "alexander", "trefoil", "--format", "csv"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "exponent,coefficient", "-1,1", "0,-1", "1,1"]

    def test_kh_script_target(self):
        """The `kh` entry in pyproject.toml resolves to a callable that
        behaves like the installed script."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["kh"]
        assert target == "khcube.cli:main"
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = entry(["alexander", "trefoil", "--format", "csv"])
        assert code == 0
        assert out.getvalue().splitlines() == [
            "exponent,coefficient", "-1,1", "0,-1", "1,1"]
