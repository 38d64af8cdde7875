import json

import pytest

from torusarr import regions
from torusarr.cli import main

FAMILY_A = """# parallel family
dim 3
1 0 0 : 0/1
0 1 0 : 0/1
0 0 1 : 1/4
0 0 1 : 1/2
0 0 1 : 3/4
"""


@pytest.fixture
def family_a(tmp_path):
    path = tmp_path / "family_a.tarr"
    path.write_text(FAMILY_A)
    return str(path)


class TestCount:
    def test_text(self, family_a, capsys):
        assert main(["count", family_a]) == 0
        assert capsys.readouterr().out == "f = 3\n"

    def test_witnesses_text(self, family_a, capsys):
        assert main(["count", family_a, "--witnesses"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "f = 3"
        witness_lines = [l for l in out[1:] if l.startswith("witness: ")]
        assert len(witness_lines) == 3
        for line in witness_lines:
            parts = line.removeprefix("witness: ").split()
            assert len(parts) == 3 and all("/" in p for p in parts)

    def test_witnesses_build_the_complex_once(self, family_a, capsys, monkeypatch):
        calls = []
        build = regions._build
        monkeypatch.setattr(regions, "_build", lambda *args: calls.append(args) or build(*args))
        assert main(["count", family_a, "--witnesses"]) == 0
        assert capsys.readouterr().out.startswith("f = 3\n")
        assert len(calls) == 1

    def test_json(self, family_a, capsys):
        assert main(["count", family_a, "--json", "--witnesses"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "count"
        assert (payload["d"], payload["n"], payload["f"]) == (3, 5, 3)
        assert len(payload["witnesses"]) == 3

    def test_missing_file(self, tmp_path, capsys):
        assert main(["count", str(tmp_path / "nope.tarr")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.tarr"
        path.write_text("dim 2\n1 0\n")
        assert main(["count", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_max_sheets_flag_and_env(self, family_a, capsys, monkeypatch):
        assert main(["count", family_a, "--max-sheets", "2"]) == 3
        assert "exceeding the cap" in capsys.readouterr().err
        monkeypatch.setenv("TORUSARR_MAX_SHEETS", "2")
        assert main(["count", family_a]) == 3
        capsys.readouterr()
        assert main(["count", family_a, "--max-sheets", "64"]) == 0
        capsys.readouterr()
        assert main(["count", family_a, "--max-sheets", "-1"]) == 1
        assert "non-negative" in capsys.readouterr().err
        monkeypatch.setenv("TORUSARR_MAX_SHEETS", "-1")
        assert main(["count", family_a]) == 1

    def test_bad_env_value(self, family_a, capsys, monkeypatch):
        monkeypatch.setenv("TORUSARR_MAX_SHEETS", "many")
        assert main(["count", family_a]) == 1


class TestIntersect:
    def test_coordinate_pair(self, family_a, capsys):
        assert main(["intersect", family_a, "--pair", "1", "3"]) == 0
        assert capsys.readouterr().out == "components = 1\n"

    def test_json(self, family_a, capsys):
        assert main(["intersect", family_a, "--pair", "1", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "command": "intersect",
            "d": 3,
            "n": 5,
            "pair": [1, 2],
            "f": 1,
        }

    def test_skew_pair(self, tmp_path, capsys):
        path = tmp_path / "pair.tarr"
        path.write_text("dim 2\n2 3 : 0/1\n4 5 : 0/1\n")
        assert main(["intersect", str(path), "--pair", "1", "2"]) == 0
        assert capsys.readouterr().out == "components = 2\n"

    def test_parallel_pair_is_error(self, family_a, capsys):
        assert main(["intersect", family_a, "--pair", "3", "4"]) == 1
        assert "proportional" in capsys.readouterr().err

    def test_index_validation(self, family_a, capsys):
        assert main(["intersect", family_a, "--pair", "1", "9"]) == 1
        assert main(["intersect", family_a, "--pair", "2", "2"]) == 1


class TestFeasible:
    def test_set_text(self, capsys):
        assert main(["feasible", "3", "8"]) == 0
        assert capsys.readouterr().out == "F(T^3,8) = {6..8} U {l >= 10}\n"

    def test_membership_text(self, capsys):
        assert main(["feasible", "3", "8", "--test", "9"]) == 0
        assert capsys.readouterr().out == "9 not in F(T^3,8)\n"
        assert main(["feasible", "3", "8", "--test", "8"]) == 0
        assert capsys.readouterr().out == "8 in F(T^3,8)\n"

    def test_quiet_exit_codes(self, capsys):
        assert main(["feasible", "2", "6", "--test", "7", "--quiet"]) == 2
        assert main(["feasible", "2", "6", "--test", "8", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_json(self, capsys):
        assert main(["feasible", "3", "8", "--test", "9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["set"] == {
            "kind": "interval_plus_ray",
            "interval": [6, 8],
            "ray_start": 10,
        }
        assert payload["verdicts"] == {"l": 9, "member": False}

    def test_invalid_params(self, capsys):
        assert main(["feasible", "0", "3"]) == 1


class TestConstruct:
    def test_stdout_then_recount(self, tmp_path, capsys):
        assert main(["construct", "2", "4", "6"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "made.tarr"
        path.write_text(text)
        assert main(["count", str(path)]) == 0
        assert capsys.readouterr().out == "f = 6\n"

    def test_output_file_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "made.tarr")
        assert main(["construct", "3", "8", "11", "-o", out]) == 0
        capsys.readouterr()
        assert main(["count", out]) == 0
        assert capsys.readouterr().out == "f = 11\n"

    def test_json_embeds_tarr(self, tmp_path, capsys):
        assert main(["construct", "3", "5", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f"] == 3
        path = tmp_path / "embedded.tarr"
        path.write_text(payload["tarr"])
        assert main(["count", str(path)]) == 0
        assert capsys.readouterr().out == "f = 3\n"

    def test_gap_exit_code_and_message(self, capsys):
        assert main(["construct", "3", "8", "9"]) == 2
        err = capsys.readouterr().err
        assert "{6..8} U {l >= 10}" in err


class TestVerify:
    def test_ok(self, family_a, capsys):
        assert main(["verify", family_a]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "f = 3" in out and "m = 3" in out

    def test_json(self, family_a, capsys):
        assert main(["verify", family_a, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "verify"
        assert payload["f"] == 3 and payload["m"] == 3
        assert payload["verdicts"]["parallel_ok"] is True
        assert payload["verdicts"]["membership_ok"] is True


class TestBounds:
    def test_with_given_f(self, family_a, capsys):
        assert main(["bounds", family_a, "--f", "3"]) == 0
        out = capsys.readouterr().out
        assert "parallel-class bound" in out

    def test_violating_f_exits_4(self, family_a, capsys):
        assert main(["bounds", family_a, "--f", "2"]) == 4
        err = capsys.readouterr().err
        assert "violates" in err

    def test_recomputes_without_f(self, family_a, capsys):
        assert main(["bounds", family_a]) == 0
        assert "f = 3" in capsys.readouterr().out

    def test_json(self, family_a, capsys):
        assert main(["bounds", family_a, "--f", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "bounds"
        assert payload["verdicts"]["dichotomy_ok"] is True


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_args(self, capsys):
        assert main(["count"]) == 1

    def test_bad_int(self, capsys):
        assert main(["feasible", "two", "3"]) == 1
