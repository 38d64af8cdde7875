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


REPORT_FAMILY_A = (
    "n = 5, d = 3, f = 3, m = 3\n"
    "parallel-class bound m(n-m-d+2) = 3: satisfied\n"
    "dichotomy (f >= 2n-2d, or f <= n with m >= n-d+1): satisfied\n"
    "membership: 3 in F(T^3,5) = {l >= 3}\n"
)

VERDICTS_FAMILY_A = (
    '"verdicts": {"d": 3, "n": 5, "f": 3, "m": 3, "parallel_bound": 3, '
    '"parallel_ok": true, "dichotomy_applicable": true, "dichotomy_ok": true, '
    '"membership_ok": true, "set": {"kind": "interval_plus_ray", "interval": [3, 5], '
    '"ray_start": 4}}}\n'
)


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

    def test_witnesses_text_exact(self, family_a, capsys):
        assert main(["count", family_a, "--witnesses"]) == 0
        assert capsys.readouterr().out == (
            "f = 3\n"
            "witness: 1/2 1/2 1/8\n"
            "witness: 1/2 1/2 3/8\n"
            "witness: 1/2 1/2 5/8\n"
        )

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

    @pytest.mark.parametrize(
        "command",
        [["count"], ["count", "--json"], ["verify"], ["bounds"], ["intersect", "--pair", "1", "2"]],
    )
    def test_file_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "bad.tarr"
        path.write_bytes(b"\xff\xfe")
        assert main([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr() == ("", "error: byte 0: not UTF-8 text\n")

    def test_file_with_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.tarr"
        path.write_bytes(b"\xef\xbb\xbfdim 1\n1 : 1/2\n")
        assert main(["count", str(path)]) == 0
        assert capsys.readouterr() == ("f = 1\n", "")

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

    def test_witnesses_respect_the_sheet_cap(self, family_a, capsys):
        assert main(["count", family_a, "--witnesses", "--max-sheets", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "exceeding the cap of 2" in err
        assert main(["count", family_a, "--witnesses", "--max-sheets", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "non-negative" in err

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

    def test_quiet_json_prints_and_keeps_exit_code(self, capsys):
        assert main(["feasible", "2", "6", "--test", "7", "--quiet", "--json"]) == 2
        assert capsys.readouterr() == (
            '{"command": "feasible", "d": 2, "n": 6, "set": {"kind": "interval_plus_ray", '
            '"interval": [5, 6], "ray_start": 8}, "verdicts": {"l": 7, "member": false}}\n',
            "",
        )

    def test_invalid_params(self, capsys):
        assert main(["feasible", "0", "3"]) == 1

    def test_dimension_one_json(self, capsys):
        assert main(["feasible", "1", "4", "--json"]) == 0
        assert capsys.readouterr() == (
            '{"command": "feasible", "d": 1, "n": 4, "set": {"kind": "singleton_n", "value": 4}}\n',
            "",
        )


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

    def test_output_file_notes(self, tmp_path, capsys):
        out = str(tmp_path / "made.tarr")
        assert main(["construct", "3", "8", "11", "-o", out]) == 0
        assert capsys.readouterr() == ("", f"wrote {out}\n")
        assert main(["construct", "3", "8", "11", "-o", out, "--json"]) == 0
        assert capsys.readouterr() == (
            '{"command": "construct", "d": 3, "n": 8, "f": 11, "path": '
            + json.dumps(out)
            + "}\n",
            "",
        )

    @pytest.mark.parametrize("json_opt", [[], ["--json"]])
    @pytest.mark.parametrize("target", ["", "missing/made.tarr"])
    def test_unwritable_output(self, tmp_path, capsys, json_opt, target):
        out = str(tmp_path / target)
        assert main(["construct", "3", "5", "3", "-o", out, *json_opt]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith(f"error: cannot write {out}: ") and stderr.count("\n") == 1

    def test_json_embeds_tarr(self, tmp_path, capsys):
        assert main(["construct", "3", "5", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f"] == 3
        path = tmp_path / "embedded.tarr"
        path.write_text(payload["tarr"])
        assert main(["count", str(path)]) == 0
        assert capsys.readouterr().out == "f = 3\n"

    def test_max_sheets_flag_and_env(self, capsys, monkeypatch):
        # The arrangement for f = 61 lifts to 65 sheets, one over the default cap.
        assert main(["construct", "3", "4", "61"]) == 3
        assert "exceeding the cap" in capsys.readouterr().err
        assert main(["construct", "3", "4", "61", "--max-sheets", "65"]) == 0
        assert capsys.readouterr().out.startswith("# constructed: d=3 n=4 f=61 (verified)\n")
        monkeypatch.setenv("TORUSARR_MAX_SHEETS", "100000")
        assert main(["construct", "3", "4", "61", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["f"] == 61
        assert main(["construct", "3", "4", "61", "--max-sheets", "64"]) == 3
        capsys.readouterr()
        monkeypatch.setenv("TORUSARR_MAX_SHEETS", "many")
        assert main(["construct", "3", "4", "61"]) == 1

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


    def test_exact_output(self, family_a, capsys):
        assert main(["verify", family_a]) == 0
        assert capsys.readouterr() == (REPORT_FAMILY_A + "verdict: OK\n", "")
        assert main(["verify", family_a, "--json"]) == 0
        assert capsys.readouterr() == (
            '{"command": "verify", "d": 3, "n": 5, "f": 3, "m": 3, ' + VERDICTS_FAMILY_A,
            "",
        )

    def test_exact_output_without_dichotomy(self, tmp_path, capsys):
        path = tmp_path / "two.tarr"
        path.write_text("dim 3\n1 0 0 : 1/2\n0 1 0 : 1/3\n")
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr() == (
            "n = 2, d = 3, f = 1, m = 1\n"
            "parallel-class bound m(n-m-d+2) = 0: satisfied\n"
            "dichotomy: not applicable (needs n > d >= 2)\n"
            "membership: 1 in F(T^3,2) = N\n"
            "verdict: OK\n",
            "",
        )

    def test_exact_output_for_no_subtori(self, tmp_path, capsys):
        path = tmp_path / "empty.tarr"
        path.write_text("dim 2\n")
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr() == (
            "n = 0, d = 2, f = 1, m = 0\n"
            "parallel-class bound m(n-m-d+2) = 0: satisfied\n"
            "dichotomy: not applicable (needs n > d >= 2)\n"
            "membership: empty arrangement, complement is the whole torus (f = 1): satisfied\n"
            "verdict: OK\n",
            "",
        )


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


    @pytest.mark.parametrize("given_f", [[], ["--f", "3"]])
    def test_exact_output(self, family_a, capsys, given_f):
        assert main(["bounds", family_a, *given_f]) == 0
        assert capsys.readouterr() == (REPORT_FAMILY_A, "")
        assert main(["bounds", family_a, *given_f, "--json"]) == 0
        assert capsys.readouterr() == (
            '{"command": "bounds", "d": 3, "n": 5, "f": 3, "m": 3, ' + VERDICTS_FAMILY_A,
            "",
        )

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_violation_report_on_stderr(self, family_a, capsys, json_flag):
        assert main(["bounds", family_a, "--f", "2", *json_flag]) == 4
        assert capsys.readouterr() == (
            "",
            "error: counted arrangement violates proven bounds: f=2 < parallel bound 3 "
            "(m=3); f=2 outside achievable set {l >= 3}\n"
            "n = 5, d = 3, f = 2, m = 3\n"
            "parallel-class bound m(n-m-d+2) = 3: VIOLATED\n"
            "dichotomy (f >= 2n-2d, or f <= n with m >= n-d+1): satisfied\n"
            "membership: 2 NOT IN F(T^3,5) = {l >= 3}\n",
        )


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_args(self, capsys):
        assert main(["count"]) == 1

    def test_bad_int(self, capsys):
        assert main(["feasible", "two", "3"]) == 1


class TestFailures:
    @pytest.mark.parametrize(
        "argv, env, code",
        [
            pytest.param(["count", "{missing}"], {}, 1, id="unreadable-file"),
            pytest.param(["count", "{not_utf8}"], {}, 1, id="not-utf8"),
            pytest.param(["count"], {}, 1, id="missing-argument"),
            pytest.param(["frobnicate"], {}, 1, id="unknown-command"),
            pytest.param(["feasible", "two", "3"], {}, 1, id="bad-int"),
            pytest.param(["count", "{family_a}"], {"TORUSARR_MAX_SHEETS": "x"}, 1, id="bad-env-cap"),
            pytest.param(["intersect", "{family_a}", "--pair", "1", "9"], {}, 1, id="pair-range"),
            pytest.param(["intersect", "{family_a}", "--pair", "2", "2"], {}, 1, id="pair-equal"),
            pytest.param(["construct", "3", "5", "3", "-o", "{dir}"], {}, 1, id="unwritable-output"),
            pytest.param(["construct", "3", "8", "9"], {}, 2, id="not-feasible"),
            pytest.param(["count", "{family_a}", "--max-sheets", "2"], {}, 3, id="sheet-cap"),
        ],
    )
    def test_one_error_line_and_exit_code(
        self, family_a, tmp_path, capsys, monkeypatch, argv, env, code
    ):
        not_utf8 = tmp_path / "not_utf8.tarr"
        not_utf8.write_bytes(b"\xff\xfe")
        paths = {
            "family_a": family_a,
            "missing": str(tmp_path / "nope.tarr"),
            "not_utf8": str(not_utf8),
            "dir": str(tmp_path),
        }
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main([arg.format(**paths) for arg in argv]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
