"""End-to-end command tests through run_command."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ciforge
from ciforge import parse
from ciforge.cli import run_command

TWISTED_CUBIC = """\
# twisted cubic in P^3
field: q
vars: T0 T1 T2 T3
point: 1 1 1 1
gens:
T0*T2 - T1^2
T1*T3 - T2^2
T0*T3 - T1*T2
"""

LQR = """\
field: q
vars: T0 T1 T2 T3
point: 1 1 1 1
gens:
T0 - T1
T0*T3 - T1*T2
T0*T2 + T0*T3 - 2*T1*T2
"""


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "twisted_cubic.ideal"
    path.write_text(TWISTED_CUBIC)
    return path


@pytest.fixture
def lqr_file(tmp_path):
    path = tmp_path / "lqr.ideal"
    path.write_text(LQR)
    return path


class TestDecide:
    def test_nonci_exit_3(self, cubic_file, capsys):
        assert run_command(["decide", str(cubic_file)]) == 3
        out = capsys.readouterr().out
        assert "decision: not a complete intersection" in out
        assert "witness:" in out

    def test_ci_exit_0(self, lqr_file, capsys):
        assert run_command(["decide", str(lqr_file)]) == 0
        out = capsys.readouterr().out
        assert "decision: complete intersection" in out
        assert out.count("generator:") == 2

    def test_point_override_off_variety(self, cubic_file, capsys):
        assert run_command(["decide", str(cubic_file), "--point", "1,1,0,0"]) == 2
        assert "does not vanish" in capsys.readouterr().err

    def test_constant_generator_is_refused_at_the_point(self, tmp_path, capsys):
        # The library checks the point before anything reads the degrees.
        path = tmp_path / "constant.ideal"
        path.write_text("field: q\nvars: T0 T1 T2\npoint: 0 1 1\ngens:\nT0\n1\n")
        assert run_command(["decide", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: generator 1 does not vanish at (0:1:1): 1\n"

    def test_missing_point(self, tmp_path, capsys):
        path = tmp_path / "nopoint.ideal"
        path.write_text("field: q\nvars: T0 T1\ngens:\nT0 - T1\n")
        assert run_command(["decide", str(path)]) == 1
        assert "needs a point" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_command(["decide", "does-not-exist.ideal"]) == 1

    @pytest.mark.parametrize("command", ["decide", "dim"])
    def test_undecodable_ideal_file_is_a_parse_error(self, command, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_bytes(TWISTED_CUBIC.encode().replace(b"T1*T3", b"T1*\xffT3"))
        assert run_command([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")

    def test_writes_certificate(self, cubic_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        assert data["kind"] == "non-ci"

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_path_is_an_error(self, cubic_file, tmp_path, capsys, where):
        out = tmp_path / "missing" / "cert.json" if where == "missing-directory" else tmp_path
        assert run_command(["decide", str(cubic_file), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in captured.err

    def test_singular_point_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nodal.ideal"
        path.write_text(
            "field: q\nvars: T0 T1 T2\npoint: 0 0 1\ngens:\n"
            "T1^2*T2 - T0^3 - T0^2*T2\n"
        )
        assert run_command(["decide", str(path)]) == 2
        assert "not a smooth point" in capsys.readouterr().err

    def test_prime_field_warning(self, tmp_path, capsys):
        path = tmp_path / "modp.ideal"
        path.write_text(
            "field: fp 7919\nvars: T0 T1 T2 T3\npoint: 1 1 1 1\ngens:\n"
            "T0*T3 - T1*T2\n"
        )
        assert run_command(["decide", str(path)]) == 0
        assert "Jacobian rank" in capsys.readouterr().err


class TestVerifyCommand:
    def test_round_trip(self, cubic_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        capsys.readouterr()
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 0
        assert "verified: yes" in capsys.readouterr().out

    def test_tampered_certificate(self, cubic_file, lqr_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        # verifying against a different ideal violates the hash precondition
        assert run_command(["verify", str(lqr_file), "--cert", str(cert_path)]) == 2

    def test_corrupted_witness_refuted(self, cubic_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data["witness"] = "T1^2 - T0*T2"  # smooth at the point
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 3
        assert "verified: no" in capsys.readouterr().out

    def test_non_homogeneous_witness_refuted(self, cubic_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data["witness"] += " + T0"
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 3
        assert "verified: no" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "witness",
        ["0", "T0^2 - 2*T0*T1 + T1^2"],
        ids=["zero", "singular-non-member"],
    )
    def test_witness_outside_the_ideal_refuted(self, cubic_file, tmp_path, capsys, witness):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data["witness"] = witness  # its differential vanishes at the point
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 3
        assert "verified: no" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value",
        [
            ("vars", 5),
            ("witness", 5),
            ("point", [1, 1, 1, 1]),
            ("codim", "abc"),
            ("codim", 2.5),
        ],
        ids=[
            "vars-number",
            "witness-number",
            "point-of-numbers",
            "codim-string",
            "codim-float",
        ],
    )
    def test_ill_typed_field_is_a_parse_error(
        self, cubic_file, tmp_path, capsys, key, value
    ):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data[key] = value
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_version_1_certificate_is_a_parse_error(self, cubic_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data.update(format_version=1, trace=[[0, 3]])
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unsupported certificate format version 1" in captured.err

    @pytest.mark.parametrize(
        "text",
        [
            # json.dumps cannot write an int past the conversion limit.
            '{"codim":' + "9" * 5000 + "}",
            '{"a":' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["over-long-integer", "deep-nesting"],
    )
    def test_unreadable_json_is_a_parse_error(self, cubic_file, tmp_path, capsys, text):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(text)
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: certificate is not valid JSON: ")

    def test_undecodable_certificate_is_a_parse_error(self, cubic_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        capsys.readouterr()
        cert_path.write_bytes(b"\xff\xfe" + cert_path.read_bytes())
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {cert_path}: ")

    def test_non_homogeneous_final_generator_with_empty_trace_refuted(
        self, tmp_path, capsys
    ):
        # The input already has codimension size, so the loop takes no step
        # and only the final generators' own check sees the change.
        path = tmp_path / "two-lines.ideal"
        path.write_text("field: q\nvars: T0 T1 T2\npoint: 0 0 1\ngens:\nT0\nT1\n")
        cert_path = tmp_path / "cert.json"
        assert run_command(["decide", str(path), "--out", str(cert_path)]) == 0
        data = json.loads(cert_path.read_text())
        data["final_gens"][1] = "T0 + T1^2"
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_command(["verify", str(path), "--cert", str(cert_path)]) == 3
        assert capsys.readouterr().out == "verified: no\n"

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda text: text.replace("T", "S"),  # rename T0..T3 to S0..S3
            lambda text: text.replace('"field":"q"', '"field":"fp:32003"'),
        ],
        ids=["renamed-vars", "other-field"],
    )
    def test_certificate_ring_must_match(self, cubic_file, tmp_path, capsys, tamper):
        cert_path = tmp_path / "cert.json"
        run_command(["decide", str(cubic_file), "--out", str(cert_path)])
        cert_path.write_text(tamper(cert_path.read_text()))
        capsys.readouterr()
        assert run_command(["verify", str(cubic_file), "--cert", str(cert_path)]) == 3
        assert "verified: no" in capsys.readouterr().out


class TestOtherCommands:
    def test_groebner(self, cubic_file, capsys):
        assert run_command(["groebner", str(cubic_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["T2^2 - T1*T3", "T1*T2 - T0*T3", "T1^2 - T0*T2"]

    def test_dim(self, cubic_file, capsys):
        assert run_command(["dim", str(cubic_file)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_dim_of_an_ideal_containing_one(self, tmp_path, capsys):
        # Dividing 1 by 2 runs in the layout for degree 0, whose grevlex
        # fields have no bits: the constant is its only monomial.
        path = tmp_path / "unit.ideal"
        path.write_text("field: q\nvars: T0 T1\ngens:\n2\n1\nT0^2\n")
        assert run_command(["dim", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ideal contains a nonzero constant\n"

    def test_member_yes(self, cubic_file, capsys):
        code = run_command(
            ["member", str(cubic_file), "--poly", "T0*T2 - T1^2 + T1*T3 - T2^2"]
        )
        assert code == 0
        assert "member: yes" in capsys.readouterr().out

    def test_dim_of_many_variables_is_prompt(self, tmp_path, capsys, monkeypatch):
        # A scan of all 2^30 variable subsets would run far past the limit;
        # every phase checks it, so exit 0 means the search ended within it.
        names = " ".join(f"T{i}" for i in range(30))
        squares = "\n".join(f"T{i}^2" for i in range(30))
        path = tmp_path / "squares.ideal"
        path.write_text(f"field: q\nvars: {names}\ngens:\n{squares}\n")
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", "10")
        assert run_command(["dim", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    def test_member_no(self, cubic_file, capsys):
        assert run_command(["member", str(cubic_file), "--poly", "T0^2"]) == 3

    def test_trivial_yes(self, lqr_file, capsys):
        code = run_command(
            ["trivial", str(lqr_file), "--poly", "(T0 - T2)*(T0 - T1)"]
        )
        assert code == 0
        assert "trivial: yes" in capsys.readouterr().out

    def test_trivial_non_member_exit_2(self, lqr_file, capsys):
        assert run_command(["trivial", str(lqr_file), "--poly", "T2^2"]) == 2

    def test_trivial_in_the_zero_ideal_exit_2(self, tmp_path, capsys):
        path = tmp_path / "zero.ideal"
        path.write_text("field: q\nvars: x y\ngens:\n0\n")
        assert run_command(["trivial", str(path), "--poly", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: polynomial x is not in the ideal\n"

    def test_check_iv_refuted(self, cubic_file, capsys):
        code = run_command(
            [
                "check-iv",
                str(cubic_file),
                "--poly",
                "T1^2 - T0*T2 - T1*T2 + T2^2 + T0*T3 - T1*T3",
                "--family",
                "",
            ]
        )
        assert code == 3
        assert "contained: yes" in capsys.readouterr().out

    def test_check_iv_at_a_point_off_the_variety_exit_2(self, cubic_file, tmp_path, capsys):
        # T1^2 - T0*T2 is 4 - 5 at (1:2:5:7); decide and verify refuse the
        # point the same way.  A zero generator before it is dropped, as
        # decide drops it, so the failing generator keeps its number.
        zero_first = tmp_path / "zero_first.ideal"
        zero_first.write_text(TWISTED_CUBIC.replace("gens:\n", "gens:\n0\n"))
        for path in (cubic_file, zero_first):
            code = run_command(
                [
                    "check-iv",
                    str(path),
                    "--point",
                    "1,2,5,7",
                    "--poly",
                    "T1^2 - T0*T2 - T1*T2 + T2^2 + T0*T3 - T1*T3",
                    "--family",
                    "",
                ]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: generator 0 does not vanish at (1:2:5:7): -T1^2 + T0*T2\n"
            )
            assert run_command(["decide", str(path), "--point", "1,2,5,7"]) == 2
            assert capsys.readouterr().err == captured.err

    def test_check_iv_passes(self, lqr_file, capsys):
        code = run_command(
            [
                "check-iv",
                str(lqr_file),
                "--poly",
                "T0*T3 - T1*T2 + T1*T0 - T1^2",
                "--family",
                "T0 - T1",
            ]
        )
        assert code == 0
        assert "contained: no" in capsys.readouterr().out


class TestUsageAndParsing:
    def test_no_arguments(self, capsys):
        assert run_command([]) == 1

    def test_unknown_command(self, capsys):
        assert run_command(["frobnicate"]) == 1

    def test_bad_expression(self, cubic_file, capsys):
        assert run_command(["member", str(cubic_file), "--poly", "T0 +"]) == 1

    @pytest.mark.parametrize(
        "poly",
        ["10^5000*T0 - 10^5000*T1", "T0^" + "9" * 5000],
        ids=["coefficient", "exponent"],
    )
    def test_more_digits_than_print_is_a_parse_error(self, tmp_path, capsys, poly):
        path = tmp_path / "line.ideal"
        path.write_text("field: q\nvars: T0 T1\ngens:\nT0 - T1\n")
        assert run_command(["member", str(path), "--poly", poly]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too many digits" in captured.err
        assert "(at position " in captured.err

    @pytest.mark.parametrize("where", ["ideal-file", "poly"])
    def test_deeply_nested_parentheses_are_a_parse_error(self, tmp_path, capsys, where):
        deep = "(" * 1000 + "T0" + ")" * 1000
        path = tmp_path / "line.ideal"
        gen = deep if where == "ideal-file" else "T0 - T1"
        path.write_text(f"field: q\nvars: T0 T1\ngens:\n{gen}\n")
        poly = deep if where == "poly" else "T0"
        assert run_command(["member", str(path), "--poly", poly]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err

    def test_computed_value_past_the_print_limit_prints_nothing(self, tmp_path, capsys):
        # Each denominator has at most 4300 digits; the remainder's, their
        # product, has more, so the report fails after "member: no".
        path = tmp_path / "line.ideal"
        path.write_text("field: q\nvars: T0 T1\ngens:\nT0 - T1\n")
        poly = "1/" + "9" * 4300 + "*T0 - 1/" + "9" * 4299 + "*T1"
        assert run_command(["member", str(path), "--poly", poly]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("module", ["ciforge", "ciforge.cli"])
    def test_module_run(self, cubic_file, module):
        src = Path(ciforge.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", module, "dim", str(cubic_file)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")

    def test_bad_field_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text("field: r\nvars: T0 T1\ngens:\nT0\n")
        assert run_command(["groebner", str(path)]) == 1

    def test_sections_out_of_order(self, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text("vars: T0 T1\nfield: q\ngens:\nT0\n")
        assert run_command(["groebner", str(path)]) == 1

    def test_point_length_mismatch(self, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text("field: q\nvars: T0 T1\npoint: 1 1 1\ngens:\nT0\n")
        assert run_command(["groebner", str(path)]) == 1

    def test_field_override(self, tmp_path, capsys):
        path = tmp_path / "q.ideal"
        path.write_text("field: q\nvars: T0 T1\ngens:\nT0 + 7*T1\n")
        assert run_command(["groebner", str(path), "--field", "fp:7"]) == 0
        assert capsys.readouterr().out.strip() == "T0"

    def test_timeout_env(self, cubic_file, capsys, monkeypatch):
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", "1e-9")
        assert run_command(["decide", str(cubic_file)]) == 1
        assert "time limit" in capsys.readouterr().err

    def test_running_out_of_memory_exits_1_without_a_traceback(
        self, cubic_file, capsys, monkeypatch
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(ciforge.cli, "parse_ideal_file", exhausted)
        assert run_command(["decide", str(cubic_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_parsing_honours_the_time_limit(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "huge_power.ideal"
        path.write_text("field: q\nvars: T0 T1\npoint: 1 -1\ngens:\n(T0 + T1)^100000\n")
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", "1")
        assert run_command(["decide", str(path)]) == 1
        assert "parsing exceeded its time limit" in capsys.readouterr().err

    def test_a_dense_power_is_refused_by_the_expansion_limit(self, tmp_path, capsys):
        # (T0 + ... + T19)^9 has C(28, 9), about 6.9 million, terms; the
        # bound is taken from the sum's size before any product is built.
        names = " ".join(f"T{i}" for i in range(20))
        dense = "(" + " + ".join(names.split()) + ")^9 - T0^9"
        path = tmp_path / "dense_power.ideal"
        path.write_text(f"field: q\nvars: {names}\ngens:\n{dense}\n")
        assert run_command(["dim", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: expansion could exceed the limit of {parse.MAX_TERMS} terms"
            " (at position 0)\n"
        )

    @pytest.mark.parametrize(
        "gen", ["T0^100000000 - T1^100000000"], ids=["variable-power"]
    )
    def test_huge_exponents_honour_the_time_limit(self, tmp_path, capsys, monkeypatch, gen):
        # A variable's power costs one deadline check per unit of its
        # exponent, as a parenthesised sum's does.
        path = tmp_path / "huge_exponent.ideal"
        path.write_text(f"field: q\nvars: T0 T1\npoint: 1 1\ngens:\n{gen}\n")
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", "1")
        assert run_command(["decide", str(path)]) == 1
        assert "parsing exceeded its time limit" in capsys.readouterr().err

    def test_a_huge_power_of_a_rational_number_is_refused_before_it_is_computed(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "huge_number_power.ideal"
        path.write_text(
            "field: q\nvars: T0 T1\npoint: 1 1\ngens:\n2^100000000*T0 - 2^100000000*T1\n"
        )
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", "1")
        assert run_command(["decide", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: coefficient has too many digits to print (at position 0)\n"
        )

    def test_a_huge_power_of_a_number_mod_p_is_one_modular_power(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "huge_number_power.ideal"
        path.write_text("field: fp 7\nvars: T0 T1\ngens:\nT0\n")
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", "1")
        assert run_command(["member", str(path), "--poly", "3^50000000*T0"]) == 0
        assert capsys.readouterr().out == "member: yes\ncofactor of T0: 2\n"

    def test_bad_timeout_env_ignored(self, cubic_file, capsys, monkeypatch):
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", "soon")
        assert run_command(["decide", str(cubic_file)]) == 3
        assert "ignoring bad" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_timeout_ignored(self, cubic_file, capsys, monkeypatch, value):
        # A non-finite limit would switch the time bound off.
        monkeypatch.setenv("CIFORGE_TIMEOUT_SECS", value)
        assert run_command(["decide", str(cubic_file)]) == 3
        assert "ignoring bad" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
