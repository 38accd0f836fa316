"""End-to-end checks of the command line interface.

Every test drives cli.run(argv) in process and inspects exit codes and
captured output.  Exit codes: 0 success, 1 failed check or library
error, 2 inconclusive, 64 usage, 65 malformed input.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bratteli import (
    BratteliSequence,
    SupernaturalNumber,
    canonicalize_q,
    injectivize,
    parse_diagram,
    serialize_diagram,
    telescope,
    tensor_qn,
    tensor_seq,
)
from bratteli import certio, diagram, unit_change
from bratteli.cli import run
from genseq import long_chain, random_map, replace, scalar_chain, two_path

DYADIC = "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\nrepeat: 1\n"
TRIADIC = "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*3\nrepeat: 1\n"
DYADIC_UNIT3 = "bratteli v1\nsizes: 1 1\nunit: 3\nmap 1: 1*2\nrepeat: 1\n"
TWO_PATH = "bratteli v1\nsizes: 2 2\nunit: 1 1\nmap 1: 1*2 2*3\nrepeat: 1\n"
CYCLIC_TRIPLING = TWO_PATH.replace("1*2 2*3", "1*1 2*3")
TREE = (
    "bratteli v1\nsizes: 1 2 4\nunit: 1\n"
    "map 1: 1*1 1*1\nmap 2: 1*1 1*1 2*1 2*1\nrepeat: 1\n"
)
BINARY_TREE = "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1\nrepeat: 1\n"
TERNARY_TREE = "bratteli v1\nsizes: 1 3\nunit: 1\nmap 1: 1*1 1*1 1*1\nrepeat: 1\n"
UNTAILED = "bratteli v1\nsizes: 1 1 1\nunit: 1\nmap 1: 1*2\nmap 2: 1*3\n"
DEAD = (
    "bratteli v1\nsizes: 1 2 2\nunit: 1\n"
    "map 1: 1*1 1*2\nmap 2: 1*2 1*3\n"
)
BIG_UNIT = "bratteli v1\nsizes: 1\nunit: " + "9" * 3000 + "\n"
BAD_PARENT = "bratteli v1\nsizes: 2 2\nunit: 1 1\nmap 1: 1*1 3*2\n"
# one level of 4096 leaves under the root, no tail
WIDE = "bratteli v1\nsizes: 1 4096\nunit: 1\nmap 1: " + " ".join(["1*1"] * 4096) + "\n"
# 4096 parallel rank-1 chains, cyclic from level 1
RANK_4096 = (
    "bratteli v1\nsizes: 4096 4096\nunit: "
    + " ".join(["1"] * 4096)
    + "\nmap 1: "
    + " ".join(f"{i}*1" for i in range(1, 4097))
    + "\nrepeat: 1\n"
)


def _rank_one_cycle(period):
    # the chain 1 -> 1 with multiplicity 1, cyclic with the given period
    maps = "".join(f"map {t}: 1*1\n" for t in range(1, period + 1))
    return f"bratteli v1\nsizes: {'1 ' * period}1\nunit: 1\n{maps}repeat: 1\n"


def _one_gigabyte():
    # a child's address space: 1 GB, or less where this process has less
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _retired(key):
    # what `verify` says of an equivalence document that carries `key`
    return f"error: {key} must not appear: equivalence documents carry no diagonals\n"


@pytest.fixture
def doc(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestValidate:
    def test_shape_report(self, doc, capsys):
        assert run(["validate", doc("d.brat", DYADIC)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "levels: 2",
            "ranks: 1 1",
            "tail: cyclic from level 1",
            "injective: yes",
        ]

    def test_substitution_tail_report(self, doc, capsys):
        assert run(["validate", doc("t.brat", TREE)]) == 0
        out = capsys.readouterr().out
        assert "tail: substitution from level 1" in out
        assert "ranks: 1 2 4" in out

    def test_parse_error_names_file_and_location(self, doc, capsys):
        path = doc("bad.brat", BAD_PARENT)
        assert run(["validate", path]) == 65
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: line 4, column 12:")

    def test_missing_file(self, tmp_path, capsys):
        assert run(["validate", str(tmp_path / "nope.brat")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTelescope:
    def test_matches_library(self, doc, capsys):
        assert run(["telescope", doc("u.brat", UNTAILED), "--keep", "1,3"]) == 0
        out = capsys.readouterr().out
        want = serialize_diagram(telescope(parse_diagram(UNTAILED), [1, 3]))
        assert out == want

    def test_keep_wants_integers(self, doc, capsys):
        assert run(["telescope", doc("u.brat", UNTAILED), "--keep", "1,a"]) == 64
        assert "usage error:" in capsys.readouterr().err

    def test_descending_levels_rejected(self, doc, capsys):
        assert run(["telescope", doc("u.brat", UNTAILED), "--keep", "2,1"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestInjectivize:
    def test_prunes_dead_branch(self, doc, capsys):
        assert run(["injectivize", doc("d.brat", DEAD)]) == 0
        out = capsys.readouterr().out
        pruned, inclusions = injectivize(parse_diagram(DEAD))
        want = serialize_diagram(pruned)
        for t, kept in enumerate(inclusions, start=1):
            want += f"# kept at level {t}: " + " ".join(str(c + 1) for c in kept)
            want += "\n"
        assert out == want
        assert parse_diagram(out) == pruned


class TestTensor:
    def test_matches_library(self, doc, capsys):
        left = doc("a.brat", DYADIC)
        right = doc("b.brat", TWO_PATH)
        assert run(["tensor", left, right]) == 0
        out = capsys.readouterr().out
        want = serialize_diagram(
            tensor_seq(parse_diagram(DYADIC), parse_diagram(TWO_PATH))
        )
        assert out == want


class TestTensorQ:
    def test_matches_library(self, doc, capsys):
        assert run(
            ["tensorq", doc("d.brat", DYADIC), "--n", "2^inf*3", "--depth", "4"]
        ) == 0
        out = capsys.readouterr().out
        n = SupernaturalNumber.parse("2^inf*3")
        assert out == serialize_diagram(tensor_qn(parse_diagram(DYADIC), n, 4))

    def test_deep_chain_in_linear_time(self, doc, capsys):
        # n_i of 2^inf has i bits, so forming every n_i would take time
        # and memory quadratic in the depth; the factors n_(i+1)/n_i are 2
        start = time.perf_counter()
        assert run(
            ["tensorq", doc("d.brat", DYADIC), "--n", "2^inf", "--depth", "80000"]
        ) == 0
        assert time.perf_counter() - start < 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "unit: 2"
        assert lines[3:] == [f"map {i}: 1*4" for i in range(1, 80000)]

    def test_bad_supernatural(self, doc, capsys):
        assert run(["tensorq", doc("d.brat", DYADIC), "--n", "x", "--depth", "2"]) == 64
        assert "usage error: --n" in capsys.readouterr().err

    def test_zero_depth(self, doc, capsys):
        assert run(
            ["tensorq", doc("d.brat", DYADIC), "--n", "2", "--depth", "0"]
        ) == 64


class TestUnitChange:
    def test_certificate_verifies(self, doc, tmp_path, capsys):
        path = doc("d.brat", DYADIC)
        assert run(["unit-change", path, "--unit", "3", "--depth", "6"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["kind"] == "unit-change"
        assert payload["alt_unit"] == ["3"]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out, encoding="utf-8")
        assert run(["verify", str(cert_path)]) == 0
        assert capsys.readouterr().out == "ok: certificate verified\n"

    def test_tampered_certificate_fails(self, doc, tmp_path, capsys):
        path = doc("d.brat", DYADIC)
        run(["unit-change", path, "--unit", "3", "--depth", "6"])
        payload = json.loads(capsys.readouterr().out)
        payload["partial_n"] = "5"
        cert_path = tmp_path / "tampered.json"
        cert_path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["verify", str(cert_path)]) == 1
        assert "fail:" in capsys.readouterr().out

    def test_deep_ladder_verifies_in_linear_time(self, doc, tmp_path, capsys):
        # 6400 rungs on a 400-level rank-8 chain: pushing both units up
        # and multiplying them by the running scalar products took 3.5 s
        chain = long_chain(random.Random(44), 400)
        path = doc("c.brat", serialize_diagram(chain))
        argv = ["unit-change", path, "--unit", "1,2,3,1,2,3,1,2", "--depth", "6400"]
        assert run(argv) == 0
        cert = tmp_path / "deep.json"
        cert.write_text(capsys.readouterr().out, encoding="utf-8")
        start = time.perf_counter()
        assert run(["verify", str(cert)]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == "ok: certificate verified\n"

    def test_old_document_refused(self, doc, tmp_path, capsys):
        # rungs as documents used to write them: level, direction, scalar
        # and diagonal; the scalar alone is read now, so the rest is refused
        path = doc("d.brat", DYADIC)
        assert run(["unit-change", path, "--unit", "3", "--depth", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [sorted(r) for r in payload["rungs"]] == [["scalar"]] * 4
        diagonals = (["3"], ["1"], ["1"], ["1"])
        payload["rungs"] = [
            {"level": str(t), "direction": ("up", "down")[t % 2], "diag": d, **r}
            for t, (r, d) in enumerate(zip(payload["rungs"], diagonals), start=1)
        ]
        cert = tmp_path / "old.json"
        cert.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["verify", str(cert)]) == 1
        assert capsys.readouterr() == (
            "",
            "error: level must not appear in rung 1: "
            "unit-change rungs carry only their scalar\n",
        )

    def test_rejects_non_unit(self, doc, capsys):
        assert run(
            ["unit-change", doc("d.brat", DYADIC), "--unit", "0", "--depth", "4"]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_depth(self, doc):
        assert run(
            ["unit-change", doc("d.brat", DYADIC), "--unit", "3", "--depth", "0"]
        ) == 64


class TestStates:
    def test_exact_fractions(self, doc, capsys):
        assert run(
            ["states", doc("d.brat", DYADIC_UNIT3), "--level", "1", "--depth", "4"]
        ) == 0
        assert capsys.readouterr().out == "1/3\n"

    def test_decimal_is_lossy(self, doc, capsys):
        assert run(
            [
                "states",
                doc("d.brat", DYADIC_UNIT3),
                "--level",
                "1",
                "--depth",
                "4",
                "--decimal",
            ]
        ) == 0
        assert capsys.readouterr().out == "0.3333333333333333\n"

    def test_two_path_vertices(self, doc, capsys):
        assert run(
            ["states", doc("p.brat", TWO_PATH), "--level", "1", "--depth", "3"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == ["0 1", "1 0"]

    def test_level_out_of_range(self, doc, capsys):
        assert run(
            ["states", doc("u.brat", UNTAILED), "--level", "5", "--depth", "6"]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_deep_level_in_bounded_memory(self, doc, tmp_path):
        # level 22 of the binary tree has 2^21 coordinates, each pulling
        # back to the vertex of its level-2 ancestor; one child process
        # writes them to a file and reports its own peak RSS
        path = doc("t.brat", TREE)
        out = tmp_path / "out.txt"
        argv = [sys.executable, "-m", "bratteli.cli", "states", path]
        argv += ["--level", "2", "--depth", "22"]
        probe = (
            "import resource, subprocess, sys\n"
            f"with open({str(out)!r}, 'wb') as fh:\n"
            f"    code = subprocess.run({argv!r}, stdout=fh).returncode\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        code, peak_kb = map(int, done.stdout.split())
        assert code == 0
        assert peak_kb < 64 * 1024
        assert out.read_text() == "1 0\n" * 2**20 + "0 1\n" * 2**20

    def test_deep_level_lines_in_linear_memory(self, doc):
        # level 12 of the binary tree has 2048 vertices, each a line of
        # 2048 values; one child process writes them all, and keeping a
        # formatted line, or a vertex tuple, per vertex peaked at 56 MB
        path = doc("t.brat", BINARY_TREE)
        argv = [sys.executable, "-m", "bratteli.cli", "states", path]
        argv += ["--level", "12", "--depth", "12"]
        probe = (
            "import resource, subprocess, sys\n"
            f"code = subprocess.run({argv!r}, stdout=subprocess.DEVNULL).returncode\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        code, peak_kb = map(int, done.stdout.split())
        assert code == 0
        assert peak_kb < 32 * 1024

    def test_level_past_the_budget_refused_at_once(self, doc, capsys):
        start = time.perf_counter()
        path = doc("t.brat", TREE)
        assert run(["states", path, "--level", "2", "--depth", "23"]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "",
            "error: level 22 has 2097152 coordinates, more than 1048576 to list\n",
        )


class TestCanon:
    def test_document_shape(self, doc, capsys):
        assert run(["canon", doc("d.brat", DYADIC_UNIT3)]) == 0
        payload = json.loads(capsys.readouterr().out)
        system, units = canonicalize_q(parse_diagram(DYADIC_UNIT3))
        assert units == ((3,), (6,))
        assert payload["kind"] == "canonical-form"
        assert payload["sizes"] == [str(v) for v in system.sizes]
        assert payload["parents"] == [[str(p + 1) for p in ps] for ps in system.parents]
        assert payload["diagonals"] == [[f"1/{v}" for v in u] for u in units]
        assert payload["diagonals"] == [["1/3"], ["1/6"]]

    def test_deterministic_bytes(self, doc, capsys):
        path = doc("p.brat", TWO_PATH)
        assert run(["canon", path]) == 0
        first = capsys.readouterr().out
        assert run(["canon", path]) == 0
        assert capsys.readouterr().out == first


class TestEquiv:
    def test_equivalent_exit_zero_and_verifies(self, doc, tmp_path, capsys):
        left = doc("a.brat", DYADIC)
        right = doc("b.brat", TRIADIC)
        assert run(["equiv", left, right, "--depth", "2"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["verdict"] == "equivalent"
        cert = tmp_path / "equiv.json"
        cert.write_text(out, encoding="utf-8")
        assert run(["verify", str(cert)]) == 0
        assert capsys.readouterr().out == "ok: certificate verified\n"

    def test_not_equivalent_exit_one_and_verifies(self, doc, tmp_path, capsys):
        left = doc("a.brat", DYADIC)
        right = doc("b.brat", TWO_PATH)
        assert run(["equiv", left, right]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["verdict"] == "not-equivalent"
        cert = tmp_path / "noneq.json"
        cert.write_text(out, encoding="utf-8")
        assert run(["verify", str(cert)]) == 0

    def test_unknown_exit_two(self, doc, tmp_path, capsys):
        left = doc("a.brat", UNTAILED)
        right = doc("b.brat", UNTAILED)
        assert run(["equiv", left, right]) == 2
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"] == "unknown"
        cert = tmp_path / "unknown.json"
        cert.write_text(out, encoding="utf-8")
        assert run(["verify", str(cert)]) == 2
        assert "nothing to verify" in capsys.readouterr().out

    def test_deterministic_bytes(self, doc, capsys):
        left = doc("a.brat", DYADIC)
        right = doc("b.brat", TRIADIC)
        assert run(["equiv", left, right, "--depth", "2"]) == 0
        first = capsys.readouterr().out
        assert run(["equiv", left, right, "--depth", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_depth_does_not_change_the_certificate(self, doc, capsys):
        left = doc("a.brat", TREE)
        right = doc("b.brat", TERNARY_TREE)
        assert run(["equiv", left, right, "--depth", "1"]) == 0
        first = capsys.readouterr().out
        assert run(["equiv", left, right, "--depth", "9"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["intertwining"]["closure"] == "restart-cut"

    def test_old_perfect_certificate_rejected(self, doc, tmp_path, capsys):
        # a "perfect" certificate, as older versions wrote for these trees
        # at depth 1
        left = doc("a.brat", TREE)
        right = doc("b.brat", TERNARY_TREE)
        assert run(["equiv", left, right]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["intertwining"].update(closure="perfect", f_maps=[["1"]])
        cert = tmp_path / "perfect.json"
        cert.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["verify", str(cert)]) == 1
        out = capsys.readouterr().out
        assert out == "fail: closure is 'perfect', expected 'restart-cut'\n"


class TestArchCheck:
    def test_property_holds(self, doc, capsys):
        assert run(
            ["arch-check", doc("d.brat", DYADIC), "--samples", "25", "--seed", "7"]
        ) == 0
        assert capsys.readouterr().out == "ok: 25 samples, property held\n"

    def test_seed_required(self, doc, capsys):
        assert run(["arch-check", doc("d.brat", DYADIC), "--samples", "5"]) == 64

    def test_untailed_chain_walks_down_once(self, doc, capsys, count_calls):
        # keep_at below the last level reads one walk per sequence
        rng = random.Random(48)
        maps = tuple(random_map(rng, 8, 8) for _ in range(399))
        seq = BratteliSequence((8,) * 400, maps, (1,) * 8)
        path = doc("chain.brat", serialize_diagram(seq))
        walks = count_calls(diagram, "_keeps_below")
        assert run(["arch-check", path, "--samples", "100", "--seed", "1"]) == 0
        assert walks[0] == 1


class TestVerify:
    def test_unsupported_kind(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "weird"}), encoding="utf-8")
        assert run(["verify", str(path)]) == 1
        assert "unsupported certificate kind" in capsys.readouterr().err

    def test_unsupported_verdict(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps({"kind": "equivalence", "verdict": "maybe"}), encoding="utf-8"
        )
        assert run(["verify", str(path)]) == 1
        assert "unsupported verdict" in capsys.readouterr().err

    def test_bare_number_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for it, not a decode error
        path = tmp_path / "long.json"
        path.write_text('{"kind": "unit-change", "x": ' + "7" * 5000 + "}")
        assert run(["verify", str(path)]) == 1
        assert "too long to read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert run(["verify", str(path)]) == 65
        assert capsys.readouterr().err.startswith(f"parse error: {path}: line ")


class TestHostileInput:
    """Bad bytes and numerals end in a documented exit code and one
    diagnostic line, never in a traceback."""

    def check(self, argv, code, capsys):
        assert run(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        return captured.err

    def test_superscript_size(self, doc, capsys):
        path = doc("s.brat", "bratteli v1\nsizes: 1 \u00b2\nunit: 1\n")
        err = self.check(["validate", path], 65, capsys)
        assert err.startswith(f"parse error: {path}: line 2, column 10:")

    def test_non_ascii_digit_in_map_cell(self, doc, capsys):
        text = "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: \u0661*1\n"
        path = doc("c.brat", text)
        err = self.check(["validate", path], 65, capsys)
        assert err.startswith(f"parse error: {path}: line 4, column 8:")

    def test_non_utf8_diagram(self, tmp_path, capsys):
        path = tmp_path / "b.brat"
        path.write_bytes(b"bratteli v1\nsizes: 1\nunit: \xff\n")
        err = self.check(["validate", str(path)], 65, capsys)
        assert err.startswith(f"parse error: {path}: line 3, column 7:")

    def test_non_utf8_certificate(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_bytes(b'{"kind": "equivalence",\n "verdict": "\xe9"}\n')
        err = self.check(["verify", str(path)], 65, capsys)
        assert err.startswith(f"parse error: {path}: line 2, column 14:")

    @pytest.mark.parametrize("diagonal", ["1/0", "0.5", " 1/2"])
    def test_diagonal_not_a_fraction(self, diagonal, doc, tmp_path, capsys):
        # an equivalence document carries no diagonals; one put back is
        # refused whatever its entries, and never read past unchecked
        left = doc("a.brat", DYADIC)
        right = doc("b.brat", TRIADIC)
        assert run(["equiv", left, right, "--depth", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "left_diagonals" not in payload and "right_diagonals" not in payload
        cert = tmp_path / "tampered.json"
        for key in ("left_diagonals", "right_diagonals"):
            tampered = {**payload, key: [[diagonal], ["1/2"]]}
            cert.write_text(json.dumps(tampered), encoding="utf-8")
            assert self.check(["verify", str(cert)], 1, capsys) == _retired(key)


    @pytest.mark.parametrize(
        "text, where",
        [
            ("sizes: 1\nunit: " + "7" * 5000, "line 3, column 7"),
            ("sizes: 1 1\nunit: 1\nmap 1: 1*" + "7" * 5000, "line 4, column 8"),
        ],
    )
    def test_numeral_past_digit_limit(self, text, where, doc, capsys):
        path = doc("n.brat", f"bratteli v1\n{text}\n")
        err = self.check(["validate", path], 65, capsys)
        assert err.startswith(f"parse error: {path}: {where}:")
        assert "5000 digits" in err

    @pytest.mark.parametrize(
        "command, flag", [("telescope", "--keep"), ("arch-check", "--seed")]
    )
    def test_option_past_digit_limit(self, command, flag, doc, capsys):
        argv = [command, doc("d.brat", DYADIC), flag, "1" + "0" * 5000]
        err = self.check(argv, 64, capsys)
        assert "5001 digits" in err

    @pytest.mark.parametrize(
        "command, err",
        [
            # level 15000 of the doubling chain multiplies by 2**14999,
            # which has 4516 decimal digits
            (
                ["telescope", "{dyadic}", "--keep", "1,15000"],
                "error: a multiplicity of map 1 is too long to write in "
                "decimal (15000 bits)\n",
            ),
            (
                ["tensor", "{big}", "{big}"],
                "error: a unit entry is too long to write in decimal (19932 bits)\n",
            ),
        ],
        ids=["telescope", "tensor"],
    )
    def test_written_numeral_past_digit_limit(self, command, err, doc, capsys):
        paths = {"dyadic": doc("d.brat", DYADIC), "big": doc("b.brat", BIG_UNIT)}
        assert run([a.format(**paths) for a in command]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)

    @pytest.mark.parametrize(
        "text, keep, err",
        [
            (
                BINARY_TREE,
                "1,1000000000",
                "error: level 22 has 2097152 coordinates, more than 1048576 to list\n",
            ),
            # squaring the period reaches 2**999999 at once, and the
            # writer names its size
            (
                DYADIC,
                "1,1000000",
                "error: a multiplicity of map 1 is too long to write in "
                "decimal (1000000 bits)\n",
            ),
            (
                DYADIC,
                "1,1000000000",
                "error: a multiplicity of map 1 is too long to write in "
                "decimal (at least 1000000000 bits)\n",
            ),
        ],
        ids=["level", "composite", "bound"],
    )
    def test_deep_telescope_refused_at_once(self, text, keep, err, doc, capsys):
        start = time.perf_counter()
        assert run(["telescope", doc("d.brat", text), "--keep", keep]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", err)

    def in_child(self, argv):
        # the command in a child process under 1 GB of address space and
        # with a timeout, since composing what it refuses would take
        # seconds to minutes and gigabytes; (exit code, stdout, stderr,
        # seconds)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "bratteli.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_one_gigabyte,
        )
        return done.returncode, done.stdout, done.stderr, time.perf_counter() - start

    def test_largest_multiplicity_refused_at_once(self, doc):
        # the smallest multiplicity of this two-path cycle stays 1, but the
        # other path triples every level, so the composite to level 10**7
        # has a multiplicity of 15 849 624 bits
        path = doc("t.brat", CYCLIC_TRIPLING)
        code, out, err, secs = self.in_child(["telescope", path, "--keep", "1,10000000"])
        assert secs < 1
        assert (code, out, err) == (
            1,
            "",
            "error: a multiplicity of map 1 is too long to write in decimal "
            "(at least 10000000 bits)\n",
        )

    @pytest.mark.parametrize(
        "text, argv, err",
        [
            # the unit entry 3**(10**8 - 1) at level 10**8, whose inverse
            # is a vertex, takes minutes to form
            (
                CYCLIC_TRIPLING,
                ["states", "{path}", "--level", "100000000", "--depth", "100000000"],
                "error: state value is too long to write in decimal "
                "(at least 100000000 bits)\n",
            ),
            # a self-similar tail whose rightmost path multiplies by a
            # 4001-digit number every level: 2**17 multiplicities of up
            # to 17 * 13 288 bits, too many to hold in memory
            (
                "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1"
                + "0" * 4000
                + "\nrepeat: 1\n",
                ["telescope", "{path}", "--keep", "1,18"],
                "error: a multiplicity of map 1 is too long to write in decimal "
                "(at least 225880 bits)\n",
            ),
        ],
        ids=["states", "telescope"],
    )
    def test_unwritable_bound_refused_at_once(self, text, argv, err, doc):
        path = doc("t.brat", text)
        code, out, got, secs = self.in_child([a.format(path=path) for a in argv])
        assert secs < 1
        assert (code, out, got) == (1, "", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensorq", "{path}", "--n", "2^inf", "--depth", "1000000000"],
            ["unit-change", "{path}", "--unit", "3", "--depth", "1000000000"],
        ],
        ids=["tensorq", "unit-change"],
    )
    def test_depth_past_the_budget_refused_at_once(self, argv, doc):
        # every level down to --depth is listed, and on the doubling chain
        # 3 000 000 levels took 32-44 s and up to 1.1 GB
        path = doc("d.brat", DYADIC)
        code, out, err, secs = self.in_child([a.format(path=path) for a in argv])
        assert secs < 1
        assert (code, out, err) == (
            1,
            "",
            "error: depth 1000000000 is more than 1048576 levels to list\n",
        )

    LISTED = "error: the levels to list have more than 4194304 coordinates\n"

    @pytest.mark.parametrize(
        "texts, argv, err",
        [
            # 4096 x 4096 coordinates at the product's level 2
            ((WIDE, WIDE), ["tensor", "{0}", "{1}"], LISTED),
            # periods 2003 and 1999: 4 003 998 product levels
            (
                (_rank_one_cycle(2003), _rank_one_cycle(1999)),
                ["tensor", "{0}", "{1}"],
                "error: depth 4003998 is more than 1048576 levels to list\n",
            ),
            (
                (RANK_4096,),
                ["tensorq", "{0}", "--n", "2", "--depth", "1000000"],
                LISTED,
            ),
            (
                (RANK_4096,),
                ["unit-change", "{0}", "--unit", ",".join(["1"] * 4096)]
                + ["--depth", "1000000"],
                LISTED,
            ),
            (
                (RANK_4096,),
                ["telescope", "{0}", "--keep", ",".join(map(str, range(1, 20001)))],
                LISTED,
            ),
        ],
        ids=["tensor-wide", "tensor-long", "tensorq", "unit-change", "telescope"],
    )
    def test_listing_past_the_budget_refused_at_once(self, texts, argv, err, doc):
        # each of these ran out of memory, or ran for minutes
        paths = [doc(f"d{i}.brat", text) for i, text in enumerate(texts)]
        code, out, got, secs = self.in_child([a.format(*paths) for a in argv])
        assert secs < 1
        assert (code, out, got) == (1, "", err)

    def test_rungs_past_the_budget_refused_at_once(self, tmp_path):
        # 60 000 rungs of scalar 1 on 4096 parallel chains: every derived
        # diagonal is all ones, 245 760 000 entries together
        seq = parse_diagram(RANK_4096)
        cert = replace(unit_change(seq, seq.base_unit, 1), rungs=(1,) * 60000)
        path = tmp_path / "rungs.json"
        path.write_text(certio.dumps(certio.unit_change_to_doc(cert)), encoding="utf-8")
        code, out, err, secs = self.in_child(["verify", str(path)])
        assert secs < 1
        assert (code, out, err) == (1, "", self.LISTED)

    def test_largest_listing_still_runs(self, doc):
        # levels 1 and 21 of the binary tree, 1 + 2**20 coordinates: the
        # deepest level the per-level budget admits
        code, out, err, _ = self.in_child(
            ["telescope", doc("t.brat", BINARY_TREE), "--keep", "1,21"]
        )
        assert (code, err) == (0, "")
        assert out.startswith("bratteli v1\nsizes: 1 1048576\nunit: 1\n")

    def test_decimal_states_never_refused(self, doc, capsys):
        # past both thresholds of the exact refusal, floats still print
        path = doc("t.brat", CYCLIC_TRIPLING)
        argv = ["states", path, "--level", "2000000", "--depth", "2000000"]
        assert run([*argv, "--decimal"]) == 0
        assert capsys.readouterr() == ("1.0 0.0\n0.0 0.0\n", "")

    def test_deep_decimal_states_form_no_huge_unit(self, doc):
        # the unit entry 3**(10**7 - 1) has 15 849 624 bits and took
        # seconds to form; an entry past 2**1075 is formed only that far
        path = doc("t.brat", CYCLIC_TRIPLING)
        argv = ["states", path, "--level", "10000000", "--depth", "10000000"]
        code, out, err, secs = self.in_child([*argv, "--decimal"])
        assert secs < 1
        assert (code, out, err) == (0, "1.0 0.0\n0.0 0.0\n", "")

    def test_non_ascii_supernatural_digit(self, doc, capsys):
        argv = ["tensorq", doc("d.brat", DYADIC), "--n", "2^\u0661", "--depth", "2"]
        err = self.check(argv, 64, capsys)
        assert err.startswith("usage error: --n:")

    def paper_ladder(self, doc, depth):
        rng = random.Random(0)
        maps = [random_map(rng, 8, 8, max_mult=3, onto=True) for _ in range(7)]
        chain = BratteliSequence((8,) * 8, tuple(maps), (1,) * 8, 1)
        path = doc("c.brat", serialize_diagram(chain))
        argv = ["unit-change", path, "--unit", "1,2,3,4,5,1,2,3", "--depth", str(depth)]
        return argv + ["--strategy", "paper"]

    def test_rung_scalar_past_digit_limit(self, doc, capsys):
        # the paper strategy's scalars grow doubly exponentially: at depth
        # 6 on this chain one has about 13 800 decimal digits
        err = self.check(self.paper_ladder(doc, 6), 1, capsys)
        assert err.startswith("error: rung 6 scalar is too long")

    def test_rung_scalar_past_bit_bound(self, doc, capsys):
        # rung 8's scalar has 2 250 984 bits; dividing it out and factoring
        # the partial products would take about half a minute
        start = time.perf_counter()
        err = self.check(self.paper_ladder(doc, 8), 1, capsys)
        assert err.startswith("error: rung scalar of 2250984 bits")
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("tampered", [(0,), (0, 2)])
    def test_long_rung_scalar_is_not_factored(self, tampered, doc, tmp_path, capsys):
        # the scalar products are matched against partial_n/partial_m by
        # division; factoring one took seconds and ended in an error line.
        # Rung 1's diagonal takes the long scalar exactly (the unit is all
        # ones), and rung 2's short scalar is no multiple of its entries
        def edit(payload):
            for k in tampered:
                payload["rungs"][k]["scalar"] = "1" * 4000

        argv = self.paper_ladder(doc, 6)[:-2]  # the minimal strategy
        cert = self.tampered(tmp_path, argv, capsys, edit)
        start = time.perf_counter()
        assert run(["verify", cert]) == 1
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == (
            "fail: rung 2: the scalar is not a multiple of rung 1's entry "
            "at coordinate 1"
        )
        partial_m = next(line for line in lines if "partial_m" in line)
        if len(tampered) == 2:
            # the product has about 8000 digits, too many for str()
            assert partial_m.endswith("-bit number")

    @pytest.mark.parametrize(
        "command",
        [
            ["states", "{tree}", "--level", "1", "--depth", "40"],
            ["tensorq", "{tree}", "--n", "2^inf*3", "--depth", "40"],
        ],
    )
    def test_deep_self_similar_level(self, command, doc, capsys):
        # level 40 of the binary tree has 2^39 coordinates; listing them
        # stops at the first unrolled level past the coordinate budget
        start = time.perf_counter()
        path = doc("t.brat", TREE)
        err = self.check([arg.format(tree=path) for arg in command], 1, capsys)
        assert err.startswith("error: level 22 has 2097152 coordinates")
        assert time.perf_counter() - start < 10

    def test_deep_certificate_level(self, doc, tmp_path, capsys):
        # a restart cut names its root level; one too long for int()
        # is an error line, not an attempt to build that level
        start = time.perf_counter()
        path = doc("t.brat", TREE)
        assert run(["equiv", path, path, "--depth", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intertwining"]["closure"] == "restart-cut"
        payload["intertwining"]["left_levels"] = ["7" * 5000]
        cert = tmp_path / "deep.json"
        cert.write_text(json.dumps(payload), encoding="utf-8")
        err = self.check(["verify", str(cert)], 1, capsys)
        assert err.startswith("error: level of 5000 digits is too long")
        assert time.perf_counter() - start < 10

    def tampered(self, tmp_path, argv, capsys, edit):
        assert run(argv) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        edit(payload)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "command, key",
        [
            (["unit-change", "{dyadic}", "--unit", "3", "--depth", "3"], "sequence"),
            (["equiv", "{dyadic}", "{triadic}"], "left"),
            (["equiv", "{dyadic}", "{two_path}"], "right"),
        ],
    )
    def test_embedded_diagram_not_a_string(self, command, key, doc, tmp_path, capsys):
        paths = {
            "dyadic": doc("d.brat", DYADIC),
            "triadic": doc("t.brat", TRIADIC),
            "two_path": doc("p.brat", TWO_PATH),
        }
        argv = [arg.format(**paths) for arg in command]
        cert = self.tampered(tmp_path, argv, capsys, lambda d: d.update({key: 5}))
        err = self.check(["verify", cert], 1, capsys)
        assert err == f"error: {key} must be a str, got int\n"

    @pytest.mark.parametrize(
        "diagonals, want",
        [
            ([5, 5], _retired("left_diagonals")),
            (["12", "34"], _retired("left_diagonals")),
        ],
    )
    def test_diagonal_rows_not_lists(self, diagonals, want, doc, tmp_path, capsys):
        # the retired key is refused before its value is looked at, in
        # Equivalent and NotEquivalent documents alike
        for right in (TRIADIC, TWO_PATH):
            argv = ["equiv", doc("a.brat", DYADIC), doc("b.brat", right)]
            edit = lambda d: d.update(left_diagonals=diagonals)
            cert = self.tampered(tmp_path, argv, capsys, edit)
            assert self.check(["verify", cert], 1, capsys) == want

    def test_strategy_not_a_name(self, doc, tmp_path, capsys):
        argv = ["unit-change", doc("d.brat", DYADIC), "--unit", "3", "--depth", "3"]
        cert = self.tampered(tmp_path, argv, capsys, lambda d: d.update(strategy=[1]))
        err = self.check(["verify", cert], 1, capsys)
        assert err == "error: strategy must be 'minimal' or 'paper', got [1]\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["canon", "{plain}"],
            ["equiv", "{tailed}", "{tailed}"],
            ["states", "{plain}", "--level", "3", "--depth", "3"],
        ],
    )
    def test_fraction_past_digit_limit(self, command, doc, tmp_path, capsys):
        # the unit at level 3 has about 8000 digits, so its inverse
        # cannot be written in decimal; `equiv` writes no inverse units,
        # and its certificate verifies
        big = "7" * 4000
        body = f"sizes: 1 1 1\nunit: 1\nmap 1: 1*{big}\nmap 2: 1*{big}\n"
        paths = {
            "plain": doc("p.brat", f"bratteli v1\n{body}"),
            "tailed": doc("t.brat", f"bratteli v1\n{body}repeat: 2\n"),
        }
        argv = [arg.format(**paths) for arg in command]
        if command[0] != "equiv":
            err = self.check(argv, 1, capsys)
            assert err.startswith("error:") and "too long to write in decimal" in err
            return
        assert run(argv) == 0
        cert = tmp_path / "big.json"
        cert.write_text(capsys.readouterr().out, encoding="utf-8")
        assert run(["verify", str(cert)]) == 0
        assert capsys.readouterr().out == "ok: certificate verified\n"

    def test_prime_past_trial_bound(self, doc, tmp_path, capsys):
        # 2^61 - 1 is prime; proving it by trial division took minutes
        start = time.perf_counter()
        path = doc("d.brat", DYADIC)
        argv = ["unit-change", path, "--unit", str(2**61 - 1), "--depth", "3"]
        err = self.check(argv, 1, capsys)
        assert err.startswith("error:") and "too large to call prime" in err
        assert run(["unit-change", path, "--unit", "3", "--depth", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["partial_n"] = str(2**61 - 1)
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps(payload), encoding="utf-8")
        err = self.check(["verify", str(cert)], 1, capsys)
        assert "too large to call prime" in err
        assert time.perf_counter() - start < 10


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 64

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 64
