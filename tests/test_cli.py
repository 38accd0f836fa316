"""End-to-end checks of the command line interface.

Every test drives cli.run(argv) in process and inspects exit codes and
captured output.  Exit codes: 0 success, 1 failed check or library
error, 2 inconclusive, 64 usage, 65 malformed input.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bratteli import (
    BratteliSequence,
    SupernaturalNumber,
    canonicalize_q,
    equivalent_q,
    injectivize,
    parse_diagram,
    serialize_diagram,
    telescope,
    tensor_qn,
    tensor_seq,
)
from bratteli import certio, cli, diagram, intertwine, unit_change
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


def _chain(levels, mult):
    # an untailed chain of rank-1 levels, each map of multiplicity mult
    maps = "".join(f"map {t}: 1*{mult}\n" for t in range(1, levels))
    return f"bratteli v1\nsizes: {' '.join(['1'] * levels)}\nunit: 1\n{maps}"


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
        assert lines[3:] == [f"map {i}: 1*4" for i in range(1, 80000)] + ["repeat: 1"]

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

    def test_listed_level_past_the_budget_refused(self, doc, in_child):
        # every line lists --level: level 22 of the binary tree would give
        # 2**21 lines of 2**21 values, and 43 GB were written in 30 s
        # while map_at did not count the level its parent tuple lists
        argv = ["states", doc("t.brat", BINARY_TREE), "--level", "22", "--depth", "22"]
        code, out, err, secs = in_child(argv)
        assert secs < 5
        assert (code, out, err) == (
            1,
            "",
            "error: level 22 has 2097152 coordinates, more than 1048576 to list\n",
        )

    @pytest.mark.parametrize("decimal", [[], ["--decimal"]], ids=["exact", "decimal"])
    def test_values_past_the_budget_refused(self, decimal, doc, in_child):
        # 2**13 lines of 2**13 values, 128 MiB, and 2 GiB at level 16:
        # the values are counted before the first line is written, while
        # 2**11 lines of 2**11 values, the budget, still run
        argv = ["states", doc("t.brat", BINARY_TREE), "--level", "14", "--depth", "14"]
        code, out, err, secs = in_child([*argv, *decimal], address_space=1000000 * 1024)
        assert secs < 5
        assert (code, out) == (1, "")
        assert err == "error: level 14 at depth 14 writes 67108864 values, more than 4194304\n"


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

    @pytest.mark.parametrize(
        "text, samples, steps",
        [
            # the deepest drawn level of the binary tree has rank 8; 10^8
            # samples ran until killed
            (BINARY_TREE, 100000000, 183),
            # a sample may push along all 20,000 levels of rank 1
            (_chain(20000, "1"), 10000, 180056),
            # its 1,000-digit multiplicities are cut at 5 as they compose,
            # so they cost no more than multiplicities of 1
            (_chain(60, "9" * 1000), 30000, 596),
        ],
        ids=["binary tree", "long chain", "long multiplicities"],
    )
    def test_samples_past_the_budget_refused(self, doc, in_child, text, samples, steps):
        # the count is refused before the first sample
        argv = ["arch-check", doc("t.brat", text), "--samples", str(samples)]
        code, out, err, secs = in_child([*argv, "--seed", "0"])
        assert secs < 10
        assert (code, out) == (1, "")
        assert err == (
            f"error: {samples} samples of up to {steps} steps are more than "
            "16777216 steps\n"
        )

    def test_long_multiplicities_run(self, doc, in_child):
        # 10,000 samples of up to 596 steps are within the budget
        path = doc("t.brat", _chain(60, "9" * 1000))
        argv = ["arch-check", path, "--samples", "10000", "--seed", "0"]
        code, out, err, secs = in_child(argv)
        assert (code, out, err) == (0, "ok: 10000 samples, property held\n", "")
        assert secs < 5

    def test_samples_at_the_budget_run(self, doc, capsys, monkeypatch):
        # a binary tree sample takes up to 183 steps
        monkeypatch.setattr(cli, "_SAMPLE_BUDGET", 60 * 183)
        path = doc("t.brat", BINARY_TREE)
        assert run(["arch-check", path, "--samples", "60", "--seed", "7"]) == 0
        assert capsys.readouterr().out == "ok: 60 samples, property held\n"
        assert run(["arch-check", path, "--samples", "61", "--seed", "7"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: 61 samples of up to 183 steps are more than 10980 steps\n",
        )


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

    def test_more_rungs_than_levels(self, tmp_path, capsys):
        # an untailed sequence of two levels has no level for rung 3
        seq = parse_diagram("bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\n")
        cert = unit_change(seq, (3,), 2)
        path = tmp_path / "rungs.json"
        doc = certio.unit_change_to_doc(replace(cert, rungs=(*cert.rungs, 1)))
        path.write_text(certio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(path)]) == 1
        assert capsys.readouterr() == ("fail: rung 3: level 3 not available\n", "")

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
        "command, what",
        [
            # level 15000 of the doubling chain multiplies by 2**14999,
            # which has 4516 decimal digits
            (["telescope", "{dyadic}", "--keep", "1,15000"], "a multiplicity of map 1"),
            (["tensor", "{big}", "{big}"], "a unit entry"),
            # twice the widest unit entry a document can hold
            (["tensorq", "{widest}", "--n", "2", "--depth", "1"], "a unit entry"),
            # the level-3 unit has about 6 000 digits
            (["canon", "{deep}"], "diagonal entry"),
            # the paper strategy's rung 6 has about 13 800 digits
            (
                ["unit-change", "{chain}", "--unit", "1,2,3,4,5,1,2,3", "--depth", "6"]
                + ["--strategy", "paper"],
                "rung 6 scalar",
            ),
            # the unit entry 3**9999 at level 10000 has 4771 digits
            (
                ["states", "{tripling}", "--level", "10000", "--depth", "10000"],
                "state value",
            ),
        ],
        ids=["telescope", "tensor", "tensorq", "canon", "unit-change", "states"],
    )
    def test_written_numeral_past_digit_limit(self, command, what, doc, capsys):
        # every writer refuses by one rule, with one message
        big = "9" * 3000
        paths = {
            "dyadic": doc("d.brat", DYADIC),
            "big": doc("b.brat", BIG_UNIT),
            "widest": doc("w.brat", "bratteli v1\nsizes: 1\nunit: " + "9" * 4300 + "\n"),
            "deep": doc(
                "u.brat",
                f"bratteli v1\nsizes: 1 1 1\nunit: 1\nmap 1: 1*{big}\nmap 2: 1*{big}\n",
            ),
            "chain": self.paper_chain(doc),
            "tripling": doc("t.brat", CYCLIC_TRIPLING),
        }
        assert run([a.format(**paths) for a in command]) == 1
        captured = capsys.readouterr()
        err = f"error: {what} is too long to write in decimal (more than 4300 digits)\n"
        assert (captured.out, captured.err) == ("", err)

    @pytest.mark.parametrize(
        "text, keep, err",
        [
            (
                BINARY_TREE,
                "1,1000000000",
                "error: kept level 1000000000 has more than 1048576 coordinates "
                "to list\n",
            ),
            # squaring the period under the cut at 10**4300 reaches the
            # cut at once, however deep the kept level
            (
                DYADIC,
                "1,1000000",
                "error: a multiplicity of map 1 is too long to write in "
                "decimal (more than 4300 digits)\n",
            ),
            (
                DYADIC,
                "1,1000000000",
                "error: a multiplicity of map 1 is too long to write in "
                "decimal (more than 4300 digits)\n",
            ),
        ],
        ids=["level", "composite", "bound"],
    )
    def test_deep_telescope_refused_at_once(self, text, keep, err, doc, capsys):
        start = time.perf_counter()
        assert run(["telescope", doc("d.brat", text), "--keep", keep]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", err)

    def test_largest_multiplicity_refused_at_once(self, doc, in_child):
        # the smallest multiplicity of this two-path cycle stays 1, but the
        # other path triples every level, so the composite to level 10**7
        # has a multiplicity of 15 849 624 bits; squared under the cut at
        # 10**4300, it reaches the cut at once
        path = doc("t.brat", CYCLIC_TRIPLING)
        code, out, err, secs = in_child(["telescope", path, "--keep", "1,10000000"])
        assert secs < 1
        assert (code, out, err) == (
            1,
            "",
            "error: a multiplicity of map 1 is too long to write in decimal "
            "(more than 4300 digits)\n",
        )

    def test_tripling_cycle_refused_before_composing(self, doc, in_child):
        # every coordinate of this rank-65,536 cycle triples every level,
        # so the smallest multiplicity of the composite to level 12000,
        # and every unit entry there, passes the cut at 10**4300 already;
        # composing it to the end squared 65,536 numbers of up to 4,300
        # digits, 8.6-11.7 s for telescope and 10-11 s for states.  A span
        # states cannot read is still reported first.  --decimal writes
        # 2**16 values on each of 2**16 lines, 16 GiB in 15.5 s, unless
        # refused by that count.  The address space is the CI step's,
        # `ulimit -v 1000000`
        n = 2**16
        unit = " ".join(["1"] * n)
        cells = " ".join(f"{i}*3" for i in range(1, n + 1))
        path = doc(
            "t.brat", f"bratteli v1\nsizes: {n} {n}\nunit: {unit}\nmap 1: {cells}\nrepeat: 1\n"
        )
        too_long = "is too long to write in decimal (more than 4300 digits)\n"
        for argv, want in (
            (["telescope", path, "--keep", "1,12000"], f"a multiplicity of map 1 {too_long}"),
            (["states", path, "--level", "12000", "--depth", "12000"], f"state value {too_long}"),
            (["states", path, "--level", "12000", "--depth", "5"], "need lo <= hi, got 12000 > 5\n"),
            (
                ["states", path, "--level", "1", "--depth", "12000", "--decimal"],
                "level 1 at depth 12000 writes 4294967296 values, more than 4194304\n",
            ),
        ):
            code, out, err, secs = in_child(argv, address_space=1000000 * 1024)
            assert secs < 1, argv
            assert (code, out, err) == (1, "", f"error: {want}"), argv

    def test_tripling_chain_canon_refused_as_formed(self, doc, in_child):
        # a rank-32 chain of 16,000 levels, each tripling every coordinate:
        # its diagonal entries pass 4300 digits near level 9000, and the
        # units of all 16,000 levels ran out of 500 MB before the first was
        # refused
        n, levels = 32, 16000
        cells = " ".join(f"{i}*3" for i in range(1, n + 1))
        maps = "".join(f"map {t}: {cells}\n" for t in range(1, levels))
        unit = " ".join(["1"] * n)
        text = f"bratteli v1\nsizes: {f'{n} ' * (levels - 1)}{n}\nunit: {unit}\n{maps}"
        code, out, err, secs = in_child(["canon", doc("c.brat", text)], 500000 * 1024)
        assert (code, out, err) == (
            1,
            "",
            "error: diagonal entry is too long to write in decimal "
            "(more than 4300 digits)\n",
        )

    @pytest.mark.parametrize(
        "text, argv, err",
        [
            # the unit entry 3**(10**8 - 1) at level 10**8, whose inverse
            # is a vertex, takes minutes to form; composed under the cut
            # it stops at 10**4300
            (
                CYCLIC_TRIPLING,
                ["states", "{path}", "--level", "100000000", "--depth", "100000000"],
                "error: state value is too long to write in decimal "
                "(more than 4300 digits)\n",
            ),
            # a self-similar tail whose rightmost path multiplies by a
            # 4001-digit number every level: 2**17 multiplicities of up
            # to 17 * 13 288 bits, too many to hold in memory; under the
            # cut, every one that reaches it is the cut itself
            (
                "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1"
                + "0" * 4000
                + "\nrepeat: 1\n",
                ["telescope", "{path}", "--keep", "1,18"],
                "error: a multiplicity of map 1 is too long to write in decimal "
                "(more than 4300 digits)\n",
            ),
            # a 4300-digit multiplicity is written, its square is not
            (
                "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*1" + "0" * 4299 + "\n",
                ["tensor", "{path}", "{path}"],
                "error: a multiplicity of map 1 is too long to write in decimal "
                "(more than 4300 digits)\n",
            ),
        ],
        ids=["states", "telescope", "tensor"],
    )
    def test_unwritable_bound_refused_at_once(self, text, argv, err, doc, in_child):
        path = doc("t.brat", text)
        code, out, got, secs = in_child([a.format(path=path) for a in argv])
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
    def test_depth_past_the_budget_refused_at_once(self, argv, doc, in_child):
        # every level down to --depth is listed, and on the doubling chain
        # 3 000 000 levels took 32-44 s and up to 1.1 GB
        path = doc("d.brat", DYADIC)
        code, out, err, secs = in_child([a.format(path=path) for a in argv])
        assert secs < 1
        assert (code, out, err) == (
            1,
            "",
            "error: depth 1000000000 is more than 1048576 levels to list\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensorq", "{path}", "--n", "2", "--depth", "{depth}"],
            ["unit-change", "{path}", "--unit", "1", "--depth", "{depth}"],
        ],
        ids=["tensorq", "unit-change"],
    )
    def test_depth_past_maxsize_refused(self, argv, doc, capsys):
        # len() of levels 1..depth overflows there; it raised OverflowError
        depth, path = 10**30, doc("d.brat", DYADIC)
        assert run([a.format(path=path, depth=depth) for a in argv]) == 1
        err = f"error: depth {depth} is more than 1048576 levels to list\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "texts, argv, err",
        [
            # 4096 x 4096 coordinates at the product's level 2
            (
                (WIDE, WIDE),
                ["tensor", "{0}", "{1}"],
                "error: product level 2 has 16777216 coordinates, "
                "more than 1048576 to list\n",
            ),
            # periods 2003 and 1999: 4 003 998 product levels
            (
                (_rank_one_cycle(2003), _rank_one_cycle(1999)),
                ["tensor", "{0}", "{1}"],
                "error: a product of length 4003998 is more than 1048576 "
                "levels to list\n",
            ),
            (
                (RANK_4096,),
                ["tensorq", "{0}", "--n", "2", "--depth", "1000000"],
                "error: depth 1000000 lists more than 4194304 coordinates\n",
            ),
            (
                (RANK_4096,),
                ["unit-change", "{0}", "--unit", ",".join(["1"] * 4096)]
                + ["--depth", "1000000"],
                "error: depth 1000000 lists more than 4194304 coordinates\n",
            ),
            (
                (RANK_4096,),
                ["telescope", "{0}", "--keep", ",".join(map(str, range(1, 20001)))],
                "error: keeping 20000 levels lists more than 4194304 coordinates\n",
            ),
        ],
        ids=["tensor-wide", "tensor-long", "tensorq", "unit-change", "telescope"],
    )
    def test_listing_past_the_budget_refused_at_once(
        self, texts, argv, err, doc, in_child
    ):
        # each of these ran out of memory, or ran for minutes
        paths = [doc(f"d{i}.brat", text) for i, text in enumerate(texts)]
        code, out, got, secs = in_child([a.format(*paths) for a in argv])
        assert secs < 1
        assert (code, out, got) == (1, "", err)

    def test_rungs_past_the_budget_refused_at_once(self, tmp_path, in_child):
        # 60 000 rungs of scalar 1 on 4096 parallel chains: every derived
        # diagonal is all ones, 245 760 000 entries together
        seq = parse_diagram(RANK_4096)
        cert = replace(unit_change(seq, seq.base_unit, 1), rungs=(1,) * 60000)
        path = tmp_path / "rungs.json"
        path.write_text(certio.dumps(certio.unit_change_to_doc(cert)), encoding="utf-8")
        code, out, err, secs = in_child(["verify", str(path)])
        assert secs < 1
        assert (code, out, err) == (
            1,
            "",
            "error: a ladder of 60000 rungs lists more than 4194304 coordinates\n",
        )

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["telescope", "{path}", "--keep", "1,22"], "kept level 22"),
            (["tensorq", "{path}", "--n", "2", "--depth", "22"], "level 22"),
            (["unit-change", "{path}", "--unit", "1", "--depth", "22"], "level 22"),
        ],
        ids=["telescope", "tensorq", "unit-change"],
    )
    def test_last_listed_level_is_budgeted(self, argv, what, doc, in_child):
        # level 22 of the binary tree, 2**21 coordinates, is the last level
        # each of these lists; it escaped the per-level budget, and they
        # wrote 8 388 652 and 36 583 890 bytes and a 982-byte certificate
        path = doc("t.brat", BINARY_TREE)
        code, out, err, secs = in_child([a.format(path=path) for a in argv])
        assert secs < 1
        assert (code, out, err) == (
            1,
            "",
            f"error: {what} has 2097152 coordinates, more than 1048576 to list\n",
        )

    def test_largest_listing_still_runs(self, doc, in_child):
        # levels 1 and 21 of the binary tree, 1 + 2**20 coordinates: the
        # deepest level the per-level budget admits
        code, out, err, _ = in_child(
            ["telescope", doc("t.brat", BINARY_TREE), "--keep", "1,21"]
        )
        assert (code, err) == (0, "")
        assert out.startswith("bratteli v1\nsizes: 1 1048576\nunit: 1\n")

    def test_wide_map_line_reads(self, doc, in_child):
        # one map line of 2**22 cells, 16 MB: its check kept about 176
        # bytes per cell and ended in a MemoryError traceback under 1 GB
        n = 2**22
        cells = " ".join(["1*1"] * n)
        path = doc("w.brat", f"bratteli v1\nsizes: 1 {n}\nunit: 1\nmap 1: {cells}\n")
        code, out, err, _ = in_child(["validate", path])
        assert (code, err) == (0, "")
        assert out == f"levels: 2\nranks: 1 {n}\ntail: none\ninjective: yes\n"

    def test_out_of_memory_is_one_line(self, doc, in_child):
        # levels 1 and 21 of the binary tree take about 100 MB to
        # telescope, more than a child given 64 MB of address space has
        argv = ["telescope", doc("t.brat", BINARY_TREE), "--keep", "1,21"]
        code, out, err, _ = in_child(argv, address_space=2**26)
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_streamed_level_is_not_budgeted(self, doc, in_child):
        # states never lists its --depth level: 2**21 lines come in one run
        argv = ["states", doc("t.brat", BINARY_TREE), "--level", "1", "--depth", "22"]
        code, out, err, _ = in_child(argv)
        assert (code, out, err) == (0, "1\n" * 2**21, "")

    def test_decimal_states_never_refused(self, doc, capsys):
        # past both thresholds of the exact refusal, floats still print
        path = doc("t.brat", CYCLIC_TRIPLING)
        argv = ["states", path, "--level", "2000000", "--depth", "2000000"]
        assert run([*argv, "--decimal"]) == 0
        assert capsys.readouterr() == ("1.0 0.0\n0.0 0.0\n", "")

    def test_deep_decimal_states_form_no_huge_unit(self, doc, in_child):
        # the unit entry 3**(10**7 - 1) has 15 849 624 bits and took
        # seconds to form; an entry past 2**1075 is formed only that far
        path = doc("t.brat", CYCLIC_TRIPLING)
        argv = ["states", path, "--level", "10000000", "--depth", "10000000"]
        code, out, err, secs = in_child([*argv, "--decimal"])
        assert secs < 1
        assert (code, out, err) == (0, "1.0 0.0\n0.0 0.0\n", "")

    def test_non_ascii_supernatural_digit(self, doc, capsys):
        argv = ["tensorq", doc("d.brat", DYADIC), "--n", "2^\u0661", "--depth", "2"]
        err = self.check(argv, 64, capsys)
        assert err.startswith("usage error: --n:")

    def test_supernatural_numeral_past_digit_limit(self, doc, tmp_path, capsys):
        # refused in the diagram reader's words, not in int()'s
        long = "1" * 5000
        argv = ["tensorq", doc("d.brat", DYADIC), "--n", long, "--depth", "2"]
        err = self.check(argv, 64, capsys)
        assert err == "usage error: --n: a numeral of 5000 digits is too long\n"
        argv = ["unit-change", doc("d.brat", DYADIC), "--unit", "3", "--depth", "3"]
        cert = self.tampered(tmp_path, argv, capsys, lambda p: p.update(partial_n=long))
        err = self.check(["verify", cert], 1, capsys)
        assert err == "error: partial_n: a numeral of 5000 digits is too long\n"

    def paper_chain(self, doc):
        rng = random.Random(0)
        maps = [random_map(rng, 8, 8, max_mult=3, onto=True) for _ in range(7)]
        chain = BratteliSequence((8,) * 8, tuple(maps), (1,) * 8, 1)
        return doc("c.brat", serialize_diagram(chain))

    def paper_ladder(self, doc, depth):
        path = self.paper_chain(doc)
        argv = ["unit-change", path, "--unit", "1,2,3,4,5,1,2,3", "--depth", str(depth)]
        return argv + ["--strategy", "paper"]

    def test_rung_scalar_past_digit_limit(self, doc, capsys):
        # the paper strategy's scalars grow doubly exponentially: at depth
        # 6 on this chain one has about 13 800 decimal digits
        err = self.check(self.paper_ladder(doc, 6), 1, capsys)
        assert err.startswith("error: rung 6 scalar is too long")

    def test_rung_scalar_past_bit_bound(self, doc, capsys, digit_limit):
        # rung 8's scalar has 2 250 984 bits; dividing it out and factoring
        # the partial products would take about half a minute.  With no
        # digit limit every scalar can be written, so only the bit bound
        # stops the ladder
        digit_limit(0)
        start = time.perf_counter()
        err = self.check(self.paper_ladder(doc, 8), 1, capsys)
        assert err.startswith("error: rung scalar of 2250984 bits")
        assert time.perf_counter() - start < 10

    def test_ladder_stops_at_the_first_unwritable_rung(self, doc, capsys, count_calls):
        # rung 6's scalar is the first too long to write: no later rung,
        # whose scalar would have millions of bits, is built
        calls = count_calls(intertwine, "rescale_lemma")
        err = self.check(self.paper_ladder(doc, 9), 1, capsys)
        assert err == (
            "error: rung 6 scalar is too long to write in decimal (more than 4300 digits)\n"
        )
        assert calls == [5]  # rungs 2..6

    @pytest.mark.parametrize("tampered", [(0,), (0, 2)])
    def test_long_rung_scalar_is_not_factored(self, tampered, doc, tmp_path, capsys):
        # the scalars are matched against partial_n/partial_m by division;
        # factoring their product took seconds and ended in an error line.
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
        # the line names no product: two tampered scalars would make one
        # of about 8000 digits, too many for str()
        partial_m = next(line for line in lines if "partial_m" in line)
        assert partial_m.endswith(", not the product of its scalars")

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

    @pytest.mark.parametrize(
        "value, want",
        [
            ("007", (1, 7)),
            ("-3", (1, -3)),
            ("0", (1, 0)),
            ("\u0663", "level must be a decimal string, got '\u0663'"),
            (3, "level must be a decimal string, got 3"),
            ("7" * 5000, "level of 5000 digits is too long"),
        ],
    )
    def test_certificate_list_entries_read_one_by_one(self, value, want):
        # a list the one-pass read refuses is read entry by entry, which
        # takes a sign or a leading zero as int() does and names the
        # first entry that is no decimal string
        if isinstance(want, tuple):
            assert certio._ints(["1", value], "level") == want
            return
        with pytest.raises(ValueError) as info:
            certio._ints(["1", value, "x"], "level")
        assert str(info.value) == want

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


_COMMANDS = (
    "{validate,telescope,injectivize,tensor,tensorq,unit-change,states,canon,equiv,"
    "arch-check,verify}"
)
_HELP_BODY = (
    "\n\nExact Bratteli diagram toolkit.\n\npositional arguments:\n"
    f"  {_COMMANDS}\n"
    "    validate            parse a diagram and report its shape\n"
    "    telescope           restrict a diagram to chosen levels\n"
    "    injectivize         prune coordinates the limit never sees\n"
    "    tensor              tensor two diagrams levelwise\n"
    "    tensorq             tensor a diagram with Q_n\n"
    "    unit-change         ladder between two order units\n"
    "    states              extreme states of a deep level, pulled back\n"
    "    canon               canonical form: shape plus rational diagonals\n"
    "    equiv               decide equivalence up to rational scaling\n"
    "    arch-check          sample the archimedean property\n"
    "    verify              recheck a certificate document\n"
    "\noptions:\n  -h, --help            show this help message and exit\n"
)
# argparse 3.13 keeps "..." on the line of the choices
_HELP = {
    f"usage: bratteli [-h]\n                {_COMMANDS}\n                ...{_HELP_BODY}",
    f"usage: bratteli [-h]\n                {_COMMANDS} ...{_HELP_BODY}",
}
_FILE_ONLY = (
    "\n\npositional arguments:\n  file\n\n"
    "options:\n  -h, --help  show this help message and exit\n"
)
_TWO_FILES = (
    "\n\npositional arguments:\n  left\n  right\n\n"
    "options:\n  -h, --help  show this help message and exit\n"
)
_SUBCOMMAND_HELP = {
    "validate": "usage: bratteli validate [-h] file" + _FILE_ONLY,
    "telescope": (
        "usage: bratteli telescope [-h] --keep KEEP file\n\n"
        "positional arguments:\n  file\n\n"
        "options:\n  -h, --help   show this help message and exit\n"
        "  --keep KEEP  comma-separated levels, from 1\n"
    ),
    "injectivize": "usage: bratteli injectivize [-h] file" + _FILE_ONLY,
    "tensor": "usage: bratteli tensor [-h] left right" + _TWO_FILES,
    "tensorq": (
        "usage: bratteli tensorq [-h] --n N --depth DEPTH file\n\n"
        "positional arguments:\n  file\n\n"
        "options:\n  -h, --help     show this help message and exit\n"
        "  --n N          supernatural number, e.g. 2^inf*3\n"
        "  --depth DEPTH\n"
    ),
    "unit-change": (
        "usage: bratteli unit-change [-h] --unit UNIT --depth DEPTH\n"
        "                            [--strategy {minimal,paper}]\n"
        "                            file\n\n"
        "positional arguments:\n  file\n\n"
        "options:\n  -h, --help            show this help message and exit\n"
        "  --unit UNIT           comma-separated entries\n"
        "  --depth DEPTH\n"
        "  --strategy {minimal,paper}\n"
    ),
    "states": (
        "usage: bratteli states [-h] --level LEVEL --depth DEPTH [--decimal] file\n\n"
        "positional arguments:\n  file\n\n"
        "options:\n  -h, --help     show this help message and exit\n"
        "  --level LEVEL\n  --depth DEPTH\n"
        "  --decimal      print floats instead of fractions (lossy)\n"
    ),
    "canon": "usage: bratteli canon [-h] file" + _FILE_ONLY,
    "equiv": (
        "usage: bratteli equiv [-h] [--depth DEPTH] left right\n\n"
        "positional arguments:\n  left\n  right\n\n"
        "options:\n  -h, --help     show this help message and exit\n"
        "  --depth DEPTH  does not affect the verdict; only echoed in Unknown documents\n"
    ),
    "arch-check": (
        "usage: bratteli arch-check [-h] [--samples SAMPLES] --seed SEED file\n\n"
        "positional arguments:\n  file\n\n"
        "options:\n  -h, --help         show this help message and exit\n"
        "  --samples SAMPLES\n  --seed SEED\n"
    ),
    "verify": "usage: bratteli verify [-h] file" + _FILE_ONLY,
}
_NAMES = _COMMANDS.strip("{}").split(",")
# newer argparse releases list the choices without quotes
_UNKNOWN = {
    "usage error: argument command: invalid choice: 'frobnicate' (choose from "
    + ", ".join(quoted)
    + ")\n"
    for quoted in ([f"'{c}'" for c in _NAMES], _NAMES)
}
# what each subcommand says when given nothing, and when given its
# positionals but none of its required flags
_MISSING = [
    (["validate"], "file"),
    (["telescope"], "file, --keep"),
    (["telescope", "x"], "--keep"),
    (["injectivize"], "file"),
    (["tensor"], "left, right"),
    (["tensor", "x"], "right"),
    (["tensorq"], "file, --n, --depth"),
    (["tensorq", "x", "--n", "2"], "--depth"),
    (["unit-change"], "file, --unit, --depth"),
    (["unit-change", "x", "--unit", "1"], "--depth"),
    (["states"], "file, --level, --depth"),
    (["states", "x", "--level", "1"], "--depth"),
    (["canon"], "file"),
    (["equiv"], "left, right"),
    (["arch-check"], "file, --seed"),
    (["arch-check", "x"], "--seed"),
    (["verify"], "file"),
]


# argv whose first word is not the command, or whose words after the
# command are not its own, and a bad value in each typed flag, with what
# each argparse form says: (stdout, stderr, exit code) for every form
_NOT_INTEGER = "usage error: argument {}: not an integer: {!r}\n"
_NOT_POSITIVE = "usage error: argument {}: must be >= 1, got {}\n"
_UNRECOGNIZED = "usage error: unrecognized arguments: --bogus\n"
_BAD_STRATEGY = "usage error: argument --strategy: invalid choice: 'best' "
_DISPATCH = [
    (["--bogus", "validate", "x"], {("", _UNRECOGNIZED, 64)}),
    (["-h", "validate"], {(text, "", 0) for text in _HELP}),
    # newer argparse releases drop the "--" before the command
    (
        ["--", "validate", "x"],
        {("", err.replace("'frobnicate'", "'--'"), 64) for err in _UNKNOWN}
        | {("", "error: [Errno 2] No such file or directory: 'x'\n", 1)},
    ),
    (["validate", "x", "--bogus"], {("", _UNRECOGNIZED, 64)}),
    (["validate", "x", "y"], {("", "usage error: unrecognized arguments: y\n", 64)}),
    (
        ["validate", "--", "-x"],
        {("", "error: [Errno 2] No such file or directory: '-x'\n", 1)},
    ),
    (
        ["tensorq", "x", "--n", "2", "--depth", "0"],
        {("", _NOT_POSITIVE.format("--depth", 0), 64)},
    ),
    (
        ["unit-change", "x", "--unit", "1", "--depth", "one"],
        {("", _NOT_INTEGER.format("--depth", "one"), 64)},
    ),
    (
        ["unit-change", "x", "--unit", "1", "--depth", "1", "--strategy", "best"],
        {
            ("", f"{_BAD_STRATEGY}(choose from {choices})\n", 64)
            for choices in ("'minimal', 'paper'", "minimal, paper")
        },
    ),
    (
        ["states", "x", "--level", "0", "--depth", "1"],
        {("", _NOT_POSITIVE.format("--level", 0), 64)},
    ),
    (
        ["states", "x", "--level=0", "--depth", "1"],
        {("", _NOT_POSITIVE.format("--level", 0), 64)},
    ),
    (
        ["states", "x", "--level", "1", "--depth", "2x"],
        {("", _NOT_INTEGER.format("--depth", "2x"), 64)},
    ),
    (
        ["equiv", "x", "y", "--depth", "-1"],
        {("", _NOT_POSITIVE.format("--depth", -1), 64)},
    ),
    (
        ["arch-check", "x", "--samples", "0", "--seed", "1"],
        {("", _NOT_POSITIVE.format("--samples", 0), 64)},
    ),
    (
        ["arch-check", "x", "--seed", "1.5"],
        {("", _NOT_INTEGER.format("--seed", "1.5"), 64)},
    ),
]


class TestUsage:
    """The usage texts, word for word, so a change to how the parser is
    built shows in them; argparse wraps to $COLUMNS, so it is fixed."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_no_arguments(self, capsys):
        assert run([]) == 64
        err = "usage error: the following arguments are required: command\n"
        assert capsys.readouterr() == ("", err)

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err in _UNKNOWN

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--help"])
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert out in _HELP and err == ""

    def test_every_subcommand_has_help(self):
        assert sorted(_SUBCOMMAND_HELP) == sorted(_NAMES)

    @pytest.mark.parametrize("command", sorted(_SUBCOMMAND_HELP))
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run([command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr() == (_SUBCOMMAND_HELP[command], "")

    @pytest.mark.parametrize("argv, missing", _MISSING)
    def test_missing_arguments(self, argv, missing, capsys):
        assert run(argv) == 64
        err = f"usage error: the following arguments are required: {missing}\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    @pytest.mark.parametrize("name, text, func, arguments", cli._COMMANDS)
    def test_help_matches_an_eagerly_built_parser(
        self, name, text, func, arguments, flag, capsys
    ):
        # the same table built the plain argparse way, every subparser with
        # add_help=True and its arguments added at once: any argparse
        # release that builds the parser behind a stand-in differently, or
        # never reaches it, prints another help here
        eager = argparse.ArgumentParser(
            prog="bratteli", description="Exact Bratteli diagram toolkit."
        )
        sub = eager.add_subparsers(dest="command", required=True)
        for other, other_text, _, other_arguments in cli._COMMANDS:
            other_arguments(sub.add_parser(other, help=other_text))
        said = []
        for parse in (eager.parse_args, run):
            with pytest.raises(SystemExit) as info:
                parse([name, flag])
            said.append((*capsys.readouterr(), info.value.code))
        assert said[0] == said[1]
        assert said[1][0].startswith(f"usage: bratteli {name} [-h]")

    @pytest.mark.parametrize("argv, said", _DISPATCH)
    def test_dispatch(self, argv, said, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # where no file x or -x exists
        try:
            code = run(argv)
        except SystemExit as e:
            code = e.code
        assert (*capsys.readouterr(), code) in said

    def test_only_the_dispatched_parser_gets_arguments(self, doc, monkeypatch, capsys):
        seen = []
        add = cli._Parser.add_argument

        def record(parser, *flags, **kwargs):
            seen.append((parser.prog, flags))
            return add(parser, *flags, **kwargs)

        monkeypatch.setattr(cli._Parser, "add_argument", record)
        assert run(["validate", doc("d.brat", DYADIC)]) == 0
        assert capsys.readouterr().err == ""
        assert seen == [
            ("bratteli validate", ("-h", "--help")),
            ("bratteli validate", ("file",)),
        ]


# the words after each subcommand's name in a full command line: its
# positionals, then each option with its value (None for a flag)
_FULL = {
    "validate": (["d.brat"], {}),
    "telescope": (["d.brat"], {"--keep": "1,2"}),
    "injectivize": (["d.brat"], {}),
    "tensor": (["d.brat", "d.brat"], {}),
    "tensorq": (["d.brat"], {"--n": "2", "--depth": "2"}),
    "unit-change": (["d.brat"], {"--unit": "1", "--depth": "2", "--strategy": "paper"}),
    "states": (["d.brat"], {"--level": "1", "--depth": "2", "--decimal": None}),
    "canon": (["d.brat"], {}),
    "equiv": (["d.brat", "d.brat"], {"--depth": "3"}),
    "arch-check": (["d.brat"], {"--samples": "5", "--seed": "1"}),
    "verify": (["c.json"], {}),
}


def _words(options):
    return [w for flag, value in options.items() for w in (flag, value) if w]


def _lines():
    # every subcommand bare, asking for help, in full, in full with one
    # word too many, with "--" or an unknown flag first, and each option
    # left out, with a bad or an "=" value, abbreviated to four
    # characters, given twice and before the positionals
    for name, (files, options) in _FULL.items():
        full = [name, *files, *_words(options)]
        yield [name]
        for flag in ("-h", "--help", "--hel"):
            yield [name, flag]
        yield full
        for extra in ("stray", "--bogus", "-h"):
            yield [*full, extra]
        for first in ("--", "--bogus"):
            yield [name, first, *full[1:]]
        for flag, value in options.items():
            own = _words({flag: value})
            others = {f: v for f, v in options.items() if f != flag}
            rest = [name, *files, *_words(others)]
            bad = [] if value is None else [[flag, v] for v in ("0", "-1", "abc")]
            yield rest
            for use in [*bad, [f"{flag}=7"], [flag[:4], *own[1:]]]:
                yield rest + use
            yield full + own
            yield [name, *own, *rest[1:]]


class TestParsers:
    """A command line that starts with a subcommand's name is parsed by
    that subcommand's parser alone; any other line by the full parser,
    built with every subcommand's parser, the one argparse documents."""

    @pytest.fixture
    def built(self, monkeypatch):
        # the prog of every cli._Parser constructed, in order
        progs = []
        init = cli._Parser.__init__

        def record(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(cli._Parser, "__init__", record)
        return progs

    @pytest.mark.parametrize("name", [command[0] for command in cli._COMMANDS])
    def test_one_parser_a_call(self, name, built, capsys):
        # every command has a required positional, so this is refused
        # by the subcommand's parser
        assert run([name]) == 64
        assert capsys.readouterr().err.startswith("usage error: the following")
        assert built == [f"bratteli {name}"]

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["frobnicate"], 64), ([], 64), (["-h", "validate"], 0)],
    )
    def test_every_parser_without_a_command(self, argv, code, built, capsys):
        try:
            said = run(argv)
        except SystemExit as e:
            said = e.code
        capsys.readouterr()
        assert said == code
        assert built == ["bratteli"] + [f"bratteli {c[0]}" for c in cli._COMMANDS]

    def test_no_state_between_calls(self, doc, built, capsys):
        def holds_a_parser(value):
            if isinstance(value, dict):
                return any(map(holds_a_parser, value.values()))
            if isinstance(value, (tuple, list)):
                return any(map(holds_a_parser, value))
            return isinstance(value, argparse.ArgumentParser)

        path = doc("d.brat", DYADIC)
        assert run(["validate", path]) == 0
        assert run(["canon", path]) == 0
        assert capsys.readouterr().err == ""
        assert built == ["bratteli validate", "bratteli canon"]
        assert not holds_a_parser(vars(cli))

    @pytest.mark.parametrize("argv", list(_lines()), ids=" ".join)
    def test_same_as_the_full_parser(self, argv, doc, tmp_path, monkeypatch, capsys):
        seq = parse_diagram(DYADIC)
        verdict = equivalent_q(seq, seq)
        doc("d.brat", DYADIC)
        doc("c.json", certio.dumps(certio.verdict_to_doc(verdict, seq, seq)))
        monkeypatch.chdir(tmp_path)
        said = []
        for named in (cli._NAMED, {}):
            monkeypatch.setattr(cli, "_NAMED", named)
            try:
                code = run(argv)
            except SystemExit as e:
                code = e.code
            said.append((*capsys.readouterr(), code))
        assert said[0] == said[1]
