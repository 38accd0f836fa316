"""The package's public surface, and the real command-line entry point.

`bratteli` imports each public name from its home module on first
access, so these pin what that must not change: the names, the objects
they resolve to, that a `validate` process loads none of the heavy
modules, and that no command loads `dataclasses` or `inspect`.  The
child-process tests run `python -m bratteli.cli` the way a user does,
against the source tree, through tests/child.py.
"""

import argparse
import importlib
import json

import pytest

import bratteli
import child
from bratteli import cli, parse_diagram
from corpus import valid_documents

# every public name, by the module it lives in
EXPORTS = {
    "errors": "BadRepeat BratteliError LevelOutOfRange NonAscending "
    "NotOrderUnit NotPositive ParseError RankMismatch TooLarge",
    "supernat": "INF SupernaturalNumber is_prime",
    "simplicial": "NonMixingMap forall_n_leq is_order_unit",
    "diagram": "BratteliSequence LimitElement forall_n_leq_limit injectivize "
    "keep_at limit_leq telescope",
    "tensor": "tensor_map tensor_qn tensor_seq tensor_vec verify_state_invariance",
    "intertwine": "DiagonalMap UnitChangeCertificate "
    "certificate_failures rescale_lemma unit_change",
    "states": "depth_image_vertices",
    "equiv": "Cardinality EquivalenceCertificate Equivalent IndexSystem "
    "Intertwining NotEquivalent Unknown canonicalize_q "
    "equivalence_certificate_failures equivalent_q not_equivalent_failures",
    "fileformat": "parse_diagram serialize_diagram",
}

# what `validate` has no use for
HEAVY = ("equiv", "intertwine", "states", "certio", "tensor", "supernat")

# one successful call of every subcommand, on the binary tree and on its
# `equiv` certificate
COMMANDS = [
    ["validate", "{tree}"],
    ["telescope", "{tree}", "--keep", "1,3"],
    ["injectivize", "{tree}"],
    ["tensor", "{tree}", "{tree}"],
    ["tensorq", "{tree}", "--n", "2^inf", "--depth", "2"],
    ["unit-change", "{tree}", "--unit", "2", "--depth", "3"],
    ["states", "{tree}", "--level", "1", "--depth", "3"],
    ["canon", "{tree}"],
    ["equiv", "{tree}", "{tree}"],
    ["arch-check", "{tree}", "--seed", "1"],
    ["verify", "{cert}"],
]


# the corpus documents the hash-seed children read
SEEDED = ("two-path-2-7", "binary-tree", "cyclic-late", "dead-branch", "wide-units")


def _loaded_by(argv):
    # the modules a fresh process holds after running one command as
    # `python -m bratteli.cli` does
    code = (
        "import contextlib, io, json, runpy, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('bratteli.cli', run_name='__main__')\n"
        "    except SystemExit as done:\n"
        "        assert done.code == 0, done.code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    code, out, err, _ = child.run(argv, code=code)
    assert code == 0, err
    return set(json.loads(out.splitlines()[-1]))


class TestPublicSurface:
    def test_names(self):
        names = [n for names in EXPORTS.values() for n in names.split()]
        assert len(names) == 46
        assert set(bratteli.__all__) == set(names)

    def test_star_import_binds_the_home_objects(self):
        ns = {}
        exec("from bratteli import *", ns)
        for mod, names in EXPORTS.items():
            home = importlib.import_module(f"bratteli.{mod}")
            for name in names.split():
                assert ns[name] is getattr(home, name), name

    def test_dir_lists_every_name(self):
        assert set(dir(bratteli)) >= set(bratteli.__all__)

    def test_unknown_names_are_attribute_errors(self):
        assert not hasattr(bratteli, "no_such_name")
        assert not hasattr(bratteli, "DIGITS")

    def test_resolved_names_are_not_stored(self):
        assert bratteli.keep_at is bratteli.diagram.keep_at
        assert "keep_at" not in vars(bratteli)

    def test_submodule_resolves_before_it_is_imported(self):
        code = (
            "import sys, bratteli\n"
            "assert 'bratteli.equiv' not in sys.modules\n"
            "assert bratteli.equiv is sys.modules['bratteli.equiv']\n"
            "assert getattr(bratteli, 'tensor') is sys.modules['bratteli.tensor']\n"
        )
        code, _, err, _ = child.run([], code=code)
        assert code == 0, err


class TestEntryPoint:
    def test_validate(self, tmp_path):
        path = tmp_path / "tiny.brat"
        path.write_text("bratteli v1\nsizes: 1\nunit: 1\n", encoding="utf-8")
        code, out, err, _ = child.run(["validate", str(path)])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "levels: 1",
            "ranks: 1",
            "tail: none",
            "injective: yes",
        ]

    def test_validate_imports_no_heavy_module(self, tmp_path):
        path = tmp_path / "tiny.brat"
        path.write_text("bratteli v1\nsizes: 1\nunit: 1\n", encoding="utf-8")
        loaded = _loaded_by(["validate", str(path)])
        assert "bratteli.fileformat" in loaded
        assert loaded.isdisjoint(f"bratteli.{m}" for m in HEAVY)

    @pytest.mark.parametrize(
        "argv, used, unused",
        [
            (["states", "--level", "1", "--depth", "3"], "states", "equiv intertwine supernat"),
            (["canon"], "equiv", "intertwine supernat"),
        ],
    )
    def test_certificate_commands_skip_the_codecs_imports(self, tmp_path, argv, used, unused):
        # these commands load none of the modules the certificate codecs
        # need; certio serves `canon` dumps only, and
        # `states` writes its lines without it
        path = tmp_path / "tree.brat"
        path.write_text(
            "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1\nrepeat: 1\n",
            encoding="utf-8",
        )
        loaded = _loaded_by([argv[0], str(path), *argv[1:]])
        assert f"bratteli.{used}" in loaded
        assert loaded.isdisjoint(f"bratteli.{m}" for m in unused.split())

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_no_command_imports_dataclasses(self, tmp_path, capsys, argv):
        # dataclasses imports inspect, which imports ast, dis and
        # tokenize: about 13 ms of every command's startup
        tree = tmp_path / "tree.brat"
        tree.write_text(
            "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1\nrepeat: 1\n",
            encoding="utf-8",
        )
        cert = tmp_path / "cert.json"
        assert cli.run(["equiv", str(tree), str(tree)]) == 0
        cert.write_text(capsys.readouterr().out, encoding="utf-8")
        loaded = _loaded_by([a.format(tree=tree, cert=cert) for a in argv])
        assert "bratteli.fileformat" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect"})

    def test_output_bytes_do_not_depend_on_the_hash_seed(self, tmp_path, monkeypatch):
        # the certificate contract relies on deterministic stdout: one
        # child per PYTHONHASHSEED runs every writing command on a few
        # corpus documents through cli.run, and both print the same bytes
        docs = dict(valid_documents())
        paths = []
        for name in SEEDED:
            path = tmp_path / f"{name}.brat"
            path.write_text(docs[name], encoding="utf-8")
            paths.append(str(path))
        runs = []
        for i, (name, path) in enumerate(zip(SEEDED, paths)):
            other = paths[(i + 1) % len(paths)]
            unit = ",".join(["2"] * parse_diagram(docs[name]).ranks[0])
            runs += [
                ["canon", path],
                ["equiv", path, other],
                ["equiv", path, path],
                ["unit-change", path, "--unit", unit, "--depth", "2"],
                ["injectivize", path],
                ["telescope", path, "--keep", "1,2"],
                ["tensor", path, other],
                ["tensorq", path, "--n", "2^inf*3", "--depth", "2"],
                ["states", path, "--level", "1", "--depth", "2"],
            ]
        code = (
            "import contextlib, io, json, sys\n"
            "from bratteli.cli import run\n"
            "done = []\n"
            f"for argv in {runs!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        done.append((run(argv), out.getvalue(), err.getvalue()))\n"
            "sys.stdout.write(json.dumps(done))\n"
        )
        outputs = []
        for seed in ("0", "1"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            done, out, err, _ = child.run([], code=code)
            assert done == 0, err
            outputs.append(json.loads(out))
        assert len(outputs[0]) == len(runs)
        # the verdicts of unequal and untailed pairs exit 1 and 2
        assert {code for code, _, _ in outputs[0]} == {0, 1, 2}
        assert sum(code == 0 for code, _, _ in outputs[0]) > len(runs) * 3 // 4
        assert outputs[0] == outputs[1]

    def test_every_subcommand_is_guarded(self):
        (sub,) = [
            a
            for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert sorted(sub.choices) == sorted(argv[0] for argv in COMMANDS)
