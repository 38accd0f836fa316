"""The package's public surface, and the real command-line entry point.

`bratteli` imports each public name from its home module on first
access, so these pin what that must not change: the names, the objects
they resolve to, and that a `validate` process loads none of the heavy
modules.  The subprocess tests run `python -m bratteli.cli` the way a
user does, against the source tree.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bratteli

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name, by the module it lives in
EXPORTS = {
    "errors": "BadRepeat BratteliError EmptyLevel LevelOutOfRange NonAscending "
    "NotInjective NotNonMixing NotNormalized NotOrderUnit NotPositive "
    "ParseError RankMismatch TooLarge",
    "supernat": "INF ONE SupernaturalNumber is_prime",
    "simplicial": "NonMixingMap forall_n_leq is_order_unit is_positive",
    "diagram": "BratteliSequence LimitElement forall_n_leq_limit injectivize "
    "keep_at limit_eq limit_leq telescope",
    "tensor": "tensor_map tensor_qn tensor_seq tensor_vec",
    "intertwine": "DiagonalMap LadderRung UnitChangeCertificate "
    "certificate_failures rescale_lemma unit_change verify_certificate",
    "states": "StateVector depth_image_vertices restate_unit simplex_vertices "
    "verify_state_invariance",
    "equiv": "Cardinality EquivalenceCertificate Equivalent EquivVerdict "
    "IndexSystem Intertwining NotEquivalent Unknown canonicalize_q "
    "equivalence_certificate_failures equivalent_q limit_cardinality "
    "not_equivalent_failures verify_equivalence_certificate",
    "fileformat": "parse_diagram serialize_diagram",
}

# what `validate` has no use for
HEAVY = ("equiv", "intertwine", "states", "certio", "tensor", "supernat")


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _loaded_by(argv):
    # the modules a fresh process holds after running one command
    code = (
        "import contextlib, io, json, sys\n"
        "from bratteli import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestPublicSurface:
    def test_names(self):
        names = [n for names in EXPORTS.values() for n in names.split()]
        assert len(names) == 61
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
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr


class TestEntryPoint:
    def test_validate(self, tmp_path):
        path = tmp_path / "tiny.brat"
        path.write_text("bratteli v1\nsizes: 1\nunit: 1\n", encoding="utf-8")
        done = _python("-m", "bratteli.cli", "validate", str(path))
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == [
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
        # certio serves these commands decimals and dumps only, so they
        # load none of the modules its document codecs need
        path = tmp_path / "tree.brat"
        path.write_text(
            "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1\nrepeat: 1\n",
            encoding="utf-8",
        )
        loaded = _loaded_by([argv[0], str(path), *argv[1:]])
        assert {"bratteli.certio", f"bratteli.{used}"} <= loaded
        assert loaded.isdisjoint(f"bratteli.{m}" for m in unused.split())
