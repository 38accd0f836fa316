"""The benchmark's tracer still finds everything it wraps.

perfbench/tracer.py patches the package's public functions and a fixed
list of methods by name, so deleting or renaming one of those methods
breaks a traced benchmark run at install time.  This loads the tracer
from its file, without writing anything next to it, and installs it the
way perfbench/run.py does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_the_package(monkeypatch, tmp_path, capsys):
    tracer_mod = _load_tracer(monkeypatch)
    lib = importlib.import_module("bratteli")
    cli = importlib.import_module("bratteli.cli")
    importlib.import_module("bratteli.certio")
    modules = [lib] + [getattr(lib, m) for m in tracer_mod.LAYERS]
    before = [dict(vars(m)) for m in modules]
    methods = [
        (getattr(lib, mod).__dict__[cls], meth)
        for mod, cls, meth, _ in tracer_mod.METHODS
    ]
    originals = [cls.__dict__[meth] for cls, meth in methods]

    tracer = tracer_mod.Tracer()
    tracer.install(lib)
    try:
        path = tmp_path / "d.brat"
        path.write_text(
            "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\nrepeat: 1\n",
            encoding="utf-8",
        )
        assert cli.run(["canon", str(path)]) == 0
        assert cli.run(["equiv", str(path), str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    spans = tracer.summary()
    assert spans["cli.run"]["calls"] == 2
    assert spans["equiv.canonicalize_q"]["calls"] == 1
    assert spans["fileformat.parse"]["calls"] == 3
    assert [dict(vars(m)) for m in modules] == before
    assert [cls.__dict__[meth] for cls, meth in methods] == originals
