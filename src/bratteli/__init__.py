"""Exact arithmetic for dimension groups presented by non-mixing Bratteli data.

Each public name is imported from its home module on first access
(PEP 562), so a process loads only the modules it uses: `bratteli
validate` never imports the equivalence, state or certificate code.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
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
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "certio", "cli"}

__all__ = list(_HOME)


def __getattr__(name):
    # resolved on every access rather than stored here, so the package's
    # namespace holds only what the import system binds (its submodules)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
