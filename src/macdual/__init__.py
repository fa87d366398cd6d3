"""Exact computations with Macaulay inverse systems of local Artinian
Gorenstein algebras: Hilbert functions, annihilator ideals, symmetric
subquotient decompositions, constructive deformations of dual generators,
and dual-generator normal forms.

Importing the package loads none of its modules.  Each name in `__all__`
is resolved on first access (PEP 562): its home module is imported then,
and the value is cached here, so a one-shot command pays only for the
modules it uses."""

from importlib import import_module as _import_module

_HOME = {}
for _module, _names in (
    ("fields", ("Field",)),
    ("poly", ("DPPoly", "PSElement", "RingSpec", "contract", "dp_mul",
              "dp_power_of_linear", "linear_substitute", "pairing")),
    ("apolarity", ("PartialFiltration", "annihilator", "hilbert_function",
                   "verify_graded_presentation", "verify_ideal_presentation")),
    ("decomposition", ("SymDecomp", "component_dims", "component_dual_dims",
                       "component_generator_degrees", "compressed_hilbert",
                       "dual_component_basis", "filtration_ideal",
                       "is_o_sequence", "macaulay_bound", "max_continuation",
                       "overweight_check", "symmetric_decomposition",
                       "verify_graded_ideal")),
    ("constructions", ("ExtensionSpec", "allowed_component_indices",
                       "ancestor_data", "connected_sum",
                       "connected_sum_hilbert", "is_a_modification",
                       "lift_to_modification", "linear_extension",
                       "noncyclic_extension",
                       "relatively_compressed_modification",
                       "restricted_components", "simple_deformation")),
    ("normalform", ("CoordChange", "adapted_coordinates", "adjoint_apply",
                    "detect_exotic", "normalize", "split_connected_summand")),
    ("io", ("parse_poly", "parse_ps", "render_decomposition")),
):
    _HOME.update(dict.fromkeys(_names, _module))
del _module, _names

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    value = getattr(_import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
