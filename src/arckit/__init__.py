"""arckit: arc algebras, projective resolutions, Ext algebras and
A-infinity minimal models, exactly over Q.

The public names below are loaded from their modules on first use
(PEP 562), so ``import arckit`` and ``import arckit.cli`` pay only for the
modules that the code which runs actually touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("diagrams", "CapDiagram CupDiagram OrientedCircleDiagram Weight "
         "associated_cup_diagram bruhat_leq length relative_length weights_in_block"),
        ("arcalg", "AlgebraElement Matching basis functor_image idempotent "
         "multiply surgery_trace"),
        ("exact", "QPoly Rational SparseMatrix kernel_basis rank solve"),
        ("repmod", "cartan_matrix cell_module decomposition_matrix kl_poly_closed "
         "kl_poly_recursive projective_module"),
        ("resolve", "ProjectiveComplex resolve_cone resolve_generic verify_resolution"),
        ("extalg", "ExtClass HomElement ext_basis ext_dims end_quiver shelton_dims"),
        ("ainfty", "Splitting build_splitting ext_quiver lambda_n m_n stasheff_check "
         "vanishing_report"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS.values():  # a submodule, as an attribute of the package
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
