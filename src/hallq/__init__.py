"""Exact verification of quantum dilogarithm identities arising from
stability functions on nilpotent cyclic-quiver representations.

Layers, bottom up: exact arithmetic over Q(t) with q = t**2 (`exact`),
combinatorics of uniserial modules (`quiver`), stability functions and
filtrations (`stability`), the truncated quantum torus (`torus`),
finite-field counting (`hall`), and verification campaigns with a CLI
(`verify`, `cli`).  The brute-force Hom/Ext and automorphism oracles
(`oracles`) are off the CLI's import path: `hallq.hom_ext_oracle` and
`hallq.count_automorphisms` load them on first use.
"""

from .exact import (GaussianRational, LaurentPoly, PhaseDomainError,
                    PoleError, RationalFunction, phase_cmp, rf_eq)
from .hall import (Budget, BudgetError, FiniteFieldRep, HallPolynomial,
                   InterpolationError, check_integration_homomorphism,
                   hall_count, interpolate_hall, iso_class_of, realize,
                   submodule_census)
from .quiver import CyclicQuiver, DimVector, Indecomposable, ModuleIso
from .stability import (NotDiscreteError, StabilityFunction, ZeroChargeError,
                        charge_of, charge_of_indec, charge_of_module,
                        check_discrete, delta_stable_via_ci, hn_filtration,
                        is_semistable, is_stable, perturb_to_ambient_discrete,
                        random_discrete, random_restricted_discrete,
                        stable_indecomposables_up_to, stable_objects,
                        translate_function)
from .torus import (TorusElement, apply_translate, convolve, dilog,
                    dilog_coefficient, ez, ez_delta, ez_factors, integrate,
                    integrate_iso_sum, integrate_modules, ordered_product,
                    torus_diff, torus_inverse)

__version__ = "0.1.0"

__all__ = [
    "Budget", "BudgetError", "CyclicQuiver", "DimVector", "FiniteFieldRep",
    "GaussianRational", "HallPolynomial", "Indecomposable",
    "InterpolationError", "LaurentPoly", "ModuleIso", "NotDiscreteError",
    "PhaseDomainError", "PoleError", "RationalFunction",
    "StabilityFunction", "TorusElement", "ZeroChargeError",
    "apply_translate", "charge_of", "charge_of_indec", "charge_of_module",
    "check_discrete", "check_integration_homomorphism", "convolve",
    "count_automorphisms", "delta_stable_via_ci", "dilog",
    "dilog_coefficient", "ez", "ez_delta", "ez_factors", "hall_count",
    "hn_filtration", "hom_ext_oracle", "integrate", "integrate_iso_sum",
    "integrate_modules", "interpolate_hall",
    "is_semistable", "is_stable", "iso_class_of", "ordered_product",
    "perturb_to_ambient_discrete", "phase_cmp", "random_discrete",
    "random_restricted_discrete", "realize", "rf_eq",
    "stable_indecomposables_up_to", "stable_objects", "submodule_census",
    "torus_diff", "torus_inverse", "translate_function",
]


def __getattr__(name: str):
    if name in ("count_automorphisms", "hom_ext_oracle"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
