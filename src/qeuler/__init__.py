"""Orthogonal Latin squares, their quantum analogues, and 2-unitary searches.

The package splits into matrix reorderings and defects (linalg), finite
fields (gf), classical and quantum combinatorial designs (designs),
multipartite pure states and uniformity checks (states), the iterative
search for 2-unitary matrices (solver), JSON/CSV persistence (jsonio), and
a command-line front end (cli).

Names load on first use: `import qeuler` imports no submodule, and
`qeuler.search` or `from qeuler import search` imports only the module that
defines it (and what that module imports), so a search of order 4 or 36
never loads the designs, fields or states.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "errors": (
        "QeulerError",
        "DimensionError",
        "NumericError",
        "CapabilityError",
        "NotAPrimePowerError",
        "InvalidDesignError",
        "NotAnOlsError",
        "FormatError",
    ),
    "gf": ("Field", "FieldElement", "prime_power_decompose"),
    "linalg": (
        "MultiUnitarityReport",
        "PolarFactors",
        "block_dim",
        "flattenings",
        "multi_unitarity_check",
        "partial_transpose",
        "polar_decompose",
        "reshuffle",
        "two_unitarity_defect",
        "unitarity_defect",
    ),
    "designs": (
        "DesignReport",
        "FunctionTables",
        "OrthogonalArray",
        "OrthogonalLatinPair",
        "QuantumOrthogonalArray",
        "QuantumSquare",
        "Violation",
        "classical_embed",
        "cyclic_latin",
        "mols_construct",
        "oa_from_latin",
        "oa_verify",
        "ols_function_tables",
        "ols_to_permutation",
        "permutation_to_ols",
        "qls_verify",
        "qoa_from_qols",
        "qoa_verify",
        "qols_verify",
        "square_from_unitary_rows",
        "verify_latin",
        "verify_orthogonal_pair",
    ),
    "states": (
        "PureState",
        "SchmidtDecomposition",
        "UniformityReport",
        "ame_check",
        "ame_from_ols",
        "closest_separable_distance",
        "entanglement_entropy",
        "k_uniform_check",
        "reduced_density",
        "schmidt_decompose",
        "state_from_two_unitary",
    ),
    "solver": (
        "GOLDEN",
        "GoldenConstants",
        "SEED_KINDS",
        "SearchConfig",
        "SearchRun",
        "SearchSummary",
        "amplitude_profile",
        "brute_force_permutations",
        "multi_seed_search",
        "search",
        "seed_matrix",
        "sinkhorn_step",
    ),
    "jsonio": (),
    "cli": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import the home module of a public name or submodule on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
