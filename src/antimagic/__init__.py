"""Local antimagic vertex colorings of corona-product graphs: generators,
closed-form labelings, exact-arithmetic bounds, and a branch-and-bound
solver with verifiable certificates.

The public names below are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the submodules that are needed.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining submodule -> the public names it contributes
_EXPORTS = {
    "bounds": ("BoundReport", "InequalityWitness", "bound_report",
               "fan_witnesses", "friendship_witnesses",
               "known_exact_c3_corona", "known_exact_kn_k1", "lb_fan",
               "lb_friendship", "sweep_fan_inequalities",
               "sweep_friendship_inequalities"),
    "construction": ("ConstructionError", "ConstructionReport",
                     "chi_la_friendship_o1", "construct", "construct_even",
                     "construct_odd", "construct_small"),
    "graph": ("Graph", "VertexRole"),
    "graphs": ("complete", "corona", "cycle", "fan", "fan_corona",
               "friendship", "friendship_corona", "null_graph", "path"),
    "labeling": ("BUDGET_EXHAUSTED", "Certificate", "EXACT", "FEASIBLE",
                 "GraphMismatchError", "INFEASIBLE", "InvalidLabelingError",
                 "SearchConfig", "Verdict", "make_certificate",
                 "validate_labeling", "verify_certificate", "weights"),
    "proof": ("lower_bound_prune",),
    "solver": ("SearchOutcome", "exact_chi_la", "feasible_with_k_colors"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``antimagic.solver``
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
