"""Exact coherence checking for conditional prevision assessments.

The package decides whether probability/prevision assessments on conditional
events and their conjunctions or disjunctions are coherent, computes the
interval of coherent extensions, and provides the Frank t-norm/t-conorm family
together with the closed-form boundary solutions that make the
Frechet-Hoeffding envelope sharp.  `__all__` is the documented surface;
internals (systems, the LP, constituent views) come from their modules.
The first read of a documented name loads the whole surface (PEP 562):
`_bind`, which the CLI and `coherence` share, binds each name of `__all__`
from the namespace of the module that holds it, so `__all__` is the one
list of the surface, and `import prevision.cli` loads only what it runs.
"""

__all__ = [
    "EmptySpace",
    "FormulaError",
    "IncoherentBase",
    "InfeasibleSystem",
    "MissingPrevision",
    "NotApplicable",
    "OutOfRange",
    "PrevisionError",
    "SpaceTooLarge",
    "TargetOutOfBounds",
    "UnknownAtom",
    "ConditionalEvent",
    "Event",
    "WorldSpace",
    "build_world_space",
    "Assessment",
    "CompoundPrevisionMap",
    "ConditionalQuantity",
    "demorgan_previsions",
    "indicator",
    "make_conjunction",
    "make_disjunction",
    "CoherenceVerdict",
    "DutchBook",
    "ExtensionInterval",
    "check_coherence",
    "dutch_book_gains",
    "extension_interval",
    "find_dutch_book",
    "value_table",
    "Family7Assessment",
    "Family7Verdict",
    "LambdaVector",
    "SufficiencyVerdict",
    "check_family7",
    "family7_bounds",
    "lambda_solution_TL",
    "lambda_solution_TM",
    "lukasiewicz_sufficient",
    "special_case_same_consequent",
    "FrankKind",
    "FrankParameter",
    "frechet_bounds_conjunction",
    "frechet_bounds_disjunction",
    "solve_lambda",
    "sum_rule_disjunction",
    "tconorm",
    "tnorm",
]


def _bind(modules, namespace) -> None:
    """Import this package's `modules` in order and bind into `namespace`
    every name of `__all__` that each one holds."""
    for module in modules:
        found = vars(__import__(f"{__name__}.{module}", fromlist=["*"]))
        namespace.update((n, found[n]) for n in __all__ if n in found)


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(("errors", "events", "geometry", "coherence", "closed_form", "frank"), globals())
    return globals()[name]
