"""Exact coherence checking for conditional prevision assessments.

The package decides whether probability/prevision assessments on conditional
events and their conjunctions or disjunctions are coherent, computes the
interval of coherent extensions, and provides the Frank t-norm/t-conorm family
together with the closed-form boundary solutions that make the
Frechet-Hoeffding envelope sharp.  `__all__` is the documented surface;
internals (systems, the LP, constituent views) come from their modules.
The first read of a documented name loads the whole surface (PEP 562), so
`import prevision.cli` loads only what its command runs.
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


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .errors import (
        EmptySpace,
        FormulaError,
        IncoherentBase,
        InfeasibleSystem,
        MissingPrevision,
        NotApplicable,
        OutOfRange,
        PrevisionError,
        SpaceTooLarge,
        TargetOutOfBounds,
        UnknownAtom,
    )
    from .events import ConditionalEvent, Event, WorldSpace, build_world_space
    from .geometry import (
        Assessment,
        CompoundPrevisionMap,
        ConditionalQuantity,
        demorgan_previsions,
        indicator,
        make_conjunction,
        make_disjunction,
    )
    from .coherence import (
        CoherenceVerdict,
        DutchBook,
        ExtensionInterval,
        check_coherence,
        dutch_book_gains,
        extension_interval,
        find_dutch_book,
        value_table,
    )
    from .closed_form import (
        Family7Assessment,
        Family7Verdict,
        LambdaVector,
        SufficiencyVerdict,
        check_family7,
        family7_bounds,
        lambda_solution_TL,
        lambda_solution_TM,
        lukasiewicz_sufficient,
        special_case_same_consequent,
    )
    from .frank import (
        FrankKind,
        FrankParameter,
        frechet_bounds_conjunction,
        frechet_bounds_disjunction,
        solve_lambda,
        sum_rule_disjunction,
        tconorm,
        tnorm,
    )
    surface = locals()
    globals().update((n, surface[n]) for n in __all__)
    return surface[name]
