"""Factor graphs: variables, log-linear factors, templates, lazy graphs.

The in-memory statistical layer of the probabilistic database.  The
relational store always holds one concrete world; this package encodes
the distribution over worlds (paper Eq. 1) and supports the delta
scoring (Appendix 9.2) that makes MCMC steps O(1) in database size.
"""

from repro.fg.domain import Domain
from repro.fg.factors import (
    NEG_INF,
    ConstraintFactor,
    Factor,
    LogLinearFactor,
    TableFactor,
)
from repro.fg.features import FeatureVector, accumulate, scale, subtract, unit
from repro.fg.graph import FactorGraph, GraphRepair
from repro.fg.relational import bind_field_variables, flush_all, reload_all
from repro.fg.slots import LocalScorer, build_scorer
from repro.fg.templates import PairwiseTemplate, Template, UnaryTemplate, dedup_factors
from repro.fg.variables import (
    FieldVariable,
    HiddenVariable,
    ObservedVariable,
    Variable,
)
from repro.fg.weights import Weights

__all__ = [
    "NEG_INF",
    "ConstraintFactor",
    "Domain",
    "Factor",
    "FactorGraph",
    "FeatureVector",
    "FieldVariable",
    "GraphRepair",
    "HiddenVariable",
    "LocalScorer",
    "LogLinearFactor",
    "ObservedVariable",
    "PairwiseTemplate",
    "TableFactor",
    "Template",
    "UnaryTemplate",
    "Variable",
    "Weights",
    "accumulate",
    "bind_field_variables",
    "build_scorer",
    "dedup_factors",
    "flush_all",
    "reload_all",
    "scale",
    "subtract",
    "unit",
]
