"""Power graphs of finite groups and their exact surface genus.

Subpackages: ``groups`` (Cayley-table groups and constructors),
``powergraph`` (graph construction and export), ``embed`` (rotation
systems, face tracing, embedding search), ``genus`` (formulas, bounds,
exact genus, block composition), ``catalog`` (named small groups),
``classifier`` (genus verdicts with certificate trails), ``cli``.
"""

__version__ = "0.1.0"

from .classifier import (Verdict, classify, cross_validate, reduction_set,
                         verify_lemma)
from .genus import crosscap_exact, genus_exact
from .groups import FiniteGroup
from .powergraph import Graph, power_graph

__all__ = [
    "FiniteGroup", "Graph", "Verdict", "classify", "cross_validate",
    "crosscap_exact", "genus_exact", "power_graph", "reduction_set",
    "verify_lemma", "__version__",
]
