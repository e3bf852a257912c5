"""Ad-hoc query families A-D and their plan-graph oracle.

Each family is one of the paper's expert patterns (Section 2.2/2.3) with
its cardinality thresholds and operator types turned into parameters, so
a seeded sequence of queries is almost never repeated and every query is
new to the server's caches.  :meth:`Query.pattern_json` builds the
Figure 5 pattern JSON that ``POST /search`` takes; :meth:`Query.find`
answers the same question by walking a :class:`PlanGraph` directly.
The walk shares no code with the RDF/SPARQL engine, so agreement between
the two checks the whole transform + compile + evaluate stack.

At the builtin parameters (:data:`BUILTIN`) the oracle agrees with
``repro.workload.reference`` (the tests check it on seed 2016).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.pattern import PatternBuilder
from repro.qep.model import BaseObject, PlanGraph, PlanOperator, format_number
from repro.qep.operators import StreamRole

#: The aliases whose bindings identify one occurrence, per family.
KEY_ALIASES: Dict[str, Tuple[str, ...]] = {
    "A": ("TOP", "SCAN", "BASE"),
    "B": ("TOP", "OUTERLOJ", "INNERLOJ"),
    "C": ("SCAN", "BASE"),
    "D": ("TOP", "INPUT"),
}

_A_JOINS = ("NLJOIN", "HSJOIN", "MSJOIN")
_A_SCANS = ("TBSCAN", "IXSCAN")
_B_TOPS = ("JOIN", "NLJOIN", "HSJOIN", "MSJOIN")
_C_SCANS = ("SCAN", "IXSCAN", "TBSCAN")
_D_TOPS = ("SORT", "TEMP", "GRPBY")


def _printed(value: float) -> float:
    """The value as the explain text prints it (what the server sees)."""
    return float(format_number(value))


def _is_type(op: PlanOperator, op_type: str) -> bool:
    if op_type == "JOIN":
        return op.info.is_join
    if op_type == "SCAN":
        return op.info.is_scan
    return op.op_type == op_type


def _children(op: PlanOperator, role: Optional[StreamRole] = None):
    for stream in op.inputs:
        if isinstance(stream.source, PlanOperator):
            if role is None or stream.role is role:
                yield stream.source


def _below(start: PlanOperator) -> List[PlanOperator]:
    """*start* and every operator reachable under it."""
    seen = {}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node.number not in seen:
            seen[node.number] = node
            frontier.extend(_children(node))
    return list(seen.values())


def _sig5(value: float) -> float:
    return float(f"{value:.5g}")


@dataclass(frozen=True)
class Query:
    """One ad-hoc query: a family letter plus its parameters.

    ``op`` is the family's operator type and ``scan`` the scan type (A,
    C).  The cardinality thresholds are ``gt`` (A: the outer input; B,
    D: the top operator), ``inner_gt`` (A: the inner scan), ``lt`` (C:
    the scan) and ``base_gt`` (C: the base table).  ``None`` drops one.
    """

    family: str
    op: str
    scan: str = ""
    gt: Optional[float] = None
    inner_gt: Optional[float] = None
    lt: Optional[float] = None
    base_gt: Optional[float] = None

    @property
    def name(self) -> str:
        parts = [self.family, self.op, self.scan, self.gt, self.inner_gt, self.lt, self.base_gt]
        return "adhoc-" + "-".join(str(p) for p in parts if p not in ("", None))

    # ------------------------------------------------------------------
    # The pattern the server evaluates
    # ------------------------------------------------------------------
    def pattern_json(self) -> dict:
        builder = PatternBuilder(self.name, "benchmark ad-hoc query")
        if self.family == "A":
            top = builder.pop(self.op, alias="TOP")
            outer = builder.pop("ANY")
            if self.gt is not None:
                outer.where("hasEstimateCardinality", ">", self.gt)
            inner = builder.pop(self.scan, alias="SCAN")
            if self.inner_gt is not None:
                inner.where("hasEstimateCardinality", ">", self.inner_gt)
            base = builder.pop("BASE OB", alias="BASE")
            builder.outer(top, outer)
            builder.inner(top, inner)
            builder.input(inner, base)
        elif self.family == "B":
            top = builder.pop(self.op, alias="TOP")
            if self.gt is not None:
                top.where("hasEstimateCardinality", ">", self.gt)
            outer_loj = builder.pop("JOIN", alias="OUTERLOJ").where(
                "hasJoinSemantics", "=", "LEFT_OUTER"
            )
            inner_loj = builder.pop("JOIN", alias="INNERLOJ").where(
                "hasJoinSemantics", "=", "LEFT_OUTER"
            )
            builder.outer(top, outer_loj, descendant=True)
            builder.inner(top, inner_loj, descendant=True)
        elif self.family == "C":
            scan = builder.pop(self.scan, alias="SCAN")
            if self.lt is not None:
                scan.where("hasEstimateCardinality", "<", self.lt)
            base = builder.pop("BASE OB", alias="BASE")
            if self.base_gt is not None:
                base.where("hasEstimateCardinality", ">", self.base_gt)
            builder.input(scan, base)
        elif self.family == "D":
            top = builder.pop(self.op, alias="TOP")
            if self.gt is not None:
                top.where("hasEstimateCardinality", ">", self.gt)
            below = builder.pop("ANY", alias="INPUT")
            builder.input(top, below)
            builder.compare(below, "hasIOCost", "<", top, "hasIOCost")
        else:
            raise ValueError(f"unknown family {self.family!r}")
        return builder.build().to_json_object()

    # ------------------------------------------------------------------
    # The oracle
    # ------------------------------------------------------------------
    def find(self, plan: PlanGraph) -> List[Dict[str, object]]:
        """Every occurrence in *plan*, as ``{alias: node}`` dicts."""
        return list(getattr(self, "_find_" + self.family.lower())(plan))

    def _find_a(self, plan: PlanGraph) -> Iterator[dict]:
        for op in plan.iter_operators():
            if not _is_type(op, self.op):
                continue
            outer = op.input_with_role(StreamRole.OUTER)
            inner = op.input_with_role(StreamRole.INNER)
            if outer is None or inner is None:
                continue
            scan = inner.source
            if not isinstance(scan, PlanOperator) or not _is_type(scan, self.scan):
                continue
            if self.inner_gt is not None and _printed(scan.cardinality) <= self.inner_gt:
                continue
            if self.gt is not None:
                if not isinstance(outer.source, (PlanOperator, BaseObject)):
                    continue
                if _printed(outer.source.cardinality) <= self.gt:
                    continue
            for base in scan.base_objects():
                yield {"TOP": op, "SCAN": scan, "BASE": base}

    def _find_b(self, plan: PlanGraph) -> Iterator[dict]:
        for op in plan.iter_operators():
            if not _is_type(op, self.op):
                continue
            if self.gt is not None and _printed(op.cardinality) <= self.gt:
                continue
            outer = op.input_with_role(StreamRole.OUTER)
            inner = op.input_with_role(StreamRole.INNER)
            if outer is None or inner is None:
                continue
            if not isinstance(outer.source, PlanOperator):
                continue
            if not isinstance(inner.source, PlanOperator):
                continue
            outer_lojs = [d for d in _below(outer.source) if d.is_left_outer_join]
            inner_lojs = [d for d in _below(inner.source) if d.is_left_outer_join]
            for outer_loj in outer_lojs:
                for inner_loj in inner_lojs:
                    yield {"TOP": op, "OUTERLOJ": outer_loj, "INNERLOJ": inner_loj}

    def _find_c(self, plan: PlanGraph) -> Iterator[dict]:
        for op in plan.iter_operators():
            if not _is_type(op, self.scan):
                continue
            if self.lt is not None and _printed(op.cardinality) >= self.lt:
                continue
            for base in op.base_objects():
                if self.base_gt is None or _printed(base.cardinality) > self.base_gt:
                    yield {"SCAN": op, "BASE": base}

    def _find_d(self, plan: PlanGraph) -> Iterator[dict]:
        for op in plan.iter_operators():
            if not _is_type(op, self.op):
                continue
            if self.gt is not None and _printed(op.cardinality) <= self.gt:
                continue
            for child in _children(op):
                if _printed(child.io_cost) < _printed(op.io_cost):
                    yield {"TOP": op, "INPUT": child}


#: The builtin patterns A-D expressed as family parameters.
BUILTIN: Dict[str, Query] = {
    "A": Query("A", "NLJOIN", scan="TBSCAN", gt=1, inner_gt=100),
    "B": Query("B", "JOIN"),
    "C": Query("C", "", scan="SCAN", lt=0.001, base_gt=1000000),
    "D": Query("D", "SORT"),
}


#: Operator types each family cycles through, in a fixed order.
COMBOS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "A": tuple((join, scan) for join in _A_JOINS for scan in _A_SCANS),
    "B": tuple((top, "") for top in _B_TOPS),
    "C": tuple(("", scan) for scan in _C_SCANS),
    "D": tuple((top, "") for top in _D_TOPS),
}


def _near(rng: random.Random, centre: float) -> float:
    """A threshold within half a decade of *centre*, 5 significant digits."""
    return _sig5(centre * 10 ** rng.uniform(-0.5, 0.5))


def query_at(rng: random.Random, index: int) -> Query:
    """Query *index* of a sequence.

    The family cycles A, B, C, D and each family cycles its operator
    types, so any stretch of a sequence has the same structural mix on
    every seed.  The seed draws the thresholds, within half a decade of
    the builtin pattern's (A: outer > 1 and inner > 100; B, D: top > 1;
    C: scan < 0.001 over a table > 1e6): every query is new to the
    server's caches, while its selectivity, and so its cost, stays
    near that of its family.
    """
    family = "ABCD"[index % 4]
    combos = COMBOS[family]
    op, scan = combos[(index // 4) % len(combos)]
    if family == "A":
        return Query("A", op, scan=scan, gt=_near(rng, 1), inner_gt=_near(rng, 100))
    if family == "C":
        return Query("C", op, scan=scan, lt=_near(rng, 0.001),
                     base_gt=_near(rng, 1e6))
    return Query(family, op, gt=_near(rng, 1))


def query_sequence(seed: int, length: int, offset: int = 0) -> List[Query]:
    """A fixed seeded sequence: queries ``offset .. offset + length``."""
    rng = random.Random(seed)
    return [query_at(rng, offset + i) for i in range(length)]


# ----------------------------------------------------------------------
# Comparing server replies with the oracle
# ----------------------------------------------------------------------
def _node_key(node) -> object:
    if isinstance(node, PlanOperator):
        return node.number
    if isinstance(node, BaseObject):
        return node.qualified_name
    if node.get("kind") == "operator":
        return node["number"]
    return node["table"]


def occurrence_key(family: str, bindings: dict) -> tuple:
    """One occurrence (server JSON bindings or oracle nodes) as a tuple."""
    return tuple(_node_key(bindings[alias]) for alias in KEY_ALIASES[family])


def expected_matches(query: Query, plans: Dict[str, PlanGraph]) -> Dict[str, list]:
    """``{plan_id: sorted occurrence keys}`` for plans with a match."""
    out = {}
    for plan_id, plan in plans.items():
        keys = sorted(occurrence_key(query.family, o) for o in query.find(plan))
        if keys:
            out[plan_id] = keys
    return out


def served_matches(query: Query, reply: dict) -> Dict[str, list]:
    """The same shape built from a ``POST /search`` reply."""
    return {
        entry["planId"]: sorted(
            occurrence_key(query.family, occ) for occ in entry["occurrences"]
        )
        for entry in reply["matches"]
        if entry["occurrences"]
    }
