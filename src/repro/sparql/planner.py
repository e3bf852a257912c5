"""Ahead-of-time cost-based planning for BGP joins and path closures.

This module plans a whole basic graph pattern **once per (pattern set,
bound-variable set, graph version)** from the store's exact
:meth:`~repro.rdf.graph.Graph.estimate_ids` cardinalities, in the
spirit of *Towards Query Optimization for SPARQL Property Paths*
(Yakovets et al.): selectivity estimates drive both the join order and
the direction property-path closures are explored in.

Three planning products:

* :func:`plan_bgp` — a :class:`BGPPlan` fixing the join order for a
  compiled BGP.  Small BGPs (``<= DP_MAX_PATTERNS`` patterns) get an
  exact dynamic program over join orders (minimum total intermediate
  rows); larger ones fall back to greedy cheapest-next-connected-
  pattern.  The plan also fixes the store index (SPO/POS/OSP) each
  pattern will resolve through, given the boundness its prefix implies.
* :func:`plan_closure` — a :class:`ClosurePlan` for a both-ends-free
  transitive closure (``?x path+ ?y``): instead of seeding a BFS from
  *every* graph node, seed only from nodes that can actually start
  (forward) or end (reverse) a non-empty application of the inner path,
  whichever candidate set is smaller.
* the per-graph **plan memo**: plans attach to the graph object under a
  version-stamped attribute (the closure-cache idiom) so re-evaluating
  a prepared query against an unchanged graph reuses the plan.  On cost
  ties the lexicographically-smallest order — i.e. the one closest to
  the written query — wins, following the memoize-and-prefer-simpler
  idiom of CozySynthesizer's cost model (see SNIPPETS.md): when two
  plans are equally cheap, keep the simpler one.

Planning is on by default.  :func:`planning` switches it off for the
duration of a ``with`` block (the ablation arm benchmarks and
differential tests measure against): the evaluator then joins BGPs in
written order and seeds both-free closures from every node.

This module is imported by :mod:`repro.sparql.evaluator` (never the
reverse), so it owns the compiled-pattern position-spec kinds; the
evaluator re-exports them under their historical underscore names.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.graph import Graph
from repro.sparql import ast

__all__ = [
    "ABSENT",
    "BGPPlan",
    "ClosurePlan",
    "DP_MAX_PATTERNS",
    "GROUND",
    "PATH",
    "VAR",
    "invalidate",
    "order_bgp",
    "plan_bgp",
    "plan_closure",
    "planning",
    "planning_enabled",
]

#: Position-spec kinds for compiled triple patterns (see the evaluator's
#: ``_compile_bgp``).  A compiled position is a ``(kind, payload)`` pair.
GROUND = 0  # pre-encoded dictionary ID
VAR = 1     # a Variable, resolved against the ID bindings at runtime
ABSENT = 2  # ground term not in the graph dictionary: matches nothing
PATH = 3    # predicate position only: a property-path expression

#: BGPs up to this many patterns are planned with an exact DP over join
#: orders (``O(2^n * n)`` states); larger ones use the greedy heuristic.
DP_MAX_PATTERNS = 8

#: Assumed per-solution result sizes for property-path patterns by
#: number of bound endpoints (0, 1, 2).  A path with a bound endpoint
#: explores one BFS closure, which on plan graphs is far cheaper than
#: enumerating a large unbound candidate set first.
PATH_ESTIMATES = (float(1 << 30), 64.0, 2.0)

#: Cap on memoized plans per graph (a runaway workload of distinct
#: ad-hoc queries should not grow the graph attribute without bound).
MAX_PLANS_PER_GRAPH = 512


# ----------------------------------------------------------------------
# The planner switch
# ----------------------------------------------------------------------
_PLANNING: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_sparql_planning", default=True
)


def planning_enabled() -> bool:
    """Whether the evaluator plans in this context (default ``True``)."""
    return _PLANNING.get()


@contextmanager
def planning(enabled: bool) -> Iterator[bool]:
    """Turn cost-based planning on or off for the ``with`` block.

    Scoped like :func:`repro.core.limits.activate`: the setting lives in
    a contextvar, so it covers the current thread (and tasks that copy
    its context) only and is restored on exit.
    """
    token = _PLANNING.set(enabled)
    try:
        yield enabled
    finally:
        _PLANNING.reset(token)


# ----------------------------------------------------------------------
# Plan records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BGPPlan:
    """A fixed join order for one compiled BGP under one bound-var set.

    ``order[i]`` is the position (into the compiled/pattern list) of the
    i-th pattern to join; ``estimates[i]`` the expected number of
    intermediate solutions *after* that join step; ``indexes[i]`` the
    store index the pattern resolves through given its prefix; ``cost``
    the sum of expected intermediate sizes (the DP/greedy objective).
    """

    order: Tuple[int, ...]
    estimates: Tuple[float, ...]
    indexes: Tuple[str, ...]
    cost: float
    method: str  # "dp" | "greedy" | "single"


@dataclass(frozen=True)
class ClosurePlan:
    """How to evaluate a both-ends-free transitive closure.

    ``direction`` is the BFS orientation; ``seeds`` the candidate start
    (forward) or end (reverse) node IDs in ascending order, or ``None``
    when no safe restriction exists (the inner path can match
    zero-length, so every node qualifies) and the evaluator must fall
    back to the full node scan.  ``forward_count`` / ``reverse_count``
    record both candidate-set sizes for EXPLAIN (``None`` = unknown).
    """

    direction: str  # "forward" | "reverse"
    seeds: Optional[Tuple[int, ...]]
    forward_count: Optional[int]
    reverse_count: Optional[int]


# ----------------------------------------------------------------------
# Per-graph plan memo (version-stamped attribute, like the closure cache)
# ----------------------------------------------------------------------
_PLAN_ATTR = "_sparql_plan_cache"
_PLAN_LOCK = threading.Lock()


def _plan_state(graph: Graph) -> dict:
    """The version-checked plan memo for *graph* (attach under a lock)."""
    state = getattr(graph, _PLAN_ATTR, None)
    version = graph.version
    if state is None or state["version"] != version:
        with _PLAN_LOCK:
            state = getattr(graph, _PLAN_ATTR, None)
            if state is None or state["version"] != version:
                # "pins" keeps the keyed objects (patterns, paths) alive
                # so their ids cannot be recycled while an entry lives.
                state = {
                    "version": version,
                    "plans": {},
                    "closures": {},
                    "pins": [],
                }
                setattr(graph, _PLAN_ATTR, state)
    return state


def invalidate(graph: Graph) -> None:
    """Drop any memoized plans for *graph* (benchmarks force cold cache)."""
    with _PLAN_LOCK:
        try:
            delattr(graph, _PLAN_ATTR)
        except AttributeError:
            pass


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def _index_for_bounds(
    s_bound: bool, p_bound: bool, o_bound: bool, is_path: bool
) -> str:
    """Store index a lookup with this boundness walks.

    Mirrors the branch order of :meth:`Graph.triples_ids`.  The
    profiler applies it to observed bindings at run time, so EXPLAIN's
    actual indexes and the plan's predicted ones come from one rule.
    """
    if is_path:
        return "path"
    if s_bound:
        if not p_bound and o_bound:
            return "OSP"
        return "SPO"
    if p_bound:
        return "POS"
    if o_bound:
        return "OSP"
    return "SPO-scan"


def _make_estimator(graph: Graph):
    """Selectivity estimator ``(compiled_pattern, bound_vars) -> float``.

    Expected number of extensions one input solution produces:

    * ground positions go straight into the exact ``estimate_ids``;
    * a position bound by a *join variable* (value unknown at plan
      time) divides the ground estimate by the predicate's distinct
      subject/object count — the classic uniform-distribution estimate;
    * property paths use the coarse bound-endpoint heuristic
      :data:`PATH_ESTIMATES`;
    * any ``ABSENT`` position makes the pattern unmatchable (0.0).
    """
    node_total: List[float] = []

    def fallback_distinct() -> float:
        if not node_total:
            node_total.append(float(max(1, len(graph.node_ids()))))
        return node_total[0]

    def estimate(cp, bound: Set) -> float:
        s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
        s_kind = s_spec[0]
        o_kind = o_spec[0]
        s_bound = s_kind != VAR or s_spec[1] in bound
        o_bound = o_kind != VAR or o_spec[1] in bound
        if p_spec[0] == PATH:
            return PATH_ESTIMATES[int(s_bound) + int(o_bound)]
        p_kind = p_spec[0]
        if ABSENT in (s_kind, p_kind, o_kind):
            return 0.0
        p_bound = p_kind != VAR or p_spec[1] in bound
        sid = s_spec[1] if s_kind == GROUND else None
        pid = p_spec[1] if p_kind == GROUND else None
        oid = o_spec[1] if o_kind == GROUND else None
        base = float(graph.estimate_ids(sid, pid, oid))
        if base == 0.0:
            return 0.0
        if s_bound and sid is None:
            if pid is not None:
                _, subjects, _ = graph.predicate_stats(pid)
                base /= float(subjects) if subjects else 1.0
            else:
                base /= fallback_distinct()
        if o_bound and oid is None:
            if pid is not None:
                _, _, objects = graph.predicate_stats(pid)
                base /= float(objects) if objects else 1.0
            else:
                base /= fallback_distinct()
        if p_bound and pid is None:
            base /= float(max(1, graph.distinct_predicates()))
        return base

    return estimate


def _pattern_boundness(cp, bound) -> Tuple[bool, bool, bool, bool]:
    """(s_bound, p_bound, o_bound, is_path) of a compiled pattern.

    *bound* is any container of the variables bound so far (a set at
    plan time, the solution's ID bindings at run time).
    """
    s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
    is_path = p_spec[0] == PATH
    s_bound = s_spec[0] != VAR or s_spec[1] in bound
    o_bound = o_spec[0] != VAR or o_spec[1] in bound
    p_bound = (not is_path) and (p_spec[0] != VAR or p_spec[1] in bound)
    return s_bound, p_bound, o_bound, is_path


# ----------------------------------------------------------------------
# Join-order search
# ----------------------------------------------------------------------
def order_bgp(
    compiled: Sequence,
    graph: Graph,
    bound: FrozenSet,
    force: Optional[str] = None,
) -> BGPPlan:
    """Compute a :class:`BGPPlan` (no memoization; see :func:`plan_bgp`).

    *bound* is the set of pattern variables already bound when the BGP
    starts.  *force* pins the search method for tests ("dp"/"greedy").
    """
    n = len(compiled)
    estimate = _make_estimator(graph)
    if n == 1:
        est = estimate(compiled[0], set(bound))
        index = _index_for_bounds(*_pattern_boundness(compiled[0], set(bound)))
        return BGPPlan((0,), (est,), (index,), est, "single")
    if force == "dp" or (force is None and n <= DP_MAX_PATTERNS):
        order, method = _dp_order(compiled, estimate, bound), "dp"
    else:
        order, method = _greedy_order(compiled, estimate, bound), "greedy"
    estimates, indexes, cost = _replay(compiled, estimate, bound, order)
    return BGPPlan(tuple(order), estimates, indexes, cost, method)


def _replay(
    compiled, estimate, bound0: FrozenSet, order: Sequence[int]
) -> Tuple[Tuple[float, ...], Tuple[str, ...], float]:
    """Walk *order* accumulating per-step estimates, indexes and cost."""
    bound = set(bound0)
    rows = 1.0
    cost = 0.0
    estimates: List[float] = []
    indexes: List[str] = []
    for position in order:
        cp = compiled[position]
        indexes.append(_index_for_bounds(*_pattern_boundness(cp, bound)))
        rows *= estimate(cp, bound)
        cost += rows
        estimates.append(rows)
        bound.update(cp[3])
    return tuple(estimates), tuple(indexes), cost


def _greedy_order(compiled, estimate, bound0: FrozenSet) -> List[int]:
    """Cheapest-next-connected-pattern, written order on exact ties."""
    bound = set(bound0)
    remaining = list(range(len(compiled)))
    order: List[int] = []
    while remaining:
        best = None
        best_key: Optional[Tuple[int, float, int]] = None
        for i in remaining:
            cp = compiled[i]
            # A pattern is "connected" when it shares a variable with
            # what is already bound (or has nothing left to bind); the
            # first pick and fully-static patterns always qualify.
            connected = (
                not order
                or not cp[3]
                or any(v in bound for v in cp[3])
            )
            key = (0 if connected else 1, estimate(cp, bound), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        remaining.remove(best)
        order.append(best)
        bound.update(compiled[best][3])
    return order


def _dp_order(compiled, estimate, bound0: FrozenSet) -> List[int]:
    """Exact minimum-total-intermediate-rows order (Selinger-style DP).

    ``best[mask]`` holds the cheapest way to join the pattern subset
    *mask*: ``(cost, rows, order)``.  Ties on cost prefer the
    lexicographically smaller order tuple — the plan closest to the
    written query (the memoize-and-prefer-simpler tie-break).
    """
    n = len(compiled)
    var_sets = [frozenset(cp[3]) for cp in compiled]
    # Bound-variable set per subset, built incrementally off the lowest bit.
    bound_for: List[Optional[frozenset]] = [None] * (1 << n)
    bound_for[0] = frozenset(bound0)

    def subset_bound(mask: int) -> frozenset:
        cached = bound_for[mask]
        if cached is None:
            low = (mask & -mask).bit_length() - 1
            cached = subset_bound(mask & (mask - 1)) | var_sets[low]
            bound_for[mask] = cached
        return cached

    best: List[Optional[Tuple[float, float, Tuple[int, ...]]]] = [None] * (1 << n)
    best[0] = (0.0, 1.0, ())
    for mask in range(1, 1 << n):
        entry = None
        for last in range(n):
            bit = 1 << last
            if not mask & bit:
                continue
            prev = best[mask ^ bit]
            rows = prev[1] * estimate(compiled[last], subset_bound(mask ^ bit))
            cand = (prev[0] + rows, rows, prev[2] + (last,))
            if entry is None or (cand[0], cand[2]) < (entry[0], entry[2]):
                entry = cand
        best[mask] = entry
    return list(best[(1 << n) - 1][2])


def plan_bgp(
    patterns: Sequence,
    compiled: Sequence,
    graph: Graph,
    bound: FrozenSet,
) -> BGPPlan:
    """Memoized :func:`order_bgp` keyed on (pattern identities, bound set).

    *bound* must already be restricted to variables occurring in the
    BGP (solutions differing only in unrelated variables share a plan).
    Pattern objects of a prepared query are id-stable across
    evaluations, so the identity key makes repeat evaluation against an
    unchanged graph a dictionary hit; the memo pins the pattern list so
    ids cannot be recycled.  An existing entry always wins — combined
    with the in-search tie-break this is the memoize-and-prefer-simpler
    discipline (the first, simplest equal-cost plan is kept).
    """
    state = _plan_state(graph)
    plans: Dict = state["plans"]
    key = (tuple(map(id, patterns)), bound)
    hit = plans.get(key)
    if hit is not None:
        return hit
    plan = order_bgp(compiled, graph, bound)
    if len(plans) < MAX_PLANS_PER_GRAPH:
        state["pins"].append(tuple(patterns))
        plans[key] = plan
    return plan


# ----------------------------------------------------------------------
# Closure-direction planning
# ----------------------------------------------------------------------
def _can_be_zero(path: ast.Path) -> bool:
    """True when *path* can match a zero-length walk (node to itself)."""
    if isinstance(path, ast.PathMod):
        return path.modifier in ("*", "?") or _can_be_zero(path.path)
    if isinstance(path, ast.PathInverse):
        return _can_be_zero(path.path)
    if isinstance(path, ast.PathSequence):
        return all(_can_be_zero(part) for part in path.parts)
    if isinstance(path, ast.PathAlternative):
        return any(_can_be_zero(part) for part in path.parts)
    return False  # PathLink


def _endpoint_ids(
    path: ast.Path, graph: Graph, forward: bool
) -> Optional[Set[int]]:
    """Superset of node IDs that can start (*forward*) / end a non-empty
    application of *path*, or ``None`` when no safe restriction exists.

    The contract the evaluator relies on: every node whose closure under
    *path* is non-empty appears in the returned set.  Whenever that
    cannot be guaranteed cheaply (zero-length-capable sub-paths), the
    function answers ``None`` and the caller scans all nodes.
    """
    if isinstance(path, ast.PathLink):
        pid = graph.term_id(path.iri)
        if pid is None:
            return set()
        ids = graph.subject_ids_for(pid) if forward else graph.object_ids_for(pid)
        return set(ids)
    if isinstance(path, ast.PathInverse):
        return _endpoint_ids(path.path, graph, not forward)
    if isinstance(path, ast.PathAlternative):
        union: Set[int] = set()
        for part in path.parts:
            ends = _endpoint_ids(part, graph, forward)
            if ends is None:
                return None
            union |= ends
        return union
    if isinstance(path, ast.PathSequence):
        # A sequence starts wherever its first non-zero-capable prefix
        # part can start: accumulate part endpoints until a part that
        # cannot match zero-length seals the set.
        parts = path.parts if forward else tuple(reversed(path.parts))
        union = set()
        for part in parts:
            ends = _endpoint_ids(part, graph, forward)
            if ends is None:
                return None
            union |= ends
            if not _can_be_zero(part):
                return union
        return None  # every part zero-capable: the whole sequence is too
    if isinstance(path, ast.PathMod):
        if path.modifier == "+" and not _can_be_zero(path.path):
            return _endpoint_ids(path.path, graph, forward)
        return None  # * / ? match zero-length from any node
    return None


def plan_closure(inner: ast.Path, graph: Graph) -> ClosurePlan:
    """Plan a both-ends-free closure over *inner* (memoized per version).

    Picks the direction whose candidate endpoint set is smaller; ties
    keep forward (the unplanned orientation, so the common symmetric
    case keeps the unplanned result order).  When neither endpoint set
    can be restricted safely, the plan degrades to an unrestricted
    forward scan — exactly the unplanned behavior.
    """
    state = _plan_state(graph)
    closures: Dict[int, ClosurePlan] = state["closures"]
    key = id(inner)
    hit = closures.get(key)
    if hit is not None:
        return hit
    forward = _endpoint_ids(inner, graph, True)
    reverse = _endpoint_ids(inner, graph, False)
    forward_count = None if forward is None else len(forward)
    reverse_count = None if reverse is None else len(reverse)
    if forward is not None and (reverse is None or len(forward) <= len(reverse)):
        plan = ClosurePlan(
            "forward", tuple(sorted(forward)), forward_count, reverse_count
        )
    elif reverse is not None:
        plan = ClosurePlan(
            "reverse", tuple(sorted(reverse)), forward_count, reverse_count
        )
    else:
        plan = ClosurePlan("forward", None, None, None)
    state["pins"].append(inner)
    closures[key] = plan
    return plan
