"""Definition-level reference SPARQL evaluator (a test oracle).

Evaluates the engine's parsed AST straight from the SPARQL 1.1 algebra,
as slowly and plainly as possible, so differential tests have something
to compare the engine against that shares none of its join or path
machinery:

* a basic graph pattern is a chain of nested loops **in written order**,
  each step scanning every triple of ``iter(graph)`` (read once per
  evaluation) for every solution so far — no store indexes, no
  planner, no caches;
* a property path is a relation (a set of node pairs) computed over the
  whole graph: links are filtered triples, ``^`` flips pairs, ``/``
  composes, ``|`` unions, ``+`` is the naive fixpoint of composition and
  ``*`` / ``?`` add the zero-length pair of every graph node;
* a group joins its elements left to right, ``OPTIONAL`` is the
  algebra's LeftJoin (the optional group's own FILTERs are the join
  condition), ``UNION`` joins with the union of independently evaluated
  branches, and the group's FILTERs apply last.

It reuses only the parser/AST and ``functions.evaluate_expression`` for
expressions.  Property-path results are sets of pairs, as in the
engine's documented path semantics (docs/sparql-subset.md).  Only the
query shapes the differential suites use are supported; anything else
raises ``NotImplementedError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.rdf.term import BNode, Literal, Term, URIRef, Variable
from repro.sparql import ast
from repro.sparql.functions import (
    ExprError,
    effective_boolean_value,
    evaluate_expression,
)
from repro.sparql.parser import parse_query

Solution = Dict[Variable, Term]
Pair = Tuple[Term, Term]


class _Data:
    """The graph as the reference sees it: a list of triples, read once.

    Passed wherever ``evaluate_expression`` expects a graph; it hands the
    object back unchanged to the EXISTS callback.
    """

    def __init__(self, graph):
        self.triples = list(iter(graph))
        self.nodes = {s for s, _, _ in self.triples}
        self.nodes.update(o for _, _, o in self.triples)


def select(graph, text_or_query) -> Tuple[List[str], List[Tuple]]:
    """Evaluate a SELECT query: ``(variable names, rows of Term|None)``."""
    query = (
        parse_query(text_or_query)
        if isinstance(text_or_query, str)
        else text_or_query
    )
    if not isinstance(query, ast.SelectQuery) or query.has_aggregates():
        raise NotImplementedError("reference evaluator: plain SELECT only")
    graph = _Data(graph)
    solutions = _eval_group(query.where, graph, {})
    if query.order_by:
        solutions = _order(query, graph, solutions)
    if query.is_select_star:
        names = sorted({v.name for v in ast.walk_pattern_variables(query.where)})
        rows = [tuple(s.get(Variable(n)) for n in names) for s in solutions]
    else:
        names = [item.output_name() for item in query.select]
        rows = [
            tuple(_value(item.expr, s, graph) for item in query.select)
            for s in solutions
        ]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    start = query.offset or 0
    stop = None if query.limit is None else start + query.limit
    return names, rows[start:stop]


def eval_group(
    group: ast.GroupGraphPattern, graph, initial: Solution
) -> List[Solution]:
    """All solutions of *group* compatible with the *initial* bindings."""
    return _eval_group(group, _Data(graph), initial)


def _eval_group(group, graph: _Data, initial: Solution) -> List[Solution]:
    solutions = _join_elements(group, graph, initial)
    filters = [e.expr for e in group.elements if isinstance(e, ast.Filter)]
    return [s for s in solutions if _holds(filters, s, graph)]


def _join_elements(
    group: ast.GroupGraphPattern, graph, initial: Solution
) -> List[Solution]:
    """Join the non-FILTER elements of *group* left to right."""
    solutions = [dict(initial)]
    for element in group.elements:
        if isinstance(element, ast.Filter):
            continue
        if isinstance(element, ast.TriplePattern):
            solutions = _match(element, graph, solutions)
        elif isinstance(element, ast.GroupGraphPattern):
            solutions = _join(solutions, _eval_group(element, graph, {}))
        elif isinstance(element, ast.Union_):
            branches = [
                s for branch in element.groups for s in _eval_group(branch, graph, {})
            ]
            solutions = _join(solutions, branches)
        elif isinstance(element, ast.Optional_):
            right = _join_elements(element.group, graph, {})
            condition = [
                e.expr for e in element.group.elements if isinstance(e, ast.Filter)
            ]
            solutions = _left_join(solutions, right, condition, graph)
        else:
            raise NotImplementedError(f"reference evaluator: {element!r}")
    return solutions


def _merge(left: Solution, right: Solution) -> Optional[Solution]:
    """The union of two compatible solutions, or None if they conflict."""
    merged = dict(left)
    for var, term in right.items():
        if var in merged and merged[var] != term:
            return None
        merged[var] = term
    return merged


def _join(left: List[Solution], right: List[Solution]) -> List[Solution]:
    out = []
    for mu1 in left:
        for mu2 in right:
            merged = _merge(mu1, mu2)
            if merged is not None:
                out.append(merged)
    return out


def _left_join(left, right, condition, graph) -> List[Solution]:
    out = []
    for mu1 in left:
        extensions = [
            merged
            for merged in (_merge(mu1, mu2) for mu2 in right)
            if merged is not None and _holds(condition, merged, graph)
        ]
        out.extend(extensions or [mu1])
    return out


def _holds(filters: Sequence[ast.Expr], solution: Solution, graph) -> bool:
    for expr in filters:
        try:
            if not effective_boolean_value(
                evaluate_expression(expr, solution, graph, _exists)
            ):
                return False
        except ExprError:
            return False
    return True


def _exists(group, graph: _Data, bindings) -> bool:
    return bool(_eval_group(group, graph, bindings))


def _bind(solution: Solution, term, value: Term) -> Optional[Solution]:
    """Extend *solution* so that *term* denotes *value*; None if it can't."""
    if not isinstance(term, Variable):
        return solution if term == value else None
    if term in solution:
        return solution if solution[term] == value else None
    extended = dict(solution)
    extended[term] = value
    return extended


def _match(
    tp: ast.TriplePattern, graph: _Data, solutions: List[Solution]
) -> List[Solution]:
    """Extend every solution by one triple pattern: a nested loop over
    the solutions and all triples (or all pairs of the path relation)."""
    if isinstance(tp.predicate, ast.Path):
        candidates = [(s, None, o) for s, o in _path_pairs(tp.predicate, graph)]
    else:
        candidates = graph.triples
    out = []
    for solution in solutions:
        for s, p, o in candidates:
            extended = _bind(solution, tp.subject, s)
            if extended is not None and p is not None:
                extended = _bind(extended, tp.predicate, p)
            if extended is not None:
                extended = _bind(extended, tp.obj, o)
            if extended is not None:
                out.append(extended)
    return out


# ----------------------------------------------------------------------
# Property paths as relations
# ----------------------------------------------------------------------
def _compose(left: Set[Pair], right: Set[Pair]) -> Set[Pair]:
    """Relational composition: ``(a, c)`` for ``(a, b)`` in *left* and
    ``(b, c)`` in *right*."""
    successors: Dict[Term, List[Term]] = {}
    for b, c in right:
        successors.setdefault(b, []).append(c)
    return {(a, c) for a, b in left for c in successors.get(b, ())}


def _path_pairs(path: ast.Path, graph: _Data) -> Set[Pair]:
    if isinstance(path, ast.PathLink):
        return {(s, o) for s, p, o in graph.triples if p == path.iri}
    if isinstance(path, ast.PathInverse):
        return {(o, s) for s, o in _path_pairs(path.path, graph)}
    if isinstance(path, ast.PathAlternative):
        return set().union(*(_path_pairs(part, graph) for part in path.parts))
    if isinstance(path, ast.PathSequence):
        pairs = _path_pairs(path.parts[0], graph)
        for part in path.parts[1:]:
            pairs = _compose(pairs, _path_pairs(part, graph))
        return pairs
    if isinstance(path, ast.PathMod):
        step = _path_pairs(path.path, graph)
        if path.modifier == "?":
            pairs = set(step)
        else:
            pairs = set(step)
            while True:  # naive fixpoint: compose until nothing is new
                longer = _compose(pairs, step)
                if longer <= pairs:
                    break
                pairs |= longer
        if path.modifier in ("?", "*"):
            pairs |= {(n, n) for n in graph.nodes}
        return pairs
    raise NotImplementedError(f"reference evaluator: path {path!r}")


# ----------------------------------------------------------------------
# Projection and ORDER BY
# ----------------------------------------------------------------------
def _value(expr: ast.Expr, solution: Solution, graph) -> Optional[Term]:
    try:
        return evaluate_expression(expr, solution, graph, _exists)
    except ExprError:
        return None


def _sort_key(term: Optional[Term]):
    """SPARQL 1.1 §15.1 ordering: unbound < blank < IRI < literal;
    numeric literals by value, other literals by lexical form."""
    if term is None:
        return (0,)
    if isinstance(term, BNode):
        return (1, term.label)
    if isinstance(term, URIRef):
        return (2, term.value)
    if isinstance(term, Literal):
        number = term.as_number()
        if number is not None:
            return (3, number)
        return (4, term.lexical)
    raise NotImplementedError(f"reference evaluator: order {term!r}")


def _order(query: ast.SelectQuery, graph, solutions: List[Solution]):
    """ORDER BY over solutions extended with the SELECT aliases."""
    aliases = [(i.alias, i.expr) for i in query.select if i.alias is not None]

    def scope(solution: Solution) -> Solution:
        extended = dict(solution)
        for alias, expr in aliases:
            value = _value(expr, solution, graph)
            if value is not None and alias not in extended:
                extended[alias] = value
        return extended

    decorated = [(scope(s), s) for s in solutions]
    for cond in reversed(query.order_by):  # stable sort, last key first
        decorated.sort(
            key=lambda pair: _sort_key(_value(cond.expr, pair[0], graph)),
            reverse=cond.descending,
        )
    return [s for _, s in decorated]


def text_rows(graph, text_or_query) -> List[Tuple[Tuple[str, Optional[str]], ...]]:
    """:func:`select` rows as ``((name, text), ...)`` tuples, each text
    spelled as :meth:`repro.sparql.results.ResultRow.text` spells it."""
    names, rows = select(graph, text_or_query)
    return [tuple(zip(names, map(_text, row))) for row in rows]


def _text(term: Optional[Term]) -> Optional[str]:
    if term is None:
        return None
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, URIRef):
        return term.value
    return term.n3()
