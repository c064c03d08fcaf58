"""Distributed LPs on graphs, exact rational simplex, and dequantization.

All arithmetic is fractions.Fraction; there is no floating-point path, so
feasibility, optima, objectives, and ratios are exact and every test compares
with ==.  The simplex is a plain two-phase dense tableau with Bland's rule
(termination guaranteed), which is entirely adequate at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .graphs import (
    INFINITY,
    ContractError,
    Graph,
    InputError,
    LabeledGraph,
    View,
    ball_distances,
    label_graph,
    make_graph,
)
from .outcomes import (
    Labeling,
    LocalAlgorithm,
    NodeOutput,
    Outcome,
    expectation,
    make_outcome,
    restrict,
)

INFEASIBLE = "infeasible"
MAX_EXACT_OPT_VARIABLES = 200


# ---------------------------------------------------------------------------
# LP data


@dataclass(frozen=True)
class LpVariable:
    name: str
    owner: tuple  # ("node", v) or ("edge", e)
    objective: Fraction

    def owner_nodes(self, g: Graph) -> tuple[int, ...]:
        kind, ident = self.owner
        if kind == "node":
            return (ident,)
        u, v = g.endpoints(ident)
        return (u, v)


@dataclass(frozen=True)
class LpConstraint:
    name: str
    coeffs: tuple[tuple[str, Fraction], ...]
    relation: str  # "<=", "==", ">="
    bound: Fraction
    owner: int  # node id


@dataclass(frozen=True)
class DistLP:
    kind: str  # "node-based" | "edge-based" | "node-edge-based"
    sense: str  # "maximize" | "minimize"
    graph: Graph
    variables: tuple[LpVariable, ...]
    constraints: tuple[LpConstraint, ...]

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def variable(self, name: str) -> LpVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise InputError(f"unknown variable {name!r}")


def make_dist_lp(
    kind: str,
    sense: str,
    g: Graph,
    variables: Sequence[LpVariable],
    constraints: Sequence[LpConstraint],
) -> DistLP:
    """Validate ownership locality: constraint variables live within radius 1."""
    if kind not in ("node-based", "edge-based", "node-edge-based"):
        raise InputError(f"unknown LP kind {kind!r}")
    if sense not in ("maximize", "minimize"):
        raise InputError(f"unknown sense {sense!r}")
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise InputError("variable names must be unique")
    by_name = {v.name: v for v in variables}
    for c in constraints:
        dist = ball_distances(g, [c.owner], 1)
        for name, _ in c.coeffs:
            if name not in by_name:
                raise InputError(f"constraint {c.name!r} references unknown variable {name!r}")
            owners = by_name[name].owner_nodes(g)
            if min(dist.get(u, INFINITY) for u in owners) > 1:
                raise InputError(
                    f"constraint {c.name!r} uses variable {name!r} owned outside radius 1"
                )
    return DistLP(kind=kind, sense=sense, graph=g,
                  variables=tuple(variables), constraints=tuple(constraints))


@dataclass(frozen=True)
class LpPoint:
    values: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def of(mapping: Mapping[str, Fraction | int]) -> "LpPoint":
        return LpPoint(values=tuple(sorted((k, Fraction(v)) for k, v in mapping.items())))

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)

    def value(self, name: str) -> Fraction:
        return dict(self.values)[name]


def edge_var(e: int) -> str:
    return f"e{e}"


def build_fractional_matching_lp(g: Graph) -> DistLP:
    """maximize sum x_e subject to per-node sums <= 1 and box rows x_e <= 1."""
    if g.multi:
        raise InputError("the matching LP is defined on simple graphs here")
    variables = [
        LpVariable(name=edge_var(e), owner=("edge", e), objective=Fraction(1))
        for e in range(g.m)
    ]
    constraints = []
    for v in range(g.n):
        coeffs = tuple((edge_var(e), Fraction(1)) for e in g.adjacency[v])
        constraints.append(
            LpConstraint(name=f"node{v}", coeffs=coeffs, relation="<=", bound=Fraction(1), owner=v)
        )
    for e in range(g.m):
        u, _ = g.endpoints(e)
        constraints.append(
            LpConstraint(
                name=f"box{e}",
                coeffs=((edge_var(e), Fraction(1)),),
                relation="<=",
                bound=Fraction(1),
                owner=u,
            )
        )
    return make_dist_lp("edge-based", "maximize", g, variables, constraints)


# ---------------------------------------------------------------------------
# feasibility, objective, ratio


@dataclass(frozen=True)
class FeasibilityVerdict:
    ok: bool
    violated: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _point_vector(lp: DistLP, x: LpPoint) -> dict[str, Fraction]:
    vals = x.as_dict()
    names = set(lp.variable_names())
    missing = names - set(vals)
    if missing:
        raise InputError(f"point is missing variables {sorted(missing)}")
    extra = set(vals) - names
    if extra:
        raise InputError(f"point has unknown variables {sorted(extra)}")
    return vals


def check_feasible(lp: DistLP, x: LpPoint) -> FeasibilityVerdict:
    """Exact evaluation of every row plus the implied nonnegativity."""
    vals = _point_vector(lp, x)
    bad = []
    for name, value in sorted(vals.items()):
        if value < 0:
            bad.append(f"nonneg:{name}")
    for c in lp.constraints:
        total = sum((coef * vals[name] for name, coef in c.coeffs), Fraction(0))
        holds = (
            total <= c.bound if c.relation == "<="
            else total == c.bound if c.relation == "=="
            else total >= c.bound
        )
        if not holds:
            bad.append(c.name)
    return FeasibilityVerdict(ok=not bad, violated=tuple(bad))


def objective_value(lp: DistLP, x: LpPoint) -> Fraction:
    vals = _point_vector(lp, x)
    return sum((v.objective * vals[v.name] for v in lp.variables), Fraction(0))


# ---------------------------------------------------------------------------
# exact simplex


@dataclass(frozen=True)
class OptResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction] = None
    point: Optional[LpPoint] = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            r = tableau[row]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], r)]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int], allowed: list[bool]) -> str:
    """Bland's rule on the maximization tableau; objective is the last row."""
    obj = len(tableau) - 1
    while True:
        col = -1
        for j in range(len(allowed)):
            if allowed[j] and tableau[obj][j] < 0:
                col = j
                break
        if col == -1:
            return "optimal"
        row = -1
        best: Optional[Fraction] = None
        for i in range(obj):
            if tableau[i][col] > 0:
                ratio = tableau[i][-1] / tableau[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row == -1:
            return "unbounded"
        _pivot(tableau, basis, row, col)


def simplex_solve(
    num_vars: int,
    objective: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[Fraction], str, Fraction]],
) -> tuple[str, Optional[Fraction], Optional[list[Fraction]]]:
    """Maximize objective over {x >= 0 : rows hold}; exact two-phase simplex."""
    norm_rows: list[tuple[list[Fraction], str]] = []
    rhs: list[Fraction] = []
    for coeffs, rel, bound in rows:
        coeffs = [Fraction(c) for c in coeffs]
        bound = Fraction(bound)
        if bound < 0:
            coeffs = [-c for c in coeffs]
            bound = -bound
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm_rows.append((coeffs, rel))
        rhs.append(bound)

    m = len(norm_rows)
    slack_cols: dict[int, int] = {}
    art_cols: dict[int, int] = {}
    next_col = num_vars
    for i, (_, rel) in enumerate(norm_rows):
        if rel in ("<=", ">="):
            slack_cols[i] = next_col
            next_col += 1
    for i, (_, rel) in enumerate(norm_rows):
        if rel in (">=", "=="):
            art_cols[i] = next_col
            next_col += 1
    ncols = next_col

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (coeffs, rel) in enumerate(norm_rows):
        row = [Fraction(0)] * (ncols + 1)
        for j, c in enumerate(coeffs):
            row[j] = c
        if rel == "<=":
            row[slack_cols[i]] = Fraction(1)
            basis.append(slack_cols[i])
        elif rel == ">=":
            row[slack_cols[i]] = Fraction(-1)
            row[art_cols[i]] = Fraction(1)
            basis.append(art_cols[i])
        else:
            row[art_cols[i]] = Fraction(1)
            basis.append(art_cols[i])
        row[-1] = rhs[i]
        tableau.append(row)

    allowed = [True] * ncols

    if art_cols:
        # phase 1: maximize -(sum of artificials)
        obj_row = [Fraction(0)] * (ncols + 1)
        for col in art_cols.values():
            obj_row[col] = Fraction(1)
        tableau.append(obj_row)
        for i, b in enumerate(basis):
            if tableau[-1][b] != 0:
                f = tableau[-1][b]
                tableau[-1] = [a - f * c for a, c in zip(tableau[-1], tableau[i])]
        _optimize(tableau, basis, allowed)
        if tableau[-1][-1] != 0:
            return ("infeasible", None, None)
        tableau.pop()
        art_set = set(art_cols.values())
        # drive surviving artificials out of the basis where possible
        drop_rows: list[int] = []
        for i in range(m):
            if basis[i] in art_set:
                pivot_col = next(
                    (j for j in range(ncols) if j not in art_set and tableau[i][j] != 0),
                    None,
                )
                if pivot_col is None:
                    drop_rows.append(i)
                else:
                    _pivot(tableau, basis, i, pivot_col)
        for i in reversed(drop_rows):
            tableau.pop(i)
            basis.pop(i)
        for col in art_set:
            allowed[col] = False

    obj_row = [Fraction(0)] * (ncols + 1)
    for j in range(num_vars):
        obj_row[j] = -Fraction(objective[j])
    tableau.append(obj_row)
    for i, b in enumerate(basis):
        if tableau[-1][b] != 0:
            f = tableau[-1][b]
            tableau[-1] = [a - f * c for a, c in zip(tableau[-1], tableau[i])]
    status = _optimize(tableau, basis, allowed)
    if status == "unbounded":
        return ("unbounded", None, None)
    solution = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            solution[b] = tableau[i][-1]
    return ("optimal", tableau[-1][-1], solution)


def exact_opt(lp: DistLP) -> OptResult:
    """Optimal objective by exact rational simplex (Bland's rule)."""
    names = lp.variable_names()
    if len(names) > MAX_EXACT_OPT_VARIABLES:
        raise InputError(f"exact_opt is desk-scale (<= {MAX_EXACT_OPT_VARIABLES} variables)")
    index = {name: j for j, name in enumerate(names)}
    sign = 1 if lp.sense == "maximize" else -1
    objective = [sign * v.objective for v in lp.variables]
    rows = []
    for c in lp.constraints:
        coeffs = [Fraction(0)] * len(names)
        for name, coef in c.coeffs:
            coeffs[index[name]] = coef
        rows.append((coeffs, c.relation, c.bound))
    status, value, solution = simplex_solve(len(names), objective, rows)
    if status != "optimal":
        return OptResult(status=status)
    assert value is not None and solution is not None
    point = LpPoint.of({name: solution[index[name]] for name in names})
    return OptResult(status="optimal", value=sign * value, point=point)


def approximation_ratio(lp: DistLP, x: LpPoint):
    """OPT/value for maximization, value/OPT for minimization; >= 1 exactly.

    Returns the INFEASIBLE sentinel for infeasible points and INFINITY when a
    zero-value point faces a positive optimum.
    """
    if not check_feasible(lp, x):
        return INFEASIBLE
    opt = exact_opt(lp)
    if opt.status != "optimal":
        raise InputError(f"approximation ratio undefined for {opt.status} LP")
    value = objective_value(lp, x)
    assert opt.value is not None
    if lp.sense == "maximize":
        if value == 0:
            return Fraction(1) if opt.value == 0 else INFINITY
        return opt.value / value
    if opt.value == 0:
        return Fraction(1) if value == 0 else INFINITY
    return value / opt.value


# ---------------------------------------------------------------------------
# outcomes over LP points and dequantization


def labeling_from_point(lp: DistLP, x: LpPoint) -> Labeling:
    """Encode a point as a labeling: edge values on both half-edges, node values on nodes."""
    vals = _point_vector(lp, x)
    g = lp.graph
    nodes: dict[int, object] = {}
    half_edges: dict[tuple[int, int], object] = {}
    for var in lp.variables:
        kind, ident = var.owner
        if kind == "node":
            nodes[ident] = vals[var.name]
        else:
            u, v = g.endpoints(ident)
            half_edges[(u, ident)] = vals[var.name]
            half_edges[(v, ident)] = vals[var.name]
    return Labeling.of(nodes, half_edges)


def point_from_labeling(lp: DistLP, labeling: Labeling) -> LpPoint:
    """Decode a labeling into a point; both half-edges of an edge must agree."""
    g = lp.graph
    nodes = labeling.nodes()
    half_edges = labeling.half_edges()
    out: dict[str, Fraction] = {}
    for var in lp.variables:
        kind, ident = var.owner
        if kind == "node":
            if ident not in nodes:
                raise InputError(f"labeling misses node variable {var.name!r}")
            out[var.name] = Fraction(nodes[ident])
        else:
            u, v = g.endpoints(ident)
            if (u, ident) not in half_edges or (v, ident) not in half_edges:
                raise InputError(f"labeling misses edge variable {var.name!r}")
            a, b = Fraction(half_edges[(u, ident)]), Fraction(half_edges[(v, ident)])
            if a != b:
                raise InputError(f"endpoints disagree on edge variable {var.name!r}: {a} vs {b}")
            out[var.name] = a
    return LpPoint.of(out)


def outcome_of_points(lp: DistLP, pairs: Iterable[tuple[LpPoint, Fraction]],
                      network: Optional[LabeledGraph] = None) -> Outcome:
    lg = network if network is not None else label_graph(lp.graph)
    return make_outcome(lg, [(labeling_from_point(lp, pt), p) for pt, p in pairs])


def dequantize(outcome: Outcome, lp: DistLP) -> LpPoint:
    """Coordinatewise expectation of a distribution over feasible points.

    Every support entry must itself be feasible (the hypothesis of the
    expectation-approximation argument); an infeasible entry is a contract
    error naming the entry.  The result is feasible and its objective equals
    the expected objective of the support, exactly.
    """
    points: list[tuple[LpPoint, Fraction]] = []
    for i, (labeling, p) in enumerate(outcome.support):
        pt = point_from_labeling(lp, labeling)
        verdict = check_feasible(lp, pt)
        if not verdict:
            raise ContractError(
                f"support entry {i} is infeasible (violates {list(verdict.violated)})"
            )
        points.append((pt, p))
    vals = expectation(outcome, lambda lab: Fraction(lab))
    out: dict[str, Fraction] = {}
    g = lp.graph
    for var in lp.variables:
        kind, ident = var.owner
        if kind == "node":
            out[var.name] = vals[ident]
        else:
            u, _v = g.endpoints(ident)
            out[var.name] = vals[(u, ident)]
    return LpPoint.of(out)


# ---------------------------------------------------------------------------
# local expectation algorithm (view completion + oracle marginal)


@dataclass(frozen=True)
class Completion:
    network: LabeledGraph
    node_map: Mapping[int, int]


@dataclass(frozen=True)
class GraphFamily:
    """A graph family given operationally by its view-completion rule."""

    name: str
    complete: Callable[[View], Completion]


def _completion_embeds(view: View, completion: Completion, t: int) -> bool:
    """node_map must be a port-aware view isomorphism onto the completed view."""
    from .graphs import extract_view

    anchor = view.anchor_node()
    phi = dict(completion.node_map)
    if set(phi) != set(view.node_set):
        return False
    target = extract_view(completion.network, [phi[anchor]], t)
    if set(phi.values()) != set(target.node_set):
        return False
    g2 = completion.network.graph
    for v in view.node_set:
        u = phi[v]
        if view.node_label[v] != target.node_label[u]:
            return False
        p1, p2 = view.ports[v], target.ports[u]
        if len(p1) != len(p2):
            return False
        for (lab1, e1), (lab2, e2) in zip(p1, p2):
            if lab1 != lab2 or (e1 is None) != (e2 is None):
                return False
            if e1 is not None and phi[view.source.graph.other(e1, v)] != g2.other(e2, u):
                return False
    return True


def whole_graph_family(lg: LabeledGraph) -> GraphFamily:
    """Completion that returns the actual input network itself."""

    def complete(view: View) -> Completion:
        if view.source is not lg and view.source != lg:
            raise ContractError("whole-graph completion got a view of a different network")
        return Completion(network=lg, node_map={v: v for v in view.node_set})

    return GraphFamily(name="whole-graph", complete=complete)


def oriented_cycle_graph(n: int) -> LabeledGraph:
    """Cycle with homogeneous ports: every node lists its +1 edge first."""
    if n < 3:
        raise InputError("cycles need at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    order = [[i, (i - 1) % n] for i in range(n)]
    return label_graph(make_graph(n, edges, adjacency_order=order))


def cycle_family(length: int) -> GraphFamily:
    """Completion into the oriented cycle of a fixed length.

    A path-shaped view of an oriented cycle embeds by rotation; a view that
    already contains its whole cycle must match the length exactly.
    """

    def complete(view: View) -> Completion:
        target = oriented_cycle_graph(length)
        anchor = view.anchor_node()
        nodes = sorted(view.node_set)
        if len(nodes) > length:
            raise ContractError("view does not fit the declared cycle length")
        # walk the view from the anchor in the +1 direction (port 0), then -1
        src = view.source.graph
        offset: dict[int, int] = {anchor: 0}
        for direction, start_port in ((1, 0), (-1, 1)):
            cur = anchor
            pos = 0
            while True:
                ports = view.ports[cur]
                if start_port >= len(ports) or ports[start_port][1] is None:
                    break
                nxt = src.other(ports[start_port][1], cur)
                pos += direction
                if nxt in offset:
                    break
                offset[nxt] = pos
                cur = nxt
        if set(offset) != set(view.node_set):
            raise ContractError("view is not a path or cycle segment; family descriptor inadequate")
        base = length // 2
        node_map = {v: (base + d) % length for v, d in offset.items()}
        comp = Completion(network=target, node_map=node_map)
        if not _completion_embeds(view, comp, view.radius):
            raise ContractError("cycle completion failed to embed the view")
        return comp

    return GraphFamily(name=f"cycle-{length}", complete=complete)


def local_expectation_algorithm(
    oracle: Callable[[LabeledGraph], Outcome],
    t: int,
    family: GraphFamily,
) -> LocalAlgorithm:
    """Deterministic LOCAL rule: complete the view, ask the oracle, output the
    expectation of the anchor's marginal (pulled back port to port).

    The oracle's outcomes must be non-signaling beyond t on the family; then
    the choice of completion does not affect the marginal, and composing with
    run_local reproduces the dequantized point coordinatewise.
    """

    def rule(view: View) -> NodeOutput:
        completion = family.complete(view)
        if not _completion_embeds(view, completion, t):
            raise ContractError("completion does not embed the view; family descriptor inadequate")
        v = view.anchor_node()
        v2 = completion.node_map[v]
        outcome = oracle(completion.network)
        marginal = restrict(outcome, [v2])
        sums: dict = {}
        for labeling, p in marginal.support:
            for node, lab in labeling.node_items:
                sums[node] = sums.get(node, Fraction(0)) + p * Fraction(lab)
            for key, lab in labeling.half_edge_items:
                sums[key] = sums.get(key, Fraction(0)) + p * Fraction(lab)
        node_label = sums.get(v2)
        half_edges: dict[int, object] = {}
        g1 = view.source.graph
        g2 = completion.network.graph
        for i, e in enumerate(g1.adjacency[v]):
            target_e = g2.adjacency[v2][i]
            if (v2, target_e) in sums:
                half_edges[e] = sums[(v2, target_e)]
        return NodeOutput(node_label=node_label, half_edge_labels=half_edges)

    return LocalAlgorithm(locality=t, rule=rule)


def maximal_matching_to_fractional(g: Graph, matching: Iterable[int]) -> LpPoint:
    """0/1 point of a maximal matching; input error with a witness otherwise."""
    from .linearize import is_maximal_matching

    edges = frozenset(matching)
    verdict = is_maximal_matching(g, edges)
    if not verdict.ok:
        raise InputError(f"not a maximal matching: {verdict.reason}")
    return LpPoint.of({edge_var(e): Fraction(1) if e in edges else Fraction(0) for e in range(g.m)})


# ---------------------------------------------------------------------------
# JSON


def lp_to_json(lp: DistLP) -> dict:
    from .graphs import graph_to_json

    return {
        "kind": lp.kind,
        "sense": lp.sense,
        "graph": graph_to_json(lp.graph),
        "variables": [
            {
                "name": v.name,
                "owner": list(v.owner),
                "objective": f"{v.objective.numerator}/{v.objective.denominator}",
            }
            for v in lp.variables
        ],
        "constraints": [
            {
                "name": c.name,
                "coeffs": {n: f"{f.numerator}/{f.denominator}" for n, f in c.coeffs},
                "relation": c.relation,
                "bound": f"{c.bound.numerator}/{c.bound.denominator}",
                "owner": c.owner,
            }
            for c in lp.constraints
        ],
    }


def lp_from_json(data: Mapping) -> DistLP:
    from .graphs import graph_from_json

    g = graph_from_json(data["graph"])
    variables = [
        LpVariable(
            name=v["name"],
            owner=(v["owner"][0], int(v["owner"][1])),
            objective=Fraction(v["objective"]),
        )
        for v in data["variables"]
    ]
    constraints = [
        LpConstraint(
            name=c["name"],
            coeffs=tuple(sorted((n, Fraction(f)) for n, f in c["coeffs"].items())),
            relation=c["relation"],
            bound=Fraction(c["bound"]),
            owner=int(c["owner"]),
        )
        for c in data["constraints"]
    ]
    return make_dist_lp(data["kind"], data["sense"], g, variables, constraints)


def point_to_json(x: LpPoint) -> dict:
    return {name: f"{v.numerator}/{v.denominator}" for name, v in x.values}


def point_from_json(data: Mapping) -> LpPoint:
    return LpPoint.of({name: Fraction(v) for name, v in data.items()})
