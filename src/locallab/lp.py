"""Distributed LPs on graphs, an exact simplex, and dequantization.

There is no floating-point path: feasibility, optima, objectives and ratios
are exact Fractions, and every test compares with ==.

Each DistLP is compiled once, on first use, into integer rows: a constraint
is multiplied by the lcm of its denominators (a positive scale keeps the
relation), and so is the objective.  `check_feasible` and `objective_value`
bring a point to one common denominator and evaluate each row as a sum of
ints.  `dequantize` works the same way: it decodes each support entry once
into integers, checks it on the compiled rows, and adds it into integer
column sums; it makes one Fraction per coordinate, at the end.

The simplex is a two-phase tableau with Bland's rule (termination
guaranteed), written straight from the compiled rows and kept fraction-free
(Edmonds 1967; Bareiss 1968): it holds integers over one common positive
denominator, the basis determinant, and every pivot divides exactly.  Its
rows are sparse, and a pivot rewrites only the rows with a nonzero in the
pivot column; untouched rows keep their denominator, and a row is brought to
the current one only where exact values are read.  It makes the pivots the
rational tableau would make, so status, value and point do not depend on the
arithmetic.  `exact_opt` does not trust the answer: it checks the
certificate on integers over the tableau's denominator, the point against
the compiled rows and the objective, and the dual read off the final
objective row for feasibility and equal value.  Fractions are made only at
the end, for the value and the point.

The local expectation algorithm A' needs per view only a network of the family
and the anchor's image there, and from its oracle only the marginal on it.
It checks the completion by comparing the view's key (`graphs.view_key`)
with the image's: A' outputs a function of the view alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .graphs import (
    INFINITY,
    ContractError,
    Graph,
    InputError,
    LabeledGraph,
    View,
    ball_distances,
    common_denominator,
    extract_view,
    graph_from_json,
    graph_to_json,
    json_decoding,
    json_int,
    label_graph,
    make_graph,
    rational_from_json,
    rational_parts,
    rational_to_json,
    view_key,
)
from .linearize import is_maximal_matching
from .outcomes import (
    Labeling,
    LocalAlgorithm,
    NodeOutput,
    Outcome,
    _merge,
    expectation,
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
    # integer rows, built on first use by _compiled(); immutable like the LP
    _integer_form: Optional[_CompiledLP] = field(
        default=None, init=False, repr=False, compare=False
    )


def _check_exact(x, what: str) -> None:
    """An LP number is an int (not a bool) or a Fraction; anything else is an
    InputError naming `what`."""
    if rational_parts(x) is None:
        raise InputError(f"{what} is {x!r}, not an int or a Fraction")


def make_dist_lp(
    kind: str,
    sense: str,
    g: Graph,
    variables: Sequence[LpVariable],
    constraints: Sequence[LpConstraint],
) -> DistLP:
    """Validate the variables (string names, each owned by a node or an edge
    of g), the numbers (each an int or a Fraction) and ownership locality:
    constraint variables live within radius 1."""
    if kind not in ("node-based", "edge-based", "node-edge-based"):
        raise InputError(f"unknown LP kind {kind!r}")
    if sense not in ("maximize", "minimize"):
        raise InputError(f"unknown sense {sense!r}")
    for var in variables:
        if type(var.name) is not str:
            raise InputError(f"variable name {var.name!r} is not a string")
        owner_kind, ident = var.owner
        if owner_kind not in ("node", "edge"):
            raise InputError(f"variable {var.name!r} has unknown owner kind {owner_kind!r}")
        if type(ident) is not int or not 0 <= ident < (g.n if owner_kind == "node" else g.m):
            raise InputError(
                f"variable {var.name!r} is owned by {owner_kind} {ident!r}, not one of the graph's"
            )
        _check_exact(var.objective, f"the objective of variable {var.name!r}")
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise InputError("variable names must be unique")
    by_name = {v.name: v for v in variables}
    for c in constraints:
        if c.relation not in _FLIPPED:
            raise InputError(f"constraint {c.name!r} has unknown relation {c.relation!r}")
        _check_exact(c.bound, f"the bound of constraint {c.name!r}")
        dist = ball_distances(g, [c.owner], 1)
        for name, a in c.coeffs:
            _check_exact(a, f"the coefficient of {name!r} in constraint {c.name!r}")
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
        """The point of exact values: each an int (not a bool) or a Fraction."""
        for name, x in mapping.items():
            _check_exact(x, f"the value of {name!r}")
        return LpPoint(values=tuple(sorted((k, Fraction(v)) for k, v in mapping.items())))

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)


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
# the LP on integers, compiled once per DistLP


class _Row(NamedTuple):
    name: str
    terms: tuple[tuple[int, int], ...]  # (column, coefficient); merged, nonzero
    relation: str
    bound: int
    scale: int  # the positive integer the constraint was multiplied by


@dataclass(frozen=True)
class _CompiledLP:
    names: tuple[str, ...]  # column order = lp.variables order
    name_set: frozenset[str]
    by_name: tuple[int, ...]  # columns sorted by variable name
    objective: tuple[int, ...]  # objective coefficients times objective_scale
    objective_scale: int
    rows: tuple[_Row, ...]
    # per column, the labels its variable reads: its node, or its edge's two
    # half-edges (v, e)
    owners: tuple
    # a point as a labeling, sorted by key; a key owned by several variables
    # takes the value of the last, as a dict built in variable order would
    node_columns: tuple[tuple[int, int], ...]  # (node, column)
    half_edge_columns: tuple[tuple[tuple[int, int], int], ...]  # ((v, e), column)
    # the first two variables that share a node or an edge, which a labeling
    # cannot tell apart, as "variables 'x' and 'y' share node 0"; or None
    shared_owner: Optional[str]


def _compiled(lp: DistLP) -> _CompiledLP:
    """The integer form of `lp`, built on first use and kept on the LP.

    Each constraint is multiplied by the lcm of its denominators (a positive
    scale keeps the relation) and its repeated variables are summed; the
    objective is multiplied by the lcm of its denominators.
    """
    comp = lp._integer_form
    if comp is not None:
        return comp
    names = tuple(v.name for v in lp.variables)
    index = {name: j for j, name in enumerate(names)}
    objective, objective_scale = common_denominator([v.objective for v in lp.variables])
    rows = []
    for c in lp.constraints:
        (bound, *coefs), scale = common_denominator([c.bound, *(coef for _, coef in c.coeffs)])
        merged: dict[int, int] = {}
        for (name, _), a in zip(c.coeffs, coefs):
            col = index[name]
            merged[col] = merged.get(col, 0) + a
        rows.append(_Row(
            name=c.name,
            terms=tuple((col, a) for col, a in merged.items() if a),
            relation=c.relation,
            bound=bound,
            scale=scale,
        ))
    owners = []
    node_columns: dict[int, int] = {}
    half_edge_columns: dict[tuple[int, int], int] = {}
    shared_owner = None
    for j, var in enumerate(lp.variables):
        kind, ident = var.owner
        if kind == "node":
            owner, columns, keys = ident, node_columns, (ident,)
        else:
            u, v = lp.graph.endpoints(ident)
            owner = keys = ((u, ident), (v, ident))
            columns = half_edge_columns
        if shared_owner is None and keys[0] in columns:
            shared_owner = f"variables {names[columns[keys[0]]]!r} and {var.name!r} share {kind} {ident}"
        owners.append(owner)
        columns.update(dict.fromkeys(keys, j))
    comp = _CompiledLP(
        names=names,
        name_set=frozenset(names),
        by_name=tuple(sorted(range(len(names)), key=names.__getitem__)),
        objective=tuple(objective),
        objective_scale=objective_scale,
        rows=tuple(rows),
        owners=tuple(owners),
        node_columns=tuple(sorted(node_columns.items())),
        half_edge_columns=tuple(sorted(half_edge_columns.items())),
        shared_owner=shared_owner,
    )
    object.__setattr__(lp, "_integer_form", comp)
    return comp


def _column_values(comp: _CompiledLP, x: LpPoint) -> list[Fraction]:
    """The point's values in column order; its variables must be the LP's."""
    vals = x.as_dict()
    if vals.keys() != comp.name_set:
        missing = comp.name_set - set(vals)
        if missing:
            raise InputError(f"point is missing variables {sorted(missing)}")
        raise InputError(f"point has unknown variables {sorted(set(vals) - comp.name_set)}")
    return [vals[name] for name in comp.names]


def _numerators(comp: _CompiledLP, values: list, columns: Sequence[int], point: str) -> tuple[list[int], int]:
    """`common_denominator` of the values of the given columns; a value that
    is not an int (a bool is not) or a Fraction is an InputError naming its
    variable."""
    try:
        if bool not in map(type, values):
            return common_denominator(values)
    except AttributeError:
        pass
    j, x = next((j, x) for j, x in zip(columns, values) if rational_parts(x) is None)
    raise InputError(f"{point} gives variable {comp.names[j]!r} the value {x!r}, "
                     "not an integer or a Fraction")


def _point_numerators(comp: _CompiledLP, x: LpPoint) -> tuple[list[int], int]:
    return _numerators(comp, _column_values(comp, x), range(len(comp.names)), "point")


def _point_of_columns(comp: _CompiledLP, nums: Sequence[int], den: int) -> LpPoint:
    """The point nums/den, one Fraction per column, in name order."""
    names = comp.names
    return LpPoint(values=tuple((names[j], Fraction(nums[j], den)) for j in comp.by_name))


def _violations(comp: _CompiledLP, nums: Sequence[int], den: int) -> list[str]:
    """Names of the violated constraints of the point nums/den, after its
    negative variables (as "nonneg:<name>", in name order)."""
    names = comp.names
    bad = [f"nonneg:{names[j]}" for j in comp.by_name if nums[j] < 0]
    for row in comp.rows:
        total = sum(a * nums[j] for j, a in row.terms)
        rhs = row.bound * den
        rel = row.relation
        if not (total <= rhs if rel == "<=" else total == rhs if rel == "==" else total >= rhs):
            bad.append(row.name)
    return bad


# ---------------------------------------------------------------------------
# feasibility, objective, ratio


@dataclass(frozen=True)
class FeasibilityVerdict:
    ok: bool
    violated: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_feasible(lp: DistLP, x: LpPoint) -> FeasibilityVerdict:
    """Exact evaluation of every row plus the implied nonnegativity."""
    comp = _compiled(lp)
    bad = _violations(comp, *_point_numerators(comp, x))
    return FeasibilityVerdict(ok=not bad, violated=tuple(bad))


def objective_value(lp: DistLP, x: LpPoint) -> Fraction:
    comp = _compiled(lp)
    nums, den = _point_numerators(comp, x)
    return Fraction(sum(map(mul, comp.objective, nums)), den * comp.objective_scale)


# ---------------------------------------------------------------------------
# exact simplex


@dataclass(frozen=True)
class OptResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction] = None
    point: Optional[LpPoint] = None


# the right-hand side's key in a sparse tableau row
_RHS = -1


def _at(row: dict[int, int], row_den: int, den: int) -> dict[int, int]:
    """The row written at row_den, brought to den (exact: see `_pivot`)."""
    return row if row_den == den else {j: a * den // row_den for j, a in row.items()}


def _pivot(rows: list[dict[int, int]], dens: list[int], basis: list[int], row: int, col: int, den: int) -> int:
    """Fraction-free pivot on rows[row][col]; returns the new denominator.

    Row i is sparse, {column: int} without zeros, over its own denominator
    dens[i].  Brought to the tableau's denominator den, the basis
    determinant, each row holds the dense fraction-free tableau's integers,
    so `_at` divides exactly.  The pivot row, at den, keeps its integers and
    the pivot p becomes its denominator; each row with a nonzero f in the
    pivot column turns into (p*a - f*b) / den over p.  That division is
    exact: each entry is, up to sign, a minor of the integer system.
    Untouched rows keep their integers and their denominator.  A negative p
    negates the rows it writes, so every denominator stays positive.
    """
    prow = _at(rows[row], dens[row], den)
    p = prow[col]
    q = den if p > 0 else -den
    for i, r in enumerate(rows):
        if i != row and col in r:
            a = _at(r, dens[i], den)
            f = a[col]
            new = {j: p * v // q for j, v in a.items() if j not in prow}
            for j, b in prow.items():
                v = p * a.get(j, 0) - f * b
                if v:
                    new[j] = v // q
            rows[i], dens[i] = new, abs(p)
    rows[row], dens[row] = (prow if p > 0 else {j: -b for j, b in prow.items()}), abs(p)
    basis[row] = col
    return abs(p)


def _price_out(rows: list[dict[int, int]], dens: list[int], basis: list[int], den: int) -> None:
    """Zero the objective row (the last, written at den) on the basic columns.

    Row i holds den on its basic column when brought to den, and the
    objective row holds a multiple of den there when this runs, so the
    quotient is exact.
    """
    obj = rows[-1]
    for i, b in enumerate(basis):
        if obj.get(b):
            q = obj[b] // den
            for j, c in _at(rows[i], dens[i], den).items():
                obj[j] = obj.get(j, 0) - q * c
    rows[-1] = {j: a for j, a in obj.items() if a}


def _optimize(rows: list[dict[int, int]], dens: list[int], basis: list[int], blocked: set[int], den: int) -> tuple[str, int]:
    """Bland's rule on the maximization tableau; objective is the last row.

    Returns the status and the final denominator.  The entering column is
    the least one outside `blocked` with a negative reduced cost, and the
    ratio test compares rhs/a across rows by cross-multiplication (every a
    is positive).  Each row is read at its own denominator: a positive scale
    changes neither a sign nor a ratio, so every choice is the dense
    tableau's.
    """
    last = len(rows) - 1
    while True:
        col = min((j for j, c in rows[last].items() if c < 0 and j not in blocked), default=None)
        if col is None:
            return "optimal", den
        row, best_rhs, best_a = -1, 0, 1
        for i in range(last):
            a = rows[i].get(col, 0)
            if a > 0:
                rhs = rows[i].get(_RHS, 0)
                lhs, rhs_best = rhs * best_a, best_rhs * a
                if row == -1 or lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[row]):
                    row, best_rhs, best_a = i, rhs, a
        if row == -1:
            return "unbounded", den
        den = _pivot(rows, dens, basis, row, col, den)


_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


def _solve(
    comp: _CompiledLP, objective: Sequence[int]
) -> tuple[str, Optional[tuple[int, list[int], list[int], int]]]:
    """Maximize objective·x over {x >= 0 : comp's rows hold}.

    The tableau's rows are sparse (see `_pivot`); a row that a pivot leaves
    untouched keeps its denominator.  A row with a negative bound is negated
    as it is written, its relation flipped.  Columns: the variables, then a
    slack per <=/>= row, then an artificial per >=/== row, each in row
    order; the right-hand side sits at key _RHS.  Phase 1 weighs row i's
    artificial by 1/scale_i (times their lcm), so every pivot is the one the
    unscaled rational tableau would make.  Returns the status and, when
    optimal, (den, x, y, value): integer numerators over the one positive
    denominator den of the point, the dual and the value.  The dual has one
    entry per input row, read off the final objective row at the row's own
    column (slack column of a <=/>= row, artificial column of an == row,
    sign flipped for a negated row).  An artificial that phase 1 cannot
    drive out of the basis sits in a redundant row, zero outside the
    artificial columns; the row stays in the tableau, no phase-2 pivot
    chooses it, and the artificial's unit column keeps a reduced cost of 0.
    """
    n, m = len(comp.names), len(comp.rows)
    negated = [row.bound < 0 for row in comp.rows]
    rels = [_FLIPPED[row.relation] if neg else row.relation for row, neg in zip(comp.rows, negated)]
    slack_cols = {i: col for col, i in enumerate((i for i, rel in enumerate(rels) if rel != "=="), n)}
    art_start = n + len(slack_cols)
    art_cols = {i: col for col, i in enumerate((i for i, rel in enumerate(rels) if rel != "<="), art_start)}

    rows: list[dict[int, int]] = []
    basis: list[int] = []
    for i, row in enumerate(comp.rows):
        sign = -1 if negated[i] else 1
        r = {j: sign * a for j, a in row.terms}
        if i in slack_cols:
            r[slack_cols[i]] = 1 if rels[i] == "<=" else -1
        if i in art_cols:
            r[art_cols[i]] = 1
        if row.bound:
            r[_RHS] = sign * row.bound
        rows.append(r)
        basis.append(art_cols[i] if i in art_cols else slack_cols[i])
    dens = [1] * m

    den = 1
    blocked = {_RHS}

    if art_cols:
        # phase 1: maximize -(sum of artificials of the unscaled rows)
        weight = math.lcm(*(comp.rows[i].scale for i in art_cols))
        rows.append({col: weight // comp.rows[i].scale for i, col in art_cols.items()})
        dens.append(den)
        _price_out(rows, dens, basis, den)
        _, den = _optimize(rows, dens, basis, blocked, den)
        if _RHS in rows[-1]:
            return "infeasible", None
        rows.pop()
        dens.pop()
        blocked.update(art_cols.values())
        # drive surviving artificials out of the basis where possible; a row
        # that keeps one is zero outside the artificial columns, so no
        # phase-2 pivot can choose it
        for i in range(m):
            if basis[i] in blocked:
                pivot_col = min((j for j in rows[i] if j not in blocked), default=None)
                if pivot_col is not None:
                    den = _pivot(rows, dens, basis, i, pivot_col, den)

    rows.append({j: -c * den for j, c in enumerate(objective) if c})
    dens.append(den)
    _price_out(rows, dens, basis, den)
    status, den = _optimize(rows, dens, basis, blocked, den)
    if status == "unbounded":
        return status, None
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i].get(_RHS, 0) * den // dens[i]
    obj_row = _at(rows[-1], dens[-1], den)
    y = [0] * m
    for i in range(m):
        yi = obj_row.get(art_cols[i] if rels[i] == "==" else slack_cols[i], 0)
        y[i] = -yi if (rels[i] == ">=") != negated[i] else yi
    return status, (den, x, y, obj_row.get(_RHS, 0))


def _check_certificate(
    comp: _CompiledLP, objective: Sequence[int], den: int, x: Sequence[int], y: Sequence[int], value: int
) -> None:
    """Raise ContractError unless the point x/den and the dual y/den prove that
    value/den is the maximum of objective·x over the compiled rows: the point
    satisfies every row and has objective value/den, and the dual has the
    right sign per relation, covers the objective column by column and has
    b·y == value (weak duality then bounds every feasible point by value/den).
    """
    bad = _violations(comp, x, den)
    if bad:
        raise ContractError(f"simplex optimum violates {bad}")
    if sum(map(mul, objective, x)) != value:
        raise ContractError(f"simplex optimum's objective differs from its value {Fraction(value, den)}")
    columns = [0] * len(objective)
    bound_total = 0
    for row, yi in zip(comp.rows, y):
        if (row.relation == "<=" and yi < 0) or (row.relation == ">=" and yi > 0):
            raise ContractError(f"simplex dual has the wrong sign on row {row.name!r}")
        for j, a in row.terms:
            columns[j] += a * yi
        bound_total += row.bound * yi
    for j, total in enumerate(columns):
        if total < objective[j] * den:
            raise ContractError(f"simplex dual does not cover variable {comp.names[j]!r}")
    if bound_total != value:
        raise ContractError(f"simplex dual value differs from the optimum {Fraction(value, den)}")


def exact_opt(lp: DistLP) -> OptResult:
    """Optimal objective by the exact simplex (Bland's rule), with the optimum
    checked against its primal-dual certificate."""
    if len(lp.variables) > MAX_EXACT_OPT_VARIABLES:
        raise InputError(f"exact_opt is desk-scale (<= {MAX_EXACT_OPT_VARIABLES} variables)")
    comp = _compiled(lp)
    sign = 1 if lp.sense == "maximize" else -1
    objective = [sign * c for c in comp.objective]
    status, optimum = _solve(comp, objective)
    if optimum is None:
        return OptResult(status=status)
    den, x, y, value = optimum
    _check_certificate(comp, objective, den, x, y, value)
    return OptResult(
        status=status,
        value=Fraction(sign * value, den * comp.objective_scale),
        point=_point_of_columns(comp, x, den),
    )


def ratio_to_opt(sense: str, opt: Fraction, value: Fraction):
    """OPT/value for maximization, value/OPT for minimization; 1 when both
    are 0 and INFINITY when only the divisor is 0."""
    top, bottom = (opt, value) if sense == "maximize" else (value, opt)
    if bottom == 0:
        return Fraction(1) if top == 0 else INFINITY
    return top / bottom


def approximation_ratio(lp: DistLP, x: LpPoint):
    """`ratio_to_opt` of a feasible point against the exact optimum; >= 1.

    Returns the INFEASIBLE sentinel for infeasible points and INFINITY when a
    zero-value point faces a positive optimum.
    """
    if not check_feasible(lp, x):
        return INFEASIBLE
    opt = exact_opt(lp)
    if opt.status != "optimal":
        raise InputError(f"approximation ratio undefined for {opt.status} LP")
    assert opt.value is not None
    return ratio_to_opt(lp.sense, opt.value, objective_value(lp, x))


# ---------------------------------------------------------------------------
# outcomes over LP points and dequantization


def _labeling_of_columns(comp: _CompiledLP, vals: Sequence) -> Labeling:
    return Labeling(
        node_items=tuple((v, vals[j]) for v, j in comp.node_columns),
        half_edge_items=tuple((key, vals[j]) for key, j in comp.half_edge_columns),
    )


def labeling_from_point(lp: DistLP, x: LpPoint) -> Labeling:
    """Encode a point as a labeling: edge values on both half-edges, node values on nodes."""
    comp = _compiled(lp)
    return _labeling_of_columns(comp, _column_values(comp, x))


def _label_positions(comp: _CompiledLP, labeling: Labeling) -> list:
    """Per column, where its labels sit in `labeling`: the index into
    node_items, or the two indices into half_edge_items (None where absent).

    Every labeling of one outcome has the same domain (see `make_outcome`),
    so the positions read off its first labeling hold for all of them.
    """
    node_at = {v: i for i, (v, _) in enumerate(labeling.node_items)}
    half_edge_at = {key: i for i, (key, _) in enumerate(labeling.half_edge_items)}
    return [
        (half_edge_at.get(owner[0]), half_edge_at.get(owner[1])) if type(owner) is tuple
        else node_at.get(owner)
        for owner in comp.owners
    ]


def _label_parts(comp: _CompiledLP, j: int, lab, entry: int) -> tuple[int, int]:
    parts = rational_parts(lab)
    if parts is None:
        raise InputError(
            f"support entry {entry} labels variable {comp.names[j]!r} with {lab!r}, "
            "not an integer or a Fraction"
        )
    return parts


def _decode(comp: _CompiledLP, positions: list, labeling: Labeling, entry: int) -> tuple[list[int], int]:
    """The point a labeling encodes, as integer numerators per column over
    their least common denominator; both half-edges of an edge must agree."""
    nodes, half_edges = labeling.node_items, labeling.half_edge_items
    nums: list[int] = []
    dens: list[int] = []
    for j, at in enumerate(positions):
        if type(at) is tuple:
            if at[0] is None or at[1] is None:
                raise InputError(f"labeling misses edge variable {comp.names[j]!r}")
            lab_u, lab_v = half_edges[at[0]][1], half_edges[at[1]][1]
            a, b = _label_parts(comp, j, lab_u, entry)
            if (a, b) != _label_parts(comp, j, lab_v, entry):
                raise InputError(
                    f"endpoints disagree on edge variable {comp.names[j]!r}: {lab_u} vs {lab_v}"
                )
        else:
            if at is None:
                raise InputError(f"labeling misses node variable {comp.names[j]!r}")
            a, b = _label_parts(comp, j, nodes[at][1], entry)
        nums.append(a)
        dens.append(b)
    den = math.lcm(*dens)
    return [a * (den // b) for a, b in zip(nums, dens)], den


def outcome_of_points(lp: DistLP, pairs: Iterable[tuple[LpPoint, Fraction]]) -> Outcome:
    """The distribution of `labeling_from_point` over weighted points: equal
    to `make_outcome` over those labelings, entry for entry and error for
    error, when every value the labelings show is an int or a Fraction (any
    other value is an InputError).

    Duplicate points are merged on (den, *numerators) of the columns the
    labeling shows, which is equal exactly when the labelings are.  The
    compiled layout gives every labeling one domain inside the graph, so no
    domain is checked.
    """
    comp = _compiled(lp)
    pairs = list(pairs)
    columns = [_column_values(comp, pt) for pt, _ in pairs]
    shown = sorted({j for _, j in comp.node_columns} | {j for _, j in comp.half_edge_columns})
    keys = []
    for i, vals in enumerate(columns):
        nums, den = _numerators(comp, [vals[j] for j in shown], shown, f"point {i}")
        keys.append((den, *nums))
    merged, denominator = _merge(keys, map(itemgetter(1), pairs))
    entries = tuple([(_labeling_of_columns(comp, columns[i]), w) for i, w in merged.values()])
    return Outcome(input=label_graph(lp.graph), entries=entries, denominator=denominator)


def dequantize(outcome: Outcome, lp: DistLP) -> LpPoint:
    """Coordinatewise expectation of a distribution over feasible points.

    The outcome must be over the LP's graph, and no two variables may share
    a node or an edge: a labeling shows one label there, so the later
    variable's value would be read back for both.  Every support entry must
    itself be feasible (the hypothesis of the expectation-approximation
    argument); an infeasible entry is a contract error naming the entry.
    The result is feasible and its objective equals the expected objective
    of the support, exactly.

    Each entry i is decoded once into integers nums_i over its own
    denominator d_i and checked against the compiled rows.  With the
    outcome's integer weights w_i over its denominator W, the column sums
    hold sum_i w_i * nums_i * (L / d_i) as integers over W * L, where L is
    the lcm of the d_i seen so far.  One Fraction per column is made at the
    end.
    """
    if outcome.input.graph != lp.graph:
        raise InputError("dequantize needs an outcome over the LP's graph")
    comp = _compiled(lp)
    if comp.shared_owner is not None:
        raise InputError(f"dequantize cannot tell apart {comp.shared_owner}")
    positions = _label_positions(comp, outcome.entries[0][0])
    sums = [0] * len(comp.names)
    lcm_d = 1
    for i, (labeling, w) in enumerate(outcome.entries):
        nums, d = _decode(comp, positions, labeling, i)
        bad = _violations(comp, nums, d)
        if bad:
            raise ContractError(f"support entry {i} is infeasible (violates {bad})")
        if lcm_d % d:
            scale = d // math.gcd(lcm_d, d)
            sums = [s * scale for s in sums]
            lcm_d *= scale
        k = w * (lcm_d // d)
        sums = [s + k * a for s, a in zip(sums, nums)]
    return _point_of_columns(comp, sums, outcome.denominator * lcm_d)


# ---------------------------------------------------------------------------
# the local expectation algorithm A' (view completion + oracle marginal)


def whole_graph_family(lg: LabeledGraph) -> Callable[[View], tuple[LabeledGraph, int]]:
    """Completion into the input network itself: the anchor is its own image."""

    def complete(view: View) -> tuple[LabeledGraph, int]:
        if view.source is not lg and view.source != lg:
            raise ContractError("whole-graph completion got a view of a different network")
        return lg, view.anchor_node()

    return complete


def oriented_cycle_graph(n: int) -> LabeledGraph:
    """Cycle with homogeneous ports: every node lists its +1 edge first."""
    if n < 3:
        raise InputError("cycles need at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    order = [[i, (i - 1) % n] for i in range(n)]
    return label_graph(make_graph(n, edges, adjacency_order=order))


def cycle_family(length: int) -> Callable[[View], tuple[LabeledGraph, int]]:
    """Completion into the oriented cycle of a fixed length (at least 3),
    with the anchor's image at node length // 2.

    A path-shaped view of an oriented cycle embeds by rotation, and a view
    that holds a whole cycle must match the length; any other view fails
    the view-key check of `local_expectation_algorithm`.
    """
    cycle = oriented_cycle_graph(length)

    def complete(view: View) -> tuple[LabeledGraph, int]:
        return cycle, length // 2

    return complete


def local_expectation_algorithm(
    oracle: Callable[[LabeledGraph, Sequence[int]], Outcome],
    t: int,
    complete: Callable[[View], tuple[LabeledGraph, int]],
) -> LocalAlgorithm:
    """Deterministic LOCAL rule: complete the view into a network of the
    family and the anchor's image there (`complete`), check that the
    image's radius-t view has the view's key, and output the expectation of
    the oracle's marginal on the image (pulled back port to port).

    The oracle maps (network, nodes) to the marginal of its outcome on those
    nodes.  Its outcomes must be non-signaling beyond t on the family; then
    the choice of completion does not affect the marginal, and composing with
    run_local reproduces the dequantized point coordinatewise.
    """

    def rule(view: View) -> NodeOutput:
        network, image = complete(view)
        if view_key(view) != view_key(extract_view(network, [image], t)):
            raise ContractError("completion does not embed the view; family descriptor inadequate")
        sums = expectation(oracle(network, [image]))
        ports = zip(view.source.graph.adjacency[view.anchor_node()], network.graph.adjacency[image])
        half_edges = {e: sums[(image, f)] for e, f in ports if (image, f) in sums}
        return NodeOutput(node_label=sums.get(image), half_edge_labels=half_edges)

    return LocalAlgorithm(locality=t, rule=rule)


def maximal_matching_to_fractional(g: Graph, matching: Iterable[int]) -> LpPoint:
    """0/1 point of a maximal matching; input error with a witness otherwise."""
    edges = frozenset(matching)
    verdict = is_maximal_matching(g, edges)
    if not verdict.ok:
        raise InputError(f"not a maximal matching: {verdict.reason}")
    return LpPoint.of({edge_var(e): int(e in edges) for e in range(g.m)})


# ---------------------------------------------------------------------------
# JSON


def lp_to_json(lp: DistLP) -> dict:
    return {
        "kind": lp.kind,
        "sense": lp.sense,
        "graph": graph_to_json(lp.graph),
        "variables": [
            {"name": v.name, "owner": list(v.owner), "objective": rational_to_json(v.objective)}
            for v in lp.variables
        ],
        "constraints": [
            {
                "name": c.name,
                "coeffs": {n: rational_to_json(f) for n, f in c.coeffs},
                "relation": c.relation,
                "bound": rational_to_json(c.bound),
                "owner": c.owner,
            }
            for c in lp.constraints
        ],
    }


def lp_from_json(data: Mapping) -> DistLP:
    with json_decoding("LP"):
        g = graph_from_json(data["graph"])
        variables = [
            LpVariable(
                name=v["name"],
                owner=(v["owner"][0], json_int(v["owner"][1])),
                objective=rational_from_json(v["objective"]),
            )
            for v in data["variables"]
        ]
        constraints = [
            LpConstraint(
                name=c["name"],
                coeffs=tuple(sorted((n, rational_from_json(f)) for n, f in c["coeffs"].items())),
                relation=c["relation"],
                bound=rational_from_json(c["bound"]),
                owner=json_int(c["owner"]),
            )
            for c in data["constraints"]
        ]
        return make_dist_lp(data["kind"], data["sense"], g, variables, constraints)


def point_to_json(x: LpPoint) -> dict:
    return {name: rational_to_json(v) for name, v in x.values}


def point_from_json(data: Mapping) -> LpPoint:
    if not isinstance(data, Mapping):
        raise InputError("an LP point is a JSON object of variable values")
    return LpPoint.of({name: rational_from_json(v) for name, v in data.items()})
