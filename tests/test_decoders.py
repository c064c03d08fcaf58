"""Seeded fuzzing of the JSON decoders: on any JSON value a decoder either
returns or raises InputError, which the CLI maps to exit 2.

Two sources of values: values built from the keys the decoders read, nested
up to four deep, and well-formed documents of each decoder with one or two
of their parts replaced or deleted, which reach the checks behind the first
key lookups."""

import copy
import json
import random
from fractions import Fraction

import pytest

from locallab.gadgets import (
    gen_proper_instance,
    port_map_from_json,
    port_map_to_json,
    proper_instance_from_json,
    proper_instance_to_json,
)
from locallab.graphs import (
    InputError,
    graph_from_json,
    graph_to_json,
    label_graph,
    labeled_graph_from_json,
    labeled_graph_to_json,
    path_graph,
    rational_from_json,
)
from locallab.lcl import (
    LclProblem,
    centered_ball,
    centered_graph_from_json,
    centered_graph_to_json,
    constraint_set_from_json,
    constraint_set_to_json,
    lcl_problem_from_json,
    lcl_problem_to_json,
    make_constraint_set,
)
from locallab.linearize import (
    MATCHING_ENCODING,
    edge_labeling_from_json,
    edge_labeling_to_json,
    encode_matching,
    incidence_graph_from_json,
    incidence_graph_of,
    incidence_graph_to_json,
    linearizable_from_json,
    linearizable_to_json,
)
from locallab.lp import LpPoint, build_fractional_matching_lp, lp_from_json, lp_to_json, point_from_json, point_to_json
from locallab.outcomes import Labeling, labeling_from_json, labeling_to_json, make_outcome, outcome_from_json, outcome_to_json

# the keys the decoders read, and node, half-edge and edge keys
KEYS = [
    "n", "edges", "multi", "adjacency_order", "node_labels", "half_edge_labels",
    "fraction", "tuple", "nodes", "half_edges", "graph", "support", "p", "labels",
    "center", "r", "delta", "node_alphabet", "half_edge_alphabet", "members",
    "node_in", "half_edge_in", "node_out", "half_edge_out", "constraints",
    "sigma", "first", "last", "pairs", "black", "rank", "roles",
    "variables", "name", "owner", "objective", "coeffs", "relation", "bound", "kind", "sense",
    "x", "eta", "head", "ports", "slot", "copy", "height", "lambda", "octopi",
    "source", "root_to_edge",
    "0", "1", "2", "02", "0:0", "1:0", "1:1", "-1", "x:y",
]

SCALARS = [
    None, True, False, -1, 0, 1, 2, 3, 0.5, "", "0", "1/2", "1/0", "a",
    "node", "edge", "<=", "==", ">=", "maximize", "minimize", "node-based", "edge-based",
    "e0", "M", "P", "A",
]


def random_json(rng: random.Random, depth: int):
    """A JSON value nested at most `depth` deep: scalars from SCALARS,
    lists of up to four values, objects of up to five KEYS."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rng.choice(SCALARS)
    if roll < 0.6:
        return [random_json(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {rng.choice(KEYS): random_json(rng, depth - 1) for _ in range(rng.randint(0, 5))}


def _documents():
    """A well-formed document per decoder, over P3 and its lift."""
    g = path_graph(3)
    lg = label_graph(g, {0: Fraction(1, 2), 1: ("a", 1)}, {(0, 0): "x"})
    uniform = label_graph(g, {v: "n" for v in range(3)}, {h: "h" for h in g.half_edges()})
    constraints = make_constraint_set(1, 2, {"n"}, {"h"}, [centered_ball(uniform, v, 1) for v in (0, 1)])
    problem = LclProblem(frozenset({"n"}), frozenset({"h"}), frozenset(), frozenset(), constraints)
    ig = incidence_graph_of(g)
    lp = build_fractional_matching_lp(g)
    pi, pm = gen_proper_instance(ig, k=2)
    outcome = make_outcome(label_graph(g), [
        (Labeling.of({0: 1}, {(0, 0): "a"}), Fraction(1, 3)),
        (Labeling.of({0: Fraction(1, 2)}, {(0, 0): ("b", 2)}), Fraction(2, 3)),
    ])
    documents = {
        graph_from_json: graph_to_json(g),
        labeled_graph_from_json: labeled_graph_to_json(lg),
        rational_from_json: "-1/2",
        labeling_from_json: labeling_to_json(outcome.entries[1][0]),
        outcome_from_json: outcome_to_json(outcome),
        lp_from_json: lp_to_json(lp),
        point_from_json: point_to_json(LpPoint.of({"e0": 1, "e1": Fraction(0)})),
        centered_graph_from_json: centered_graph_to_json(centered_ball(lg, 1, 1)),
        constraint_set_from_json: constraint_set_to_json(constraints),
        lcl_problem_from_json: lcl_problem_to_json(problem),
        linearizable_from_json: linearizable_to_json(MATCHING_ENCODING),
        incidence_graph_from_json: incidence_graph_to_json(ig),
        edge_labeling_from_json: edge_labeling_to_json(encode_matching(ig, [3])),
        proper_instance_from_json: proper_instance_to_json(pi),
        port_map_from_json: port_map_to_json(pm),
    }
    return {decoder: json.loads(json.dumps(doc)) for decoder, doc in documents.items()}


DOCUMENTS = _documents()
DECODERS = list(DOCUMENTS)


def _places(value, path=()):
    """The path to every part of a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        for key, part in value.items():
            yield from _places(part, path + (key,))
    elif isinstance(value, list):
        for i, part in enumerate(value):
            yield from _places(part, path + (i,))


def mutant(rng: random.Random, document):
    """The document with one or two parts replaced by a random value, or
    an object entry deleted."""
    document = copy.deepcopy(document)
    for _ in range(rng.randint(1, 2)):
        path = rng.choice(list(_places(document)))
        if not path:
            return random_json(rng, 2)
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = random_json(rng, 2)
    return document


def _decodes_or_raises_input_error(decoder, value):
    try:
        decoder(value)
    except InputError:
        pass
    except Exception as exc:
        raise AssertionError(f"{decoder.__name__}({value!r}) raised {exc!r}") from exc


@pytest.mark.parametrize("decoder", DECODERS, ids=[d.__name__ for d in DECODERS])
def test_a_decoder_returns_or_raises_input_error_on_any_json_value(decoder):
    rng = random.Random(f"values {decoder.__name__}")
    for _ in range(1500):
        _decodes_or_raises_input_error(decoder, random_json(rng, 4))


@pytest.mark.parametrize("decoder", DECODERS, ids=[d.__name__ for d in DECODERS])
def test_a_decoder_returns_or_raises_input_error_on_a_mutated_document(decoder):
    document = DOCUMENTS[decoder]
    decoder(document)
    rng = random.Random(f"mutants {decoder.__name__}")
    for _ in range(400):
        _decodes_or_raises_input_error(decoder, mutant(rng, document))
