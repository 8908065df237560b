import hashlib
import json
import random
from fractions import Fraction

import pytest

from padicann.errors import (
    Disconnected,
    NonIntegralGenus,
    NothingToRewrite,
    RelationViolated,
    UnclassifiableVertex,
)
from padicann.graphs import (
    ArithGraph,
    Vertex,
    check_specialfiber_bounds,
    classify,
    local_modification,
    random_fiber_graph,
)


def relation3_sum(g: ArithGraph) -> Fraction:
    """Edge-weighted sum that equals 2(g - t' - p) on every valid graph."""
    total = Fraction(0)
    for a, b, mult in g.edges():
        for i, j in ((a, b), (b, a)):
            vi, vj = g.vertices[i], g.vertices[j]
            coeff = Fraction(vj.m * (vi.m * vi.w + 2), vi.m * (vi.w + 2)) - 1
            total += coeff * mult
    return total


def hub_fixture() -> ArithGraph:
    # One genus-2 component carrying a multiplicity-2 hub with three leaves.
    return ArithGraph(
        [Vertex(1, 2, 4), Vertex(2, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0)],
        [(0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1)],
    )


def chain_fixture() -> ArithGraph:
    return ArithGraph(
        [Vertex(1, 2, 3), Vertex(1, 0, 0), Vertex(1, 0, 0), Vertex(1, 2, 3)],
        [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
    )


def tangency_fixture() -> ArithGraph:
    return ArithGraph([Vertex(1, 1, 2), Vertex(1, 0, 0)], [(0, 1, 2)])


def triple_point_fixture() -> ArithGraph:
    return ArithGraph(
        [Vertex(1, 1, 2), Vertex(1, 1, 2), Vertex(1, 0, 0, (0, 1))],
        [(0, 1, 1), (0, 2, 1), (1, 2, 1)],
    )


# -- validation ---------------------------------------------------------------


def test_good_reduction_validates():
    g = ArithGraph([Vertex(1, 5, 8)])
    assert g.validate() == (5, 0, 5)


def test_two_component_fiber():
    g = ArithGraph([Vertex(1, 1, 1), Vertex(1, 1, 1)], [(0, 1, 1)])
    assert g.validate() == (2, 0, 2)


def test_chain_example_validates():
    assert chain_fixture().validate() == (4, 0, 4)


def test_relation_violated_reports_vertex():
    bad = ArithGraph(
        [Vertex(1, 2, 5), Vertex(2, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0)],
        [(0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1)],
    )
    with pytest.raises(RelationViolated) as exc:
        bad.validate()
    assert exc.value.vertex == 0
    assert exc.value.lhs == 2


def test_disconnected():
    bad = ArithGraph(
        [Vertex(1, 2, 4), Vertex(2, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0)],
        [(0, 1, 1), (1, 2, 1), (1, 3, 1)],
    )
    with pytest.raises(Disconnected):
        bad.validate()


def test_genus_below_two_rejected():
    with pytest.raises(NonIntegralGenus):
        ArithGraph([Vertex(1, 1, 0)]).validate()
    # A closed loop of (-2)-curves is connected and satisfies every vertex
    # relation, but its total m*w is zero.
    loop = ArithGraph(
        [Vertex(1, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0)],
        [(0, 1, 1), (1, 2, 1), (0, 2, 1)],
    )
    with pytest.raises(NonIntegralGenus):
        loop.validate()


def test_constructor_rejections():
    with pytest.raises(ValueError):
        ArithGraph([Vertex(0, 0, 0)])
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, -1, 0)])
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 0, -2)])
    with pytest.raises(ValueError):
        ArithGraph([])
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 1, 0)], [(0, 0, 1)])  # self-edge
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 1, 0), Vertex(1, 1, 0)], [(0, 1, 0)])  # mult 0
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 1, 0), Vertex(1, 1, 0)], [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 1, 0)], [(0, 5, 1)])
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 0, 0, (1, 1)), Vertex(1, 1, 1)])
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 0, 0, (0, 1)), Vertex(1, 1, 1)])  # self-reference
    with pytest.raises(ValueError):
        ArithGraph([Vertex(1, 0, 0, (1, 7)), Vertex(1, 1, 1)])


# -- classification -----------------------------------------------------------


def test_chain_classification():
    cls = classify(chain_fixture())
    assert cls.chains == ((1, 2),)
    assert cls.a1_outside_chains == 0
    assert cls.N == 2
    assert cls.case2 == cls.case3 == cls.case4 == ()


def test_hub_leaves_are_case2():
    cls = classify(hub_fixture())
    assert cls.case2 == (2, 3, 4)
    assert cls.chains == ()
    assert cls.N == 1


def test_tangency_is_case4():
    cls = classify(tangency_fixture())
    assert cls.case4 == (1,)
    assert cls.t_prime == 1


def test_triple_point_is_case3():
    cls = classify(triple_point_fixture())
    assert cls.case3 == (2,)
    assert cls.case2 == ()


def test_annotation_without_shared_edge_rejected():
    g = ArithGraph(
        [Vertex(1, 1, 1), Vertex(1, 1, 1), Vertex(1, 0, 0, (0, 1))],
        [(0, 2, 1), (1, 2, 1)],
    )
    g.validate()
    with pytest.raises(UnclassifiableVertex):
        classify(g)


def test_annotation_on_double_edge_rejected():
    g = ArithGraph(
        [Vertex(1, 1, 3), Vertex(1, 0, 0, (0, 2)), Vertex(1, 1, 1)],
        [(0, 1, 2), (0, 2, 1)],
    )
    g.validate()
    with pytest.raises(UnclassifiableVertex):
        classify(g)


# -- bounds -------------------------------------------------------------------


def test_good_reduction_bounds():
    report = check_specialfiber_bounds(classify(ArithGraph([Vertex(1, 5, 8)])))
    assert report["ok"]
    assert report["N"] == 1
    assert report["chain_count"] == 0
    assert report["a1_outside_chains"] == 0


def test_chain_bound_is_tight():
    report = check_specialfiber_bounds(classify(chain_fixture()))
    assert report["chain_count"] == 1
    assert report["chain_bound"] == 1


def test_hub_bound_is_tight_with_proxy():
    report = check_specialfiber_bounds(classify(hub_fixture()))
    assert report["u_source"] == "proxy"
    assert report["u"] == 1
    assert report["a1_outside_chains"] == 3
    assert report["a1_bound"] == 3


def test_extremal_low_genus_all_tight():
    # Genus 2 with toric rank 2: three one-curve chains between two elliptic
    # components; every bound is attained.
    g = ArithGraph(
        [Vertex(1, 0, 1), Vertex(1, 0, 1)] + [Vertex(1, 0, 0)] * 3,
        [(0, 2, 1), (2, 1, 1), (0, 3, 1), (3, 1, 1), (0, 4, 1), (4, 1, 1)],
    )
    assert g.validate() == (2, 2, 0)
    report = check_specialfiber_bounds(classify(g))
    assert report["N"] == report["N_bound"] == 2
    assert report["chain_count"] == report["chain_bound"] == 3
    assert report["a1_outside_chains"] == report["a1_bound"] == 0


def test_extremal_genus3_tree_all_tight():
    # Genus 3 with loop rank 0: a central component linked by three one-curve
    # chains to three components that each carry a hub with three leaves.
    verts = [Vertex(1, 0, 1)] * 4 + [Vertex(1, 0, 0)] * 3
    edges = [(0, 4, 1), (4, 1, 1), (0, 5, 1), (5, 2, 1), (0, 6, 1), (6, 3, 1)]
    for anchor in (1, 2, 3):
        hub = len(verts)
        verts.append(Vertex(2, 0, 0))
        edges.append((anchor, hub, 1))
        for _ in range(3):
            leaf = len(verts)
            verts.append(Vertex(1, 0, 0))
            edges.append((hub, leaf, 1))
    g = ArithGraph(verts, edges)
    assert g.validate() == (3, 0, 0)
    report = check_specialfiber_bounds(classify(g))
    assert report["N"] == report["N_bound"] == 4
    assert report["chain_count"] == report["chain_bound"] == 3
    assert report["a1_outside_chains"] == report["a1_bound"] == 9


# -- local modification -------------------------------------------------------


def test_nothing_to_rewrite():
    with pytest.raises(NothingToRewrite):
        local_modification(classify(ArithGraph([Vertex(1, 3, 4)])))
    with pytest.raises(NothingToRewrite):
        local_modification(classify(chain_fixture()))


def test_tangency_rewrite():
    g = tangency_fixture()
    out = local_modification(classify(g))
    assert out.validate() == (2, 0, 1)
    cls = classify(out)
    # The tangent curve survives and meets the new hub; two leaves join it.
    assert len(cls.case2) == 3
    assert cls.case3 == cls.case4 == ()
    hubs = [v for v in out.vertices if v.m == 2]
    assert len(hubs) == 1


def test_triple_point_rewrite():
    g = triple_point_fixture()
    out = local_modification(classify(g))
    assert out.validate() == (3, 0, 2)
    cls = classify(out)
    assert len(cls.case2) == 2
    assert cls.case3 == cls.case4 == ()
    assert len(out.vertices) == 5  # curve through the point removed, hub + 2 leaves


def test_rewrite_preserves_genus_and_grows_a1():
    found = 0
    for seed in range(120):
        g = random_fiber_graph(random.Random(seed), max_genus=9)
        cls = classify(g)
        if not cls.case3 and not cls.case4:
            continue
        found += 1
        genus, _, _ = g.validate()
        out = local_modification(cls)
        genus2, _, _ = out.validate()
        assert genus2 == genus
        cls2 = classify(out)
        assert cls2.case3 == cls2.case4 == ()
        assert cls2.a1_outside_chains > cls.a1_outside_chains
        check_specialfiber_bounds(cls2)
    assert found > 10


def test_rewrite_renumbers_annotations_and_drops_stale_ones():
    # Annotations on components that are not (-2)-curves are ignored by the
    # classifier; the rewrite renumbers them, or drops one that names the
    # removed curve through the triple point.
    g = ArithGraph(
        [Vertex(1, 0, 0, (1, 2)), Vertex(1, 1, 2, (0, 2)),
         Vertex(1, 1, 3, (1, 3)), Vertex(1, 1, 1)],
        [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)],
    )
    out = local_modification(classify(g))
    assert out.vertices == (Vertex(1, 1, 2), Vertex(1, 1, 3, (0, 2)), Vertex(1, 1, 1),
                            Vertex(2, 0, 0), Vertex(1, 0, 0), Vertex(1, 0, 0))
    assert out.edges() == [(0, 3, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1), (3, 5, 1)]
    assert out.validate() == (4, 0, 3)


def test_rewrites_sharing_an_edge_are_refused():
    # Two triple points of the same two components need two units of their
    # edge; with one, the rewrites overlap.
    g = ArithGraph(
        [Vertex(1, 1, 3), Vertex(1, 1, 3), Vertex(1, 0, 0, (0, 1)), Vertex(1, 0, 0, (0, 1))],
        [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1)],
    )
    assert classify(g).case3 == (2, 3)
    with pytest.raises(ValueError, match="overlapping rewrites"):
        local_modification(classify(g))


# -- generator ----------------------------------------------------------------


def test_generator_output_is_valid_and_bounded():
    seen_case3 = seen_case4 = seen_chain = seen_loop = 0
    for seed in range(200):
        g = random_fiber_graph(random.Random(seed), max_genus=10)
        genus, t_prime, p_sum = g.validate()
        assert 2 <= genus <= 10
        cls = classify(g)
        minus_two = sum(
            1 for v in g.vertices if v.m == 1 and v.pa == 0 and v.w == 0
        )
        in_chains = sum(len(c) for c in cls.chains)
        assert in_chains + cls.a1_outside_chains == minus_two
        report = check_specialfiber_bounds(cls)
        assert report["ok"]
        assert relation3_sum(g) == 2 * (genus - t_prime - p_sum)
        seen_case3 += bool(cls.case3)
        seen_case4 += bool(cls.case4)
        seen_chain += bool(cls.chains)
        seen_loop += t_prime > 0
    assert seen_case3 > 20
    assert seen_case4 > 20
    assert seen_chain > 20
    assert seen_loop > 20


def test_relation3_identity_on_fixtures():
    for g in (
        hub_fixture(),
        chain_fixture(),
        tangency_fixture(),
        triple_point_fixture(),
        ArithGraph([Vertex(1, 7, 12)]),
    ):
        genus, t_prime, p_sum = g.validate()
        assert relation3_sum(g) == 2 * (genus - t_prime - p_sum)


# -- serialization ------------------------------------------------------------


def test_from_dict_preserves_annotation():
    g = ArithGraph.from_dict({
        "vertices": [{"m": 1, "pa": 1, "w": 2}, {"m": 1, "pa": 1, "w": 2},
                     {"m": 1, "pa": 0, "w": 0, "case3_point_ids": [0, 1]}],
        "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]],
    })
    assert g.vertices == triple_point_fixture().vertices
    assert g.edges() == triple_point_fixture().edges()
    assert g.vertices[2].case3_point_ids == (0, 1)


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        ArithGraph.from_dict({"edges": []})
    with pytest.raises(ValueError):
        ArithGraph.from_dict(
            {"vertices": [{"m": 1, "pa": 1, "w": 0}], "edges": [[0, 0]]}
        )


@pytest.mark.parametrize("data", [
    {"vertices": [{"m": 1.9, "pa": 2, "w": 2}]},
    {"vertices": [{"m": 1, "pa": 3.7, "w": 4}]},
    {"vertices": [{"m": 1, "pa": 1, "w": 1}, {"m": 1, "pa": 1, "w": 1}],
     "edges": [[0, 1.7, 2.9]]},
    {"vertices": [{"m": 1, "pa": 0, "w": 0, "case3_point_ids": [1, 2.5]},
                  {"m": 1, "pa": 1, "w": 1}, {"m": 1, "pa": 1, "w": 1}]},
    {"vertices": [{"m": True, "pa": 2, "w": 2}]},
])
def test_from_dict_refuses_non_integer_fields(data):
    # int() would truncate 1.9 to 1 and read a valid graph
    with pytest.raises(ValueError, match="must be an integer"):
        ArithGraph.from_dict(data)


# -- golden outputs -----------------------------------------------------------

# sha256 of ``_fiber_outputs()``: the generated graphs of seeds 0-199, what
# ``validate``, ``classify`` and ``check_specialfiber_bounds`` say of each,
# and the ``local_modification`` rewrite (or the class of its error).  To see
# what moved after a change, dump ``_fiber_outputs()`` as JSON on both sides
# and diff them.
GRAPHS_SHA256 = "e11591c80649629a66e0c51927e957c15e3b9104ff83c4a4c0c6aeaa28ded3b7"


def _graph_record(g: ArithGraph) -> dict:
    return {"vertices": [[v.m, v.pa, v.w, v.case3_point_ids] for v in g.vertices],
            "edges": g.edges()}


def _fiber_outputs() -> list:
    out = []
    for seed in range(200):
        g = random_fiber_graph(random.Random(seed), 10)
        cls = classify(g)
        rec = dict(_graph_record(g), validate=g.validate(), N=cls.N,
                   chains=cls.chains, case2=cls.case2, case3=cls.case3,
                   case4=cls.case4, t_prime=cls.t_prime, p_sum=cls.p_sum,
                   bounds=check_specialfiber_bounds(cls))
        try:
            rec["rewrite"] = _graph_record(local_modification(cls))
        except (NothingToRewrite, ValueError) as exc:
            rec["rewrite"] = type(exc).__name__
        out.append(rec)
    return out


def test_fiber_outputs_match_the_golden_hash():
    blob = json.dumps(_fiber_outputs(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GRAPHS_SHA256
