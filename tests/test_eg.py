"""Execution Graph structure tests (paper Definition 4 bookkeeping)."""
from repro.core.eg import EG
from repro.core.rules import parse_program


def _prog():
    return parse_program(
        "a(X) -> B(X)\nB(X) -> C(X)\nC(X), B(X) -> D(X)"
    )


def test_add_root_depth_zero():
    g = EG()
    n = g.add(_prog().rules[0], {})
    assert n.depth == 0 and g.sizes() == (1, 0, 0)


def test_add_child_depth():
    p = _prog()
    g = EG()
    n0 = g.add(p.rules[0], {})
    n1 = g.add(p.rules[1], {0: [n0]})
    assert n1.depth == 1 and g.graph_depth == 1


def test_edge_count_sums_groups():
    p = _prog()
    g = EG()
    n0 = g.add(p.rules[0], {})
    n1 = g.add(p.rules[1], {0: [n0]})
    n2 = g.add(p.rules[2], {0: [n1], 1: [n0, n1]})
    assert g.n_edges == 1 + 3


def test_ancestors():
    p = _prog()
    g = EG()
    n0 = g.add(p.rules[0], {})
    n1 = g.add(p.rules[1], {0: [n0]})
    n2 = g.add(p.rules[2], {0: [n1], 1: [n0]})
    assert n2.ancestors() == {n0, n1}
    assert n0.ancestors() == set()


def test_recompute_depths_after_redirect():
    p = _prog()
    g = EG()
    n0 = g.add(p.rules[0], {})
    n1 = g.add(p.rules[1], {0: [n0]})
    n2 = g.add(p.rules[1], {0: [n1]})
    # redirect n2 to read from the root and drop n1
    n2.parents[0] = [n0]
    g.remove(n1)
    g.recompute_depths()
    assert n2.depth == 1 and g.sizes() == (2, 1, 1)


def test_nodes_unique_ids_and_hash():
    p = _prog()
    g = EG()
    a = g.add(p.rules[0], {})
    b = g.add(p.rules[0], {})
    assert a != b and len({a, b}) == 2


def test_nodes_of_two_graphs_differ():
    """Nodes compare by identity: equal ids in two graphs are two nodes."""
    rule = _prog().rules[0]
    a, b = EG().add(rule), EG().add(rule)
    assert a.nid == b.nid and a != b and len({a, b}) == 2


def test_empty_graph_sizes():
    assert EG().sizes() == (0, 0, 0)


def test_depth_uses_longest_path():
    p = _prog()
    g = EG()
    n0 = g.add(p.rules[0], {})
    n1 = g.add(p.rules[1], {0: [n0]})
    # node fed by both a root and a depth-1 node is at depth 2
    n2 = g.add(p.rules[2], {0: [n0], 1: [n1]})
    assert n2.depth == 2
