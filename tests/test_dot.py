"""DOT export: node and edge counts match the manifold enumeration."""

import re

from monores import (
    ExponentVector,
    LocalStandardization,
    Star,
    blow_up,
    export_dot_star,
    extend,
    make_corner,
)


def uniform_family(m):
    base = m.corner_ids()[0]
    ones = ExponentVector(dict.fromkeys(m.corner(base).index_set, 1))
    return extend(m, LocalStandardization(base, ones))


def count(text, token):
    return text.count(token)


NODE_MARK = "\\n{"  # node labels carry the index set on a second line


def test_corner_is_a_single_node():
    text = export_dot_star(Star(make_corner(["E1", "E2"])))
    assert count(text, NODE_MARK) == 1
    assert " -- " not in text


def test_one_step_star_has_two_nodes_one_edge():
    m = make_corner(["E1", "E2"])
    step = blow_up(m, frozenset({"E1", "E2"}), uniform_family(m))
    star = Star(m, (step,))
    text = export_dot_star(star)
    assert count(text, "subgraph cluster_") == 2
    cluster = text.split("cluster_1")[1]
    assert count(cluster, NODE_MARK) == 2
    assert count(cluster, " -- ") == 1
    assert 'label="E∞1"' in cluster


def test_two_step_dim3_counts_match_enumeration():
    m0 = make_corner(["E1", "E2", "E3"])
    s1 = blow_up(m0, frozenset({"E1", "E2"}), uniform_family(m0))
    s2 = blow_up(s1.after, frozenset({"E3", "E∞1"}), uniform_family(s1.after))
    star = Star(m0, (s1, s2))
    text = export_dot_star(star)
    final_cluster = text.split("cluster_2")[1]
    assert count(final_cluster, NODE_MARK) == len(s2.after.corners) == 4
    assert count(final_cluster, " -- ") == len(s2.after.edges) == 4
    end = export_dot_star(Star(s2.after))
    assert count(end, NODE_MARK) == 4
    assert count(end, " -- ") == 4


QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


def test_quotes_and_backslashes_in_labels_are_escaped():
    m = make_corner(['a"b', "c\\d"])
    step = blow_up(m, frozenset(m.components), uniform_family(m))
    # blow-up ids escape the backslash once more: the child is c0.c\\d
    tower, end = Star(m, (step,)), Star(step.after)
    for text, prefix in ((export_dot_star(tower), "1:"), (export_dot_star(end), "0:")):
        # every quote and backslash sits inside a well-formed quoted string
        rest = QUOTED.sub("", text)
        assert '"' not in rest and "\\" not in rest
        strings = {re.sub(r"\\(.)", r"\1", q) for q in QUOTED.findall(text)}
        assert {prefix + 'c0.a"b', prefix + "c0.c\\\\d"} <= strings
