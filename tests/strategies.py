"""Hypothesis strategies shared across the test modules, and seeded LP values
for the separation oracles.

Graphs are always connected (spanning tree plus extras) so connectivity
questions have interesting answers; parallel edges are deliberately common.
"""

from fractions import Fraction

from hypothesis import strategies as st

from flexconn import MultiGraph

costs = st.builds(
    Fraction, st.integers(1, 9), st.sampled_from([1, 1, 2, 4])
)


@st.composite
def multigraphs(draw, max_nodes=6, max_extra=4, min_nodes=2):
    n = draw(st.integers(min_nodes, max_nodes))
    rows = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        rows.append((u, v, draw(costs), draw(st.booleans())))
    for _ in range(draw(st.integers(0, max_extra))):
        u = draw(st.integers(0, n - 1))
        v = (u + 1 + draw(st.integers(0, n - 2))) % n
        rows.append((u, v, draw(costs), draw(st.booleans())))
    return MultiGraph.build(n, rows)


@st.composite
def edge_subsets(draw, graph):
    return frozenset(
        eid for eid in graph.edge_ids if draw(st.booleans())
    )


@st.composite
def node_pairs(draw, n):
    i = draw(st.integers(0, n - 1))
    j = (i + 1 + draw(st.integers(0, n - 2))) % n
    return (min(i, j), max(i, j))


def cut_lp_values(rng, style, ids):
    """Edge values in one of the styles the cut LP hands to its oracle."""
    if style == "float":
        # the float stage: x = 1 - y of a float vertex, clipped to [0, 1],
        # as the `Fraction` equal to each float the cut LP hands over
        ys = [rng.choice([0.0, 1.0, rng.random(), rng.random() ** 8]) for _ in ids]
        return {e: Fraction(min(1.0, max(0.0, 1.0 - y))) for e, y in zip(ids, ys)}
    if style == "rational":
        return {
            e: min(Fraction(1), Fraction(rng.randint(0, 6), rng.choice([2, 3, 5, 7])))
            for e in ids
        }
    if style == "binary":
        return {e: Fraction(rng.randint(0, 1)) for e in ids}
    value = Fraction(1, rng.choice([2, 3, 4]))  # "tie": one value everywhere
    return {e: value for e in ids}
