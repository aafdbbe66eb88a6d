"""Named example graphs used by the test suite and the CLI docs."""

from .graphs import Graph, glue_cliques


def bridged_cliques(m=7):
    """Two K_m joined by a single bridge edge."""
    edges = set()
    for block in (range(m), range(m, 2 * m)):
        vs = list(block)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                edges.add(frozenset({u, v}))
    edges.add(frozenset({m - 1, m}))
    return Graph(2 * m, edges)


def satellite_cliques(m=6, branches=3):
    """A central K_m with `branches` satellite K_m, each attached through two
    connector vertices of degree two.

    Central clique on 0..m-1; branch i contributes connectors a_i, b_i and a
    satellite clique, with a_i joining vertex 2i to the first satellite
    vertex and b_i joining 2i+1 to the second.  The connector regions are
    parts too small to host a tangle.
    """
    if 2 * branches > m:
        raise ValueError("%d branches need m >= %d" % (branches, 2 * branches))
    edges = set()
    for i in range(m):
        for j in range(i + 1, m):
            edges.add(frozenset({i, j}))
    n = m
    for i in range(branches):
        a, b = n, n + 1
        sat = list(range(n + 2, n + 2 + m))
        n += 2 + m
        for x, y in ((2 * i, a), (a, sat[0]), (2 * i + 1, b), (b, sat[1])):
            edges.add(frozenset({x, y}))
        for p in range(m):
            for q in range(p + 1, m):
                edges.add(frozenset({sat[p], sat[q]}))
    return Graph(n, edges)


def shared_pair_cliques(m=6, branches=3):
    """A central K_m with satellites glued along vertex pairs; every part of
    the canonical decomposition is already tight."""
    if 2 * branches > m:
        raise ValueError("%d branches need m >= %d" % (branches, 2 * branches))
    blocks = [list(range(m))]
    n = m
    for i in range(branches):
        blocks.append([2 * i, 2 * i + 1] + list(range(n, n + m - 2)))
        n += m - 2
    return glue_cliques(blocks)


def five_cliques_with_hub():
    """Five face cliques on a planar frame plus a clique on the eight hub
    vertices of the frame's left half, sized for k = 10.

    The hub clique supports a tangle sharing the unique minimal-interior
    star with the tangle of the right face, so no star exclusive to the
    right-face tangle can reach the minimal interior.  The frame widths are
    the smallest that keep both tangles alive at k = 10: each face boundary
    has eight vertices, every face separation has order eight or nine, and
    the separator around the right face has order eleven so that no member
    of the right tangle carves it off.

    Returns (graph, face and hub cliques in order, k, right clique, hub).
    """
    l, p, mm, q1, q2, c, u, d = range(8)           # hub ring
    t, t1, t2 = 8, 9, 10                           # top-left boundary arc
    b, b1, b2 = 11, 12, 13                         # bottom-left boundary arc
    ur, r1, r2, r3 = 14, 15, 16, 17                # upper-right boundary arc
    dr, s1, s2, s3 = 18, 19, 20, 21                # lower-right boundary arc
    n = 22

    def extras(count):
        nonlocal n
        out = list(range(n, n + count))
        n += count
        return out

    cliques = [
        [u, c, d, ur, dr, r1, r2, r3, s1, s2, s3] + extras(1),   # right face, K_12
        [u, t1, t2, t, ur, r1, r2, r3] + extras(2),              # top face, K_10
        [d, b1, b2, b, dr, s1, s2, s3] + extras(2),              # bottom face, K_10
        [l, p, mm, q1, u, t1, t2, t] + extras(2),                # upper-left face, K_10
        [l, p, mm, q2, d, b1, b2, b] + extras(2),                # lower-left face, K_10
        [l, p, mm, q1, q2, c, u, d],                             # hub, K_8
    ]
    blocks = [frozenset(C) for C in cliques]
    return glue_cliques(cliques), blocks, 10, blocks[0], blocks[5]
