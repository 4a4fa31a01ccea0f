"""Baselines: exhaustive optimal matching (tiny instances) and Zhang-Shasha
tree edit distance with a matching extracted from the optimal edit script.

The edit-distance matcher preserves ancestry and sibling order by
construction, which is exactly the restriction the similarity matcher is
free of; it serves as the classical quality/time reference. It is a direct
dynamic-programming implementation, quadratic tables and all, so expect
minutes on trees beyond a few thousand nodes. Insert, delete and relabel
all cost 1.0 (unit costs); relabel compares (tag, attributes) for equality.

One kernel, ``_ZsRun._fill``, writes the forest-distance table of a subtree
pair into one buffer. The distance pass runs it for every keyroot pair; the
backtrace reruns it for each pair it descends into and reads that buffer. A
rerun writes the same top-left region with the same float operations, so
it reproduces the table and the tree distances of the distance pass.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import MatchGraph, Matching
from .similarity import SftmParams
from .tree import LabeledTree


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-search guard."""


_BRUTE_FORCE_LIMIT = 16
_TIE_TOL = 1e-12


def brute_force_optimal(g: MatchGraph, params: SftmParams) -> Matching:
    """Exhaustively enumerate full matchings built from the graph's edges.

    Returns the minimum-cost one; exact cost ties are broken by the
    lexicographically smallest pair list. Guarded to tiny instances.
    """
    total_nodes = g.t1_size + g.t2_size
    if total_nodes > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{total_nodes} nodes exceeds the limit of {_BRUTE_FORCE_LIMIT}")

    w = params.no_match_cost
    # candidate edges per t1 node as (cost, m), cheapest first
    adjacency = g.t1_adjacency
    options: list[list[tuple[float, int]]] = [
        sorted((g.edge_cost[i], g.edge_m[i]) for i in adjacency[n])
        for n in range(g.t1_size)
    ]
    # delta of a pair relative to leaving both ends unmatched
    node_best = [min([c - 2.0 * w for c, _ in opts] + [0.0]) for opts in options]
    suffix_bound = [0.0] * (g.t1_size + 1)
    for n in range(g.t1_size - 1, -1, -1):
        suffix_bound[n] = suffix_bound[n + 1] + node_best[n]

    best_delta = 0.0  # all-unmatched is always feasible
    best_pairs: list[tuple[int, int, float]] = []
    chosen: list[tuple[int, int, float]] = []

    def search(n: int, used_t2: int, delta: float) -> None:
        nonlocal best_delta, best_pairs
        if delta + suffix_bound[n] > best_delta + _TIE_TOL:
            return
        if n == g.t1_size:
            if delta < best_delta - _TIE_TOL:
                best_delta = delta
                best_pairs = list(chosen)
            elif delta <= best_delta + _TIE_TOL:
                cand = [(a, b) for a, b, _ in chosen]
                cur = [(a, b) for a, b, _ in best_pairs]
                if cand < cur:
                    best_delta = min(best_delta, delta)
                    best_pairs = list(chosen)
            return
        search(n + 1, used_t2, delta)  # leave n unmatched
        for cost, m in options[n]:
            bit = 1 << m
            if used_t2 & bit:
                continue
            chosen.append((n, m, cost))
            search(n + 1, used_t2 | bit, delta + cost - 2.0 * w)
            chosen.pop()

    search(0, 0, 0.0)

    pairs = tuple((n, m) for n, m, _ in best_pairs)
    costs = tuple(c for _, _, c in best_pairs)
    return Matching(pairs, costs, g.t1_size, g.t2_size)


# ---------------------------------------------------------------------------
# Zhang-Shasha tree edit distance

# cost of one insert, delete or relabel
_EDIT_COST = 1.0


def _postorder_structure(tree: LabeledTree) -> tuple[list[int], list[int], list[int]]:
    """Postorder node ids, leftmost-leaf-descendant indices, and keyroots.

    ``lmd`` is expressed in postorder positions. Keyroots are the positions
    with a distinct leftmost descendant, ascending; the root is always last.
    """
    # right-to-left pre-order, reversed, is left-to-right postorder
    order: list[int] = []
    stack = [tree.root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(tree.node(node_id).children)
    order.reverse()
    pos_of = [0] * len(order)
    lmd_by_pos: list[int] = []
    for pos, node_id in enumerate(order):
        pos_of[node_id] = pos
        children = tree.node(node_id).children
        lmd_by_pos.append(lmd_by_pos[pos_of[children[0]]] if children else pos)
    last_for_lmd: dict[int, int] = {}
    for pos, lmd in enumerate(lmd_by_pos):
        last_for_lmd[lmd] = pos
    return order, lmd_by_pos, sorted(last_for_lmd.values())


def _label_lists(
    t1: LabeledTree, order1: list[int], t2: LabeledTree, order2: list[int]
) -> tuple[list[int], list[int]]:
    interned: dict[tuple, int] = {}

    def build(tree: LabeledTree, order: list[int]) -> list[int]:
        out = []
        for node_id in order:
            node = tree.node(node_id)
            key = (node.tag, node.attributes)
            out.append(interned.setdefault(key, len(interned)))
        return out

    return build(t1, order1), build(t2, order2)


class _ZsRun:
    """One distance computation with everything the backtrace needs."""

    def __init__(self, t1: LabeledTree, t2: LabeledTree):
        self.order1, self.lmd1, self.kr1 = _postorder_structure(t1)
        self.order2, self.lmd2, self.kr2 = _postorder_structure(t2)
        self.lab1, self.lab2 = _label_lists(t1, self.order1, t2, self.order2)
        n1, n2 = len(self.lab1), len(self.lab2)
        self.td = [[0.0] * n2 for _ in range(n1)]
        # one reusable forest-distance buffer; each subtree pair only touches
        # its own top-left region before reading it
        self.fd = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]
        for i in self.kr1:
            self._fill(i, self.kr2)

    def _fill(self, i: int, js: Iterable[int]) -> None:
        """Forest distances of subtree ``i`` against each subtree in ``js``.

        Writes the tree distances of the pairs on both leftmost paths into
        ``td``; the table of the last pair stays in ``fd``.
        """
        lmd1, lmd2 = self.lmd1, self.lmd2
        lab1, lab2 = self.lab1, self.lab2
        cost = _EDIT_COST
        td, fd = self.td, self.fd
        li = lmd1[i]
        m = i - li + 2
        ioff = li - 1
        for j in js:
            lj = lmd2[j]
            n = j - lj + 2
            joff = lj - 1
            row0 = fd[0]
            row0[0] = 0.0
            for y in range(1, n):
                row0[y] = row0[y - 1] + cost
            prev = row0
            for x in range(1, m):
                xi = x + ioff
                cur = fd[x]
                cur[0] = prev[0] + cost
                lx = lmd1[xi]
                tdx = td[xi]
                labx = lab1[xi]
                if lx == li:
                    for y in range(1, n):
                        yj = y + joff
                        best = prev[y] + cost
                        left = cur[y - 1] + cost
                        if left < best:
                            best = left
                        if lmd2[yj] == lj:
                            diag = prev[y - 1] + (0.0 if labx == lab2[yj] else cost)
                            if diag < best:
                                best = diag
                            cur[y] = best
                            tdx[yj] = best
                        else:
                            sub = fd[lx - 1 - ioff][lmd2[yj] - 1 - joff] + tdx[yj]
                            if sub < best:
                                best = sub
                            cur[y] = best
                else:
                    p_row = fd[lx - 1 - ioff]
                    for y in range(1, n):
                        yj = y + joff
                        best = prev[y] + cost
                        left = cur[y - 1] + cost
                        if left < best:
                            best = left
                        sub = p_row[lmd2[yj] - 1 - joff] + tdx[yj]
                        if sub < best:
                            best = sub
                        cur[y] = best
                prev = cur

    @property
    def distance(self) -> float:
        return self.td[-1][-1]

    def mapping(self) -> list[tuple[int, int]]:
        """Matched (postorder1, postorder2) positions of one optimal script."""
        pairs: list[tuple[int, int]] = []
        stack = [(len(self.order1) - 1, len(self.order2) - 1)]
        while stack:
            self._extract(*stack.pop(), pairs, stack)
        return pairs

    def _extract(
        self,
        i: int,
        j: int,
        out: list[tuple[int, int]],
        stack: list[tuple[int, int]],
    ) -> None:
        self._fill(i, (j,))
        fd = self.fd
        lmd1, lmd2 = self.lmd1, self.lmd2
        li = lmd1[i]
        lj = lmd2[j]
        ioff = li - 1
        joff = lj - 1
        x = i - ioff
        y = j - joff
        # walk the table backwards, preferring the matching branch on ties
        while x > 0 and y > 0:
            xi = x + ioff
            yj = y + joff
            cur = fd[x][y]
            if lmd1[xi] == li and lmd2[yj] == lj:
                rel = 0.0 if self.lab1[xi] == self.lab2[yj] else _EDIT_COST
                if cur == fd[x - 1][y - 1] + rel:
                    out.append((xi, yj))
                    x -= 1
                    y -= 1
                elif cur == fd[x - 1][y] + _EDIT_COST:
                    x -= 1
                else:
                    y -= 1
            else:
                p = lmd1[xi] - 1 - ioff
                q = lmd2[yj] - 1 - joff
                if cur == fd[p][q] + self.td[xi][yj]:
                    stack.append((xi, yj))
                    x = p
                    y = q
                elif cur == fd[x - 1][y] + _EDIT_COST:
                    x -= 1
                else:
                    y -= 1


def ted_distance(t1: LabeledTree, t2: LabeledTree) -> float:
    """Zhang-Shasha edit distance between two ordered labeled trees."""
    return _ZsRun(t1, t2).distance


def ted_match(t1: LabeledTree, t2: LabeledTree) -> Matching:
    """Matching induced by one optimal edit script.

    Matched pairs carry their relabel contribution as the pair cost. The
    result respects the edit-distance restrictions: ancestry and sibling
    order are preserved.
    """
    run = _ZsRun(t1, t2)
    # (t1 id, t2 id, relabel cost) of each mapped pair, in id order
    mapped = sorted(
        (run.order1[x], run.order2[y], 0.0 if run.lab1[x] == run.lab2[y] else _EDIT_COST)
        for x, y in run.mapping()
    )
    return Matching(
        tuple((n, m) for n, m, _ in mapped), tuple(c for _, _, c in mapped), len(t1), len(t2)
    )
