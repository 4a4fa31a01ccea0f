"""Baseline: Zhang-Shasha tree edit distance with a matching extracted from
the optimal edit script.

The edit-distance matcher preserves ancestry and sibling order by
construction, which is exactly the restriction the similarity matcher is
free of; it serves as the classical quality/time reference. It is a direct
dynamic-programming implementation, quadratic tables and all, so expect
minutes on trees beyond a few thousand nodes. Insert, delete and relabel
all cost 1 (unit costs); relabel compares (tag, attributes) for equality.
Every table cell is thus an int no larger than n1 + n2; only the distance
and the pair costs the API returns are floats.

One kernel, ``_ZsRun._fill``, writes the forest-distance table of a subtree
pair into one buffer, one row at a time. In a row off the first subtree's
leftmost path every cell adds a tree distance to the forest before both
subtrees, so that row runs a loop with no path test; a row on the path also
takes the diagonal, and writes the tree distance, in the columns on the
second subtree's leftmost path. Each column's offset to the forest before
its subtree is listed once per second subtree (0 exactly on its path), and
both loops carry the left neighbour in a local. The distance pass runs the
kernel for every pair of keyroots of three or more nodes. The backtrace
reads the buffer: it starts from the root pair's table when the pass left
it there. Every other pair ``(i, j)`` it descends into has a known
distance ``D = td[i][j]``, so the kernel refills only that table's band,
the cells with ``|x - y| + |(X - x) - (Y - y)| <= D`` for subtree sizes
``X`` and ``Y`` (Ukkonen's cut-off for string edit distance), and reads
``td`` without writing it. Unit costs give ``fd[x][y] >= |x - y|``, and
the cost still to go from ``(x, y)`` is at least the size difference left,
so every cell on an optimal path lies in the band and gets its exact value.
Every cell outside it reads as at least its true value, so each comparison
of the walk back gives the result a full table gives.

Over every keyroot pair the kernel would fill S1 x S2 forest cells, where
S is the summed size of a tree's keyroot subtrees. Zhang and Shasha
decompose along leftmost paths; the same kernel run on both trees mirrored
(every child list reversed) decomposes along rightmost paths instead,
which on each bundled corpus page fills 46-64% of the left-to-right count.
Both decompositions are read off the node ids and subtree sizes alone.
The pass runs in whichever direction fills fewer (left to right on a tie);
a mirrored tree-distance table is then reordered into left-to-right
postorder. Mirroring both trees leaves every subtree distance the same, so
the table, the distance and the backtrace, which always runs left to
right, do not depend on the direction.

Most keyroots are leaves, and a keyroot pair with a leaf writes only
distances from a subtree T to a single node. Under unit costs that
distance is ``|T| - 1`` when some node of T carries the node's label and
``|T|`` otherwise: an edit script keeps at most one node of T, so it makes
at least ``|T| - 1`` deletions, plus nothing for keeping a node with the
same label, or one relabel or insert. The pass writes those cells in
closed form, with one forward pass over postorder per distinct leaf label.

Many inner keyroots are a node over one leaf child. A pair with such a
keyroot writes the leaf child's distances to one node, above, and the
distances from T to a two-node tree, ``top`` over ``bottom``. An edit script
maps a chain onto nodes of T that form a chain, so it keeps at most one
ancestor-descendant pair of T, and keeping a single node already costs at
least ``|T|``. So for ``|T| >= 2`` the distance is ``|T| - 2 + c``, where
``c = 0`` when a top-labelled node of T has a bottom-labelled proper
descendant (keep both), else ``c = 1`` when T has a top-labelled inner node
or a bottom-labelled node below its root (keep that one and an ancestor or
descendant, and relabel the other), else ``c = 2``. A one-node T is 1 away,
plus one relabel unless its label is ``top`` or ``bottom``. The pass writes
those cells in closed form too, with one forward pass over postorder per
distinct ``(top, bottom)`` pair. It then runs the kernel on the pairs of
keyroots of three or more nodes in the same ascending order, so every cell
a pair reads is already written. On each corpus page against itself that
leaves 4-5% of the keyroot pairs and 68-77% of the forest cells.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .graph import Matching
from .tree import LabeledTree, label_ids, subtree_sizes


class _Structure(NamedTuple):
    """One path decomposition of a tree, in its postorder positions."""

    order: list[int]  # node id at each postorder position
    lmd: list[int]  # position of each position's leftmost leaf descendant
    keyroots: list[int]  # positions with a distinct leftmost leaf, ascending

    @property
    def span(self) -> int:
        """Summed size of the keyroot subtrees."""
        lmd = self.lmd
        return sum(k - lmd[k] + 1 for k in self.keyroots)


def _postorder_structure(tree: LabeledTree) -> tuple[_Structure, _Structure]:
    """Left-to-right and mirrored structure of ``tree``, from ids and sizes.

    Mirrored (every child list reversed) postorder is pre-order reversed, so
    node ``v`` sits at ``n - 1 - v``; left to right, after its descendants and
    the earlier non-ancestors, at ``v + size - 1 - depth``. A subtree ends at
    its root, so position ``p``'s leftmost leaf is ``p - size + 1``. A node is
    a keyroot unless it is its parent's first child (left to right) or last
    child (mirrored); the root is always the last position and keyroot.
    """
    size = subtree_sizes(tree)
    n = len(size)
    depth = [0] * n
    order = [0] * n  # node 0, the root, is last
    not_first = [True] * n  # keyroots left to right
    not_last = [True] * n  # keyroots mirrored
    for v, parent in enumerate(tree.parents[1:], start=1):
        depth[v] = d = depth[parent] + 1
        order[v + size[v] - 1 - d] = v
        not_first[v] = v != parent + 1
        not_last[v] = v + size[v] != parent + size[parent]

    def structure(order: list[int], keyroot: list[bool]) -> _Structure:
        lmd = [p - size[v] + 1 for p, v in enumerate(order)]
        return _Structure(order, lmd, [p for p, v in enumerate(order) if keyroot[v]])

    return structure(order, not_first), structure(list(range(n - 1, -1, -1)), not_last)


def _small_subtrees(
    keyroots: list[int], lmd: list[int], lab: list[int]
) -> dict[tuple[int, ...], list[int]]:
    """The positions whose ``td`` lines are written in closed form, by labels.

    A leaf keyroot and the leaf child ``k - 1`` of a two-node keyroot ``k``
    go under ``(label,)``; a two-node keyroot goes under ``(top, bottom)``.
    """
    out: dict[tuple[int, ...], list[int]] = {}
    for k in keyroots:
        if lmd[k] == k:
            out.setdefault((lab[k],), []).append(k)
        elif lmd[k] == k - 1:
            out.setdefault((lab[k - 1],), []).append(k - 1)
            out.setdefault((lab[k], lab[k - 1]), []).append(k)
    return out


def _to_one_node(lab: list[int], lmd: list[int], label: int) -> list[int]:
    """Unit-cost distance from each subtree to a single node labelled ``label``.

    Subtree ``x`` is the positions ``lmd[x]..x``; it holds the label when the
    label's last position up to ``x`` is at least ``lmd[x]``. Then one node is
    kept for free and the rest deleted, ``|T| - 1``; otherwise one more
    relabel, ``|T|``.
    """
    out = []
    last = -1
    for x, (lx, lab_x) in enumerate(zip(lmd, lab)):
        if lab_x == label:
            last = x
        out.append(x - lx + (last < lx))
    return out


def _to_two_nodes(lab: list[int], lmd: list[int], top: int, bottom: int) -> list[int]:
    """Unit-cost distance from each subtree to a ``top`` node over a ``bottom`` leaf.

    A one-node subtree is 1 away, plus one relabel unless its label is
    ``top`` or ``bottom``. A subtree of ``t >= 2`` nodes keeps at most one
    ancestor-descendant pair, so it is ``t - 2 + c`` away: ``c = 0`` when a
    ``top`` node has a ``bottom`` proper descendant, else ``c = 1`` when a
    ``top`` node is inner or a ``bottom`` node is not the subtree's root,
    else ``c = 2``. Each case is read off the last position up to ``x`` of
    such a node, as in :func:`_to_one_node`.
    """
    out = []
    last_bottom = last_top = last_pair = -1
    for x, (lx, lab_x) in enumerate(zip(lmd, lab)):
        if lx == x:
            out.append(2 - (lab_x == top or lab_x == bottom))
        else:
            if lab_x == top:
                last_top = x  # an inner top node
                if last_bottom >= lx:
                    last_pair = x  # with a bottom proper descendant
            out.append(x - lx - 1 + (last_pair < lx) + (last_top < lx and last_bottom < lx))
        if lab_x == bottom:
            last_bottom = x
    return out


def _to_small_tree(lab: list[int], lmd: list[int], labels: tuple[int, ...]) -> list[int]:
    """Distance from each subtree to the one- or two-node tree of ``labels``."""
    if len(labels) == 1:
        return _to_one_node(lab, lmd, *labels)
    return _to_two_nodes(lab, lmd, *labels)


def _reordered(td: list[list[int]], order1: list[int], order2: list[int]) -> list[list[int]]:
    """``td`` moved from mirrored postorder positions to the ``order`` ones.

    Node ids are pre-order and mirrored postorder is pre-order reversed, so
    node ``v`` of an ``n``-node tree sits at mirrored position ``n - 1 - v``.
    Each row of ``td`` is dropped once it is copied, so the two tables
    together never hold much more than one.
    """
    last1, last2 = len(order1) - 1, len(order2) - 1
    columns = [last2 - node_id for node_id in order2]
    out = []
    for node_id in order1:
        row = last1 - node_id
        out.append(list(map(td[row].__getitem__, columns)))
        td[row] = None  # type: ignore[call-overload]
    return out


class _ZsRun:
    """One distance computation with everything the backtrace needs.

    The distance pass runs left to right or mirrored, whichever fills fewer
    forest cells (``mirrored`` says which); either way ``td`` ends up in
    left-to-right postorder positions, as do ``order``, ``lmd`` and ``lab``,
    and the backtrace reads only those. The mirrored pass computes each tree
    distance on the mirrored subtrees, which is the same distance, so ``td``
    and the matching are those of the left-to-right pass.

    Every ``td`` cell of a keyroot pair with a leaf (its whole row when the
    leaf is in t1, its whole column when in t2) is a distance to one node.
    A keyroot of two nodes, a node over its leaf child, has a row (or
    column) of distances to a two-node tree and its child's row of
    distances to one node. All of these are written in closed form before
    ``_fill`` runs on the pairs of keyroots of three or more nodes; the table
    equals the one ``_fill`` writes over every keyroot pair.
    """

    def __init__(self, t1: LabeledTree, t2: LabeledTree):
        left1, right1 = _postorder_structure(t1)
        left2, right2 = _postorder_structure(t2)
        ids1, ids2, _ = label_ids(t1, t2)
        n1, n2 = len(ids1), len(ids2)
        self.mirrored = right1.span * right2.span < left1.span * left2.span
        pass1, pass2 = (right1, right2) if self.mirrored else (left1, left2)
        self._orient(pass1, pass2, ids1, ids2)
        self.td = td = [[0] * n2 for _ in range(n1)]
        # one reusable forest-distance buffer; each subtree pair only touches
        # its own top-left region before reading it
        self.fd = [[0] * (n2 + 1) for _ in range(n1 + 1)]
        # a pair with a keyroot of one or two nodes writes only distances to
        # a tree that small: write them in closed form, the rows of t1's
        # first, then the columns of t2's
        for labels, rows in _small_subtrees(self.kr1, self.lmd1, self.lab1).items():
            dist = _to_small_tree(self.lab2, self.lmd2, labels)
            for i in rows:
                td[i][:] = dist
        for labels, columns in _small_subtrees(self.kr2, self.lmd2, self.lab2).items():
            dist = _to_small_tree(self.lab1, self.lmd1, labels)
            for row, d in zip(td, dist):
                for j in columns:
                    row[j] = d
        # the subtree pair whose forest table ``fd`` holds, if any
        self._held: tuple[int, int] | None = None
        big2 = [j for j in self.kr2 if self.lmd2[j] < j - 1]
        for i in self.kr1:
            if self.lmd1[i] < i - 1:
                self._fill(i, big2)
        if self.mirrored:
            self._orient(left1, left2, ids1, ids2)
            self.td = _reordered(self.td, left1.order, left2.order)
            self._held = None  # a pair of mirrored positions

    def _orient(
        self, s1: _Structure, s2: _Structure, ids1: list[int], ids2: list[int]
    ) -> None:
        """Index the run's per-position lists by the postorders of ``s1``, ``s2``."""
        self.order1, self.lmd1, self.kr1 = s1
        self.order2, self.lmd2, self.kr2 = s2
        self.lab1 = [ids1[node_id] for node_id in s1.order]
        self.lab2 = [ids2[node_id] for node_id in s2.order]
        # each second subtree's column offsets, ``qs`` in ``_fill``
        self._offsets: dict[int, list[int]] = {}

    def _fill(self, i: int, js: Iterable[int], rows: list[tuple] | None = None) -> None:
        """Forest distances of subtree ``i`` against each subtree in ``js``.

        Writes the tree distances of the pairs on both leftmost paths into
        ``td``. Every row is written in place, so the table of the last pair
        stays in ``fd`` (``_held`` names it) for the backtrace to read.
        ``qs[y]`` is column ``y``'s offset to the column before its subtree,
        0 exactly on ``j``'s leftmost path. A row off ``i``'s path adds a
        tree distance to the forest before both subtrees in every cell; a row
        on it takes the diagonal and writes ``td`` where ``qs[y]`` is 0.

        ``rows`` given (``_band``'s, for the one pair in ``js``) cuts each
        row to a column window and writes nothing to ``td``: every row then
        runs the loop with no path test, which on both paths adds ``td`` to
        ``fd[0][0]``, the same tree distance.
        """
        lmd1, lmd2 = self.lmd1, self.lmd2
        lab1, lab2 = self.lab1, self.lab2
        td, fd, offsets = self.td, self.fd, self._offsets
        li = lmd1[i]
        if rows is None:
            # each row's position, subtree, whether it is on the leftmost
            # path, the row before its subtree (row 0 on the path), and the
            # window of the loop with no path test: its first column, the
            # columns it cuts off the end, and the cell left of its first one
            rows = [
                (x, xi, lmd1[xi] == li, lmd1[xi] - li, 1, 0, x)
                for x, xi in enumerate(range(li, i + 1), start=1)
            ]
        for j in js:
            lj = lmd2[j]
            n = j - lj + 2
            joff = lj - 1
            qs = offsets.get(j)
            if qs is None:
                offsets[j] = qs = [0, *(lmd2[yj] - lj for yj in range(lj, j + 1))]
            fd[0][:n] = range(n)
            prev = fd[0]
            for x, xi, on_path, p, lo, cut, left in rows:
                cur = fd[x]
                cur[0] = x
                p_row = fd[p]
                tdx = td[xi]
                if on_path:
                    labx = lab1[xi]
                    for y in range(1, n):
                        best = prev[y]
                        if left < best:
                            best = left
                        best += 1
                        q = qs[y]
                        if q:
                            sub = p_row[q] + tdx[y + joff]
                            if sub < best:
                                best = sub
                        else:
                            yj = y + joff
                            diag = prev[y - 1] + (labx != lab2[yj])
                            if diag < best:
                                best = diag
                            tdx[yj] = best
                        cur[y] = left = best
                else:
                    for y in range(lo, n - cut):
                        best = prev[y]
                        if left < best:
                            best = left
                        best += 1
                        sub = p_row[qs[y]] + tdx[y + joff]
                        if sub < best:
                            best = sub
                        cur[y] = left = best
                prev = cur
            self._held = i, j

    def _band(self, i: int, j: int) -> list[tuple]:
        """``_fill``'s rows for pair ``(i, j)``, cut to the band of ``td[i][j]``.

        With ``X`` rows, ``Y`` columns, ``Δ = X - Y`` and ``D = td[i][j]``,
        the band is the cells with ``|x - y| + |(X - x) - (Y - y)| <= D``: row
        ``x`` keeps columns ``x - (Δ + D) // 2`` to ``x + (D - Δ) // 2``, at
        most ``D + 1`` of them. Each row of ``fd`` is reset over ``[0, Y]`` to
        ``X + Y + 1``, above every forest distance of the pair, so a cell
        outside the band reads as at least its true value.
        """
        fd, lmd1 = self.fd, self.lmd1
        li = lmd1[i]
        size1, size2 = i - li + 1, j - self.lmd2[j] + 1
        d = self.td[i][j]
        wide = size1 + size2 + 1
        reset = [wide] * (size2 + 1)
        below = (size1 - size2 + d) // 2  # columns kept left of the diagonal
        above = (d - size1 + size2) // 2  # and right of it
        out = []
        for x, xi in enumerate(range(li, i + 1), start=1):
            fd[x][: size2 + 1] = reset
            lo = x - below
            cut = max(size2 - x - above, 0)
            out.append((x, xi, False, lmd1[xi] - li, max(lo, 1), cut, wide if lo > 1 else x))
        return out

    @property
    def distance(self) -> float:
        return float(self.td[-1][-1])

    def mapping(self) -> list[tuple[int, int]]:
        """Matched (postorder1, postorder2) positions of one optimal script.

        A left-to-right pass over trees of three nodes or more ends on the
        root pair, so the backtrace starts from the table that pass left in
        ``fd``. Every other pair ``(i, j)`` it descends into is refilled only
        in the band its known distance ``D = td[i][j]`` allows (``_band``),
        and ``td`` is only read. Unit costs give ``fd[x][y] >= |x - y|``, and the
        cost still to go from ``(x, y)`` is at least the size difference
        left, so every cell on an optimal path lies in the band and gets its
        exact value; every cell outside it reads as at least its true value.
        So each comparison the walk back makes gives the result a full table
        gives.
        """
        pairs: list[tuple[int, int]] = []
        stack = [(len(self.order1) - 1, len(self.order2) - 1)]
        while stack:
            i, j = stack.pop()
            if (i, j) != self._held:
                self._fill(i, (j,), self._band(i, j))
            self._extract(i, j, pairs, stack)
        return pairs

    def _extract(
        self,
        i: int,
        j: int,
        out: list[tuple[int, int]],
        stack: list[tuple[int, int]],
    ) -> None:
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
                if cur == fd[x - 1][y - 1] + (self.lab1[xi] != self.lab2[yj]):
                    out.append((xi, yj))
                    x -= 1
                    y -= 1
                elif cur == fd[x - 1][y] + 1:
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
                elif cur == fd[x - 1][y] + 1:
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
        (run.order1[x], run.order2[y], float(run.lab1[x] != run.lab2[y]))
        for x, y in run.mapping()
    )
    return Matching(
        tuple((n, m) for n, m, _ in mapped), tuple(c for _, _, c in mapped), len(t1), len(t2)
    )
