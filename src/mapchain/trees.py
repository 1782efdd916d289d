"""Random spanning trees and balanced tree cuts.

This is the computational kernel shared by the recombination chain and the
ab-initio tree plan generator: draw a spanning tree over a node subset, then
look for a tree edge whose removal splits the subset into two population-
balanced connected parts.

Two tree distributions are available. ``uniform`` draws a uniform spanning
tree by Wilson's loop-erased random walk; ``mst`` draws the minimum spanning
tree under i.i.d. random edge weights, by Kruskal over Python lists: not
uniform, and faster than Wilson's walk on a 100-node region but slower on a
2,304-node one.

A region's induced subgraph and its walk table are built in numpy from its
slices of the graph's one neighbour index (``PrecinctGraph.neighbors``). Its
connectivity is not checked up front: a disconnected subset raises
``DisconnectedSubset`` from the first draw that meets it (see ``_Induced``,
``_wilson`` and ``_random_mst``), so a connected one never pays for the
check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import length_hint

import numpy as np

from . import errors
from .graph import PrecinctGraph, Region, graph_components, window_bounds

TREE_METHODS = ("uniform", "mst")

_WORD = 1 << 32  # Generator.integers(n) for n < 2**32 draws uint32 words
_MASK = _WORD - 1

# Wilson's walk takes a step from a node of degree 2.._TABLE_DEGREE with one
# lookup. For each such degree d, numpy's pick ``(w * d) >> 32`` from a uint32
# word w is constant between the bounds ceil(j * 2**32 / d), so the union of
# these bounds cuts the words into intervals on each of which every degree's
# pick is fixed. A word that numpy redraws at degree d (the low half of w * d
# below 2**32 % d) is the first word of one of d's intervals; it gets a
# one-word interval of its own. The table stops at degree 4 because every
# benchmark workload is a rook grid, whose nodes have at most 4 neighbours:
# each further degree adds columns to every row built (7 intervals at 4, 29
# at 8) that those grids never read. Nodes of higher degree take the exact
# step.
#
# A chunk of words is classified with one gather from ``_BUCKETS``, the
# interval of each of the 65,536 buckets of words that share their top 16
# bits, and ``_STRADDLE`` for a bucket that holds the first word of an
# interval other than its own first word. At degree 4 three buckets straddle,
# those of words 1, 0x55555556 and 0xAAAAAAAB, so 3 words in 65,536 are
# classified by search. The table is uint8: 64 KiB.
_TABLE_DEGREE = 4
_STRADDLE = 255


def _word_intervals(top: int):
    """The sorted first words of the intervals for degrees 2..``top``, and the
    pick table: row d, for degrees 0..``top`` and ``top + 1`` standing for
    every higher degree, holds per interval the position among a node's
    neighbours that numpy picks at degree d from the interval's words, then
    one more column for the end of a chunk of words. It holds -1 where the
    walk must leave the table: in that last column, at a word numpy redraws,
    and in every column of degrees 0, 1 and above ``top``."""
    starts, redrawn = {0}, {}
    for d in range(2, top + 1):
        redrawn[d] = set()
        for j in range(d):
            w = -(-(j << 32) // d)
            starts.add(w)
            if w * d & _MASK < _WORD % d:
                redrawn[d].add(w)
                starts.add(w + 1)
    starts = sorted(starts)
    pick = np.full((top + 2, len(starts) + 1), -1, dtype=np.int64)
    for d in range(2, top + 1):
        pick[d, :-1] = [-1 if w in redrawn[d] else (w * d) >> 32 for w in starts]
    return np.array(starts, dtype=np.uint32), pick


def _bucket_codes(starts: list) -> np.ndarray:
    """Per bucket of 2**16 words (those with the same top 16 bits), the
    interval of all its words, or ``_STRADDLE`` where an interval starts
    inside it."""
    table = np.zeros(1 << 16, dtype=np.uint8)
    for c, w in enumerate(starts):
        table[w >> 16:] = c
    for w in starts:
        if w & 0xFFFF:
            table[w >> 16] = _STRADDLE
    return table


_STARTS, _PICK = _word_intervals(_TABLE_DEGREE)
_BOUNDS = _STARTS[1:]
_END = _STARTS.size  # the column of every row that follows each chunk of words
_BUCKETS = _bucket_codes(_STARTS.tolist())

# A draw that has used more than this many words per node checks that its
# region is connected. Draws on 100-node seed-plan strips of the 100 x 100
# grid use 36 words per node on average; 14% of them use more than 64 and 2%
# more than 128, and no draw on regions after 3,000 chain steps or on
# tree-plan regions used more than 90. A check (graph_components) on a 2 x 50
# strip costs about half as much as building the whole region: about 23 us
# against 45 us on a 2-vCPU Xeon VM. A lower bound would let a disconnected
# region raise DisconnectedSubset after fewer words, leaving the rng in
# another state.
_CHECK_WORDS = 128

# The bit generators whose uint32 words are the low, then the high half of
# each 64-bit output, with the high half held between calls (``has_uint32``),
# and whose ``advance`` counts 64-bit outputs.
_RAW_WORD_GENERATORS = ("PCG64", "PCG64DXSM")


def _word_codes(words: np.ndarray) -> bytearray:
    """The interval of each uint32 word, then ``_END``, one byte each: one
    gather from ``_BUCKETS`` by the words' top 16 bits, then a search for
    each word of a straddling bucket, written over its byte in place."""
    codes = bytearray(_BUCKETS.take(words.astype("<u4", copy=False).view("<u2")[1::2]))
    at = codes.find(_STRADDLE)
    while at >= 0:
        codes[at] = int(np.searchsorted(_BOUNDS, words[at], side="right"))
        at = codes.find(_STRADDLE, at + 1)
    codes.append(_END)
    return codes


def _not_connected(m: int) -> errors.DisconnectedSubset:
    return errors.DisconnectedSubset(f"subset of {m} nodes does not induce a connected subgraph")


class _Induced:
    """Induced subgraph on a node subset, with local 0..m-1 indexing, built
    from the subset's :class:`~mapchain.graph.Region`: its gathered slices of
    the graph's :class:`~mapchain.graph.NeighborIndex`, with each neighbour's
    local id (-1 outside the subset), so a build is O(region).

    ``nodes`` is the subset, ascending and without repeats, in an int64
    array of its own: a subset given otherwise is sorted first, a strictly
    increasing one only copied; a subset that is not integers (floats, or a
    boolean mask) raises ``ValueError``. A caller that has already gathered
    the subset passes its ``region`` (``NeighborIndex.gather``), whose nodes
    are then kept as they are.

    Local node i's neighbours are ``nbr[first[i]:first[i] + deg[i]]``, in
    ascending local order; ``pops[i]`` is its population. ``edge_a`` <
    ``edge_b`` are the local ends of the induced edges, in ascending graph
    edge order, so that the mst weights line up. ``rows[i]`` is node i's row
    of next walk nodes: ``rows[i][c]`` is the neighbour numpy picks from a
    word of interval c, or the exit value ``m + i`` where the walk must leave
    the table (see ``_word_intervals``): every column of a node of degree 1
    or above ``_TABLE_DEGREE``, which takes the exact step instead.

    A node of degree 0 in a subset of more than one node, or an induced edge
    between two nodes of degree 1 in a subset of more than two, raises
    ``DisconnectedSubset`` here: Wilson's walk could not leave either. Other
    disconnected subsets raise from the draw (``require_connected``).
    """

    __slots__ = ("nodes", "m", "pops", "edge_a", "edge_b", "nbr", "first", "deg", "rows",
                 "connected")

    def __init__(self, graph: PrecinctGraph, subset, region: "Region | None" = None):
        if region is None:
            nodes = np.array(subset, ndmin=1)  # a copy: the caller's may change
            if nodes.size == 0:
                raise errors.EmptyInput("empty node subset")
            if nodes.dtype.kind not in "iu":
                raise ValueError(f"node subset of dtype {nodes.dtype}: node ordinals are integers")
            nodes = nodes.astype(np.int64, copy=False)
            if nodes.size > 1 and not (nodes[1:] > nodes[:-1]).all():
                nodes = np.unique(nodes)  # every internal caller passes its subset sorted
            if nodes[0] < 0 or nodes[-1] >= graph.n:
                bad = nodes[0] if nodes[0] < 0 else nodes[np.searchsorted(nodes, graph.n)]
                raise ValueError(f"node ordinal {bad} outside 0..{graph.n - 1}")
            region = graph.neighbors.gather(nodes)
        self.nodes = nodes = region.nodes
        self.m = m = int(nodes.size)
        inside = region.local >= 0
        near = region.near[inside]
        nbr = region.local[inside]
        upper = near < nbr
        self._set_adjacency(near[upper], nbr[upper], nbr, np.bincount(near, minlength=m))
        self.pops = graph.populations[nodes].tolist()

    def _set_adjacency(self, edge_a, edge_b, nbr: np.ndarray, deg: np.ndarray) -> None:
        """Keep the local edges and the neighbour lists ``nbr`` (every node's
        in turn, ``deg`` each), and build the walk table from them."""
        m = self.m
        # an isolated node, or an edge whose two ends have no other neighbour
        if m > 1 and not deg.all() or m > 2 and (deg[edge_a] + deg[edge_b] == 2).any():
            raise _not_connected(m)
        first = deg.cumsum() - deg
        cols = _PICK[np.minimum(deg, _TABLE_DEGREE + 1)]
        exits = np.arange(nbr.size, nbr.size + m)  # where m + u lies in ``ends``
        ends = np.concatenate((nbr, np.arange(m, 2 * m)))
        self.rows = ends[np.where(cols < 0, exits[:, None], first[:, None] + cols)].tolist()
        self.edge_a, self.edge_b = edge_a, edge_b
        self.nbr, self.first, self.deg = nbr.tolist(), first.tolist(), deg.tolist()
        self.connected = m == 1

    def require_connected(self) -> None:
        """Raise ``DisconnectedSubset`` unless the induced edges connect the
        subset; checked once per region."""
        if not self.connected:
            if graph_components(self.m, self.edge_a, self.edge_b).max() > 0:
                raise _not_connected(self.m)
            self.connected = True


@dataclass
class SpanningTree:
    """Rooted spanning tree over a node subset, with subtree population tallies.

    ``nodes[i]`` is the graph ordinal of local index ``i`` (an array, the
    region's). The rest are the Python lists a draw builds: ``parent[i]`` is
    the local parent index (-1 at the root); ``order`` lists local indices
    with every parent before its children; ``subtree_pop[i]`` is the
    population of the subtree rooted at ``i``.
    """

    nodes: np.ndarray
    parent: list
    order: list
    subtree_pop: list
    root: int

    @property
    def m(self) -> int:
        return int(self.nodes.size)

    @property
    def n_edges(self) -> int:
        return self.m - 1

    @property
    def total_population(self) -> int:
        return self.subtree_pop[self.root]

    def local_index(self, node: int) -> int:
        # nodes is ascending (``_Induced`` sorts it), so binary search suffices
        i = int(np.searchsorted(self.nodes, node))
        if i >= self.m or self.nodes[i] != node:
            raise KeyError(f"node {node} not in tree")
        return i

    def subtree_mask(self, child: int) -> np.ndarray:
        """Local mask of the subtree rooted at graph ordinal ``child``: one
        pass over ``order`` from ``child`` on, marking each node whose parent
        is marked (every parent comes before its children)."""
        parent, order = self.parent, self.order
        c = self.local_index(child)
        inside = bytearray(self.m)
        inside[c] = 1
        for i in islice(order, order.index(c) + 1, None):
            if inside[parent[i]]:
                inside[i] = 1
        return np.frombuffer(inside, dtype=bool)

    def subtree_nodes(self, child: int) -> np.ndarray:
        """Graph ordinals of the subtree rooted at ``child``, ascending."""
        return self.nodes[self.subtree_mask(child)]


def _finish_tree(induced: _Induced, parent: list, order: list) -> SpanningTree:
    """Accumulate subtree populations, as Python ints; ``order`` starts at
    the root and lists every parent before its children. The tree keeps the
    draw's lists as they are."""
    subtree = induced.pops.copy()
    for i in order[:0:-1]:
        subtree[parent[i]] += subtree[i]
    return SpanningTree(nodes=induced.nodes, parent=parent, order=order,
                        subtree_pop=subtree, root=order[0])


def _wilson(induced: _Induced, rng: np.random.Generator):
    """Uniform spanning tree via loop-erased random walks (Wilson).

    Walk from each untouched node until the current tree is hit; overwriting
    ``succ`` along the way erases loops automatically.

    Each step takes neighbour ``rng.integers(degree)`` exactly as numpy's
    scalar call would pick it: 32-bit Lemire over the generator's uint32
    words, redrawing while the low half of ``word * degree`` falls below
    ``2**32 % degree``, and drawing nothing at a degree-1 node. The words
    are read straight off the bit generator's raw 64-bit outputs
    (``random_raw``), each output's low half and then its high half, which
    are the words numpy's calls take from it; a high half word that the
    generator holds from an earlier call (``has_uint32``) comes first, as a
    chunk of its own; with none held the draw starts from an empty chunk,
    whose end sends the first lookup to draw one. The words are drawn in
    chunks ahead of need, one chunk held at a time, and each chunk is
    classified into word intervals (``_word_codes``) with one gather from
    the table of 16-bit buckets. A
    chunk holds ``2 * (min(4 * m, 2048) + 32)`` words: a walk uses many
    times m words (a 100-node strip about 33 m), so a draw pays each chunk's
    fixed cost only a few times, and the cap keeps a large region from
    drawing far more words than it uses. A step from a node u of degree
    2.._TABLE_DEGREE is then one lookup in its row of next nodes
    (``_Induced.rows``) by the next code off an iterator over the chunk's
    codes, so the walk keeps no word position of its own. The lookup gives
    a value of m or more instead where the table does not decide: ``2 * m``
    at a tree node, which ends the walk, and u's exit value ``m + u`` at a
    node of another degree, at a word numpy redraws and at the end of a
    chunk. A walk that ends at the tree leaves its last code unused: the
    next walk's first lookup reads it. At an exit the walk recovers the
    word's position from the iterator's length hint and takes exact steps
    from that word (a degree-1 node's only neighbour, or the word rule
    above on the chunk's words as Python ints, read off the flat neighbour
    list ``_Induced.nbr``) until it reaches a node the table decides, one of
    degree 2.._TABLE_DEGREE or a tree node, then sets the iterator to the
    next unused word (``__setstate__``, O(1)), or it draws the next chunk.
    It returns the draw's ``parent`` and ``order`` lists, which the tree
    keeps (``_finish_tree``).

    At the end the generator is rewound to the words used, in O(log n) for
    n words: its saved state is restored, ``advance`` skips every 64-bit
    output used but the last (dropping a held half word with it), and one
    scalar ``integers`` call per word draws that output's one or two words
    (or, for three words or fewer, all of them), so the held half word ends
    exactly where the scalar calls would leave it. The words the walk reads,
    and so the tree and every later draw, do not depend on the chunk size.
    This word rule holds for PCG64 and PCG64DXSM, the bit generators listed
    in ``_RAW_WORD_GENERATORS``; any other raises ``ValueError``.

    A walk never reaches the tree from a component of the subset that does
    not hold the root. So once a draw has used more than ``_CHECK_WORDS * m``
    words, it checks the subset's connectivity before its next chunk, once
    per region, and raises ``DisconnectedSubset`` if it is not connected.
    """
    m = induced.m
    nbr, first, deg = induced.nbr, induced.first, induced.deg
    # a node that joins the tree gets a row of 2 * m, which is no node's exit
    # value; the walk writes it to the succ of the tree node it ends at, so
    # the tree's edges are kept apart in ``parent``
    tree_exit = 2 * m
    tree_row = [tree_exit] * (_END + 1)
    rows = induced.rows.copy()
    root = int(rng.integers(m))
    rows[root] = tree_row
    succ = [-1] * m
    parent = [-1] * m
    order = [root]
    bits = rng.bit_generator
    saved = bits.state
    if saved["bit_generator"] not in _RAW_WORD_GENERATORS:
        raise ValueError(f"Wilson's walk reads the raw output of one of {_RAW_WORD_GENERATORS}, "
                         f"not {saved['bit_generator']}")
    # a held high half word is the next word: a chunk of one word, read first
    if saved["has_uint32"]:
        block = np.array([saved["uinteger"]], dtype="<u4")
        codes = _word_codes(block)
    else:
        block, codes = None, bytearray([_END])  # no word: the first lookup draws a chunk
    words = None
    chunk = drawn = len(codes) - 1
    it = iter(codes)
    c = next(it)  # the next unused word's interval; ``it`` stands just after it
    check_at = None if induced.connected else _CHECK_WORDS * m
    for start in range(m):
        if rows[start] is tree_row:
            continue
        succ[start] = u = rows[start][c]
        while True:
            if u < m:
                for c in it:
                    succ[u] = u = rows[u][c]
                    if u >= m:
                        break
            if u == tree_exit:
                break  # c, read at the tree, stays unused: the next walk's first word
            pos = len(codes) - 1 - length_hint(it)  # the word c, which the table left
            u -= m
            while True:
                d = deg[u]
                if d == 1:
                    succ[u] = u = nbr[first[u]]
                elif pos == chunk:  # back to the table with the next chunk
                    if check_at is not None and drawn > check_at:
                        induced.require_connected()
                        check_at = None
                    block = bits.random_raw(min(4 * m, 2048) + 32).astype("<u8", copy=False)
                    block = block.view("<u4")  # each output's low half, then its high half
                    codes = _word_codes(block)
                    chunk = block.size
                    words = None  # the block as ints, made on its first exact step
                    drawn += chunk
                    pos = 0
                    it = iter(codes)
                    break
                else:
                    if words is None:
                        words = block.tolist()
                    x = words[pos] * d
                    pos += 1
                    # rejected: redraw at the same node (x & _MASK < d is the cheap precheck)
                    if x & _MASK < d and x & _MASK < _WORD % d:
                        continue
                    succ[u] = u = nbr[first[u] + (x >> 32)]
                if 2 <= deg[u] <= _TABLE_DEGREE or rows[u] is tree_row:
                    break  # the table decides the next step
            it.__setstate__(pos)
        # the new branch runs from start to the tree: add it tree end first
        u = start
        branch = []
        while rows[u] is not tree_row:
            rows[u] = tree_row
            branch.append(u)
            parent[u] = u = succ[u]
        order += reversed(branch)
    used = drawn - chunk + len(codes) - 1 - length_hint(it)  # up to the unused word c
    if used:
        bits.state = saved
        raw = used - saved["has_uint32"]  # words read from 64-bit outputs
        if raw > 2:  # skip all outputs used but the last; this drops a held word too
            bits.advance((raw - 1) // 2)
            used = 2 - raw % 2
        for _ in range(used):
            rng.integers(_WORD)
    return parent, order


def _random_mst(induced: _Induced, rng: np.random.Generator):
    """Minimum spanning tree under i.i.d. uniform edge weights, rooted at local
    0: Kruskal over a union-find with path halving, then a breadth-first pass
    that lists ``order`` as it reads it. Raises ``DisconnectedSubset`` when
    fewer than m - 1 edges join the subset."""
    m = induced.m
    ranked = np.argsort(rng.random(induced.edge_a.size), kind="stable")
    up = list(range(m))
    adj = [[] for _ in range(m)]
    need = m - 1
    for a, b in zip(induced.edge_a[ranked].tolist(), induced.edge_b[ranked].tolist()):
        ra, rb = a, b
        while (r := up[ra]) != ra:
            up[ra] = ra = up[r]
        while (r := up[rb]) != rb:
            up[rb] = rb = up[r]
        if ra != rb:
            up[ra] = rb
            adj[a].append(b)
            adj[b].append(a)
            need -= 1
            if not need:
                break
    if need:
        raise _not_connected(m)
    parent = [-1] * m
    order = [0]
    for u in order:
        for v in adj[u]:
            if v != parent[u]:
                parent[v] = u
                order.append(v)
    return parent, order


def random_spanning_tree(
    graph: PrecinctGraph,
    subset,
    rng: np.random.Generator,
    method: str = "uniform",
) -> SpanningTree:
    """Spanning tree of the induced subgraph on ``subset``.

    Deterministic given the rng state. Raises ``DisconnectedSubset`` when the
    induced subgraph is not connected, and ``ValueError`` for a node ordinal
    outside ``0..graph.n - 1`` or, for ``uniform``, an rng whose bit
    generator is not PCG64 or PCG64DXSM (``default_rng`` gives PCG64).
    """
    return _draw_tree(_Induced(graph, subset), rng, method)


def _draw_tree(induced, rng, method) -> SpanningTree:
    if method == "uniform":
        parent, order = _wilson(induced, rng)
    elif method == "mst":
        parent, order = _random_mst(induced, rng)
    else:
        raise ValueError(f"unknown tree method {method!r}; use one of {TREE_METHODS}")
    return _finish_tree(induced, parent, order)


@dataclass(frozen=True)
class Cut:
    """A qualifying tree cut: removing (child, parent) splits the subset."""

    child: int
    parent: int
    subtree_is_first: bool  # subtree side matches target_pops[0]


@lru_cache(maxsize=16)
def _cut_windows(total: int, p1: float, p2: float, tolerance: float):
    """The subtree populations s that cut a tree of ``total`` people in each
    orientation: ``(lo, hi)`` of s for s within ``p1``'s window and
    ``total - s`` within ``p2``'s, then the other way round (``lo > hi``
    when none). Every draw of one bipartition shares them, so they are kept
    for the last few ``(total, p1, p2, tolerance)``."""
    lo1, hi1 = window_bounds(p1, tolerance)
    lo2, hi2 = (lo1, hi1) if p2 == p1 else window_bounds(p2, tolerance)
    return ((max(lo1, total - hi2), min(hi1, total - lo2)),
            (max(lo2, total - hi1), min(hi2, total - lo1)))


def find_balanced_cut(
    tree: SpanningTree,
    target_pops,
    tolerance: float,
    rng: np.random.Generator,
):
    """Tree edge whose removal yields parts within tolerance of the targets.

    An edge qualifies when its subtree/complement populations match
    ``(p1, p2)`` in either orientation, each by :func:`~mapchain.graph.within_window`,
    checked by its integer bounds (:func:`~mapchain.graph.window_bounds`)
    in one pass over ``subtree_pop``; the root, whose subtree is the whole
    tree, never qualifies. Among multiple qualifying edges, in ascending
    local order, one is chosen uniformly at random (to avoid directional
    bias from the tree orientation). Returns ``None`` when no edge
    qualifies; absence is a value, not an error.
    """
    total = tree.total_population
    (a1, b1), (a2, b2) = _cut_windows(total, float(target_pops[0]), float(target_pops[1]),
                                      tolerance)
    low = min(a1, a2)  # most subtrees are small: one comparison turns them away
    qualifiers = [i for i, s in enumerate(tree.subtree_pop)
                  if s >= low and (a1 <= s <= b1 or a2 <= s <= b2)]
    if a1 <= total <= b1 or a2 <= total <= b2:
        qualifiers.remove(tree.root)
    if not qualifiers:
        return None
    i = qualifiers[int(rng.integers(len(qualifiers)))]
    return Cut(
        child=int(tree.nodes[i]),
        parent=int(tree.nodes[tree.parent[i]]),
        subtree_is_first=a1 <= tree.subtree_pop[i] <= b1,
    )


def bipartition_region(
    graph: PrecinctGraph,
    subset,
    target_pops,
    tolerance: float,
    rng: np.random.Generator,
    max_tree_retries: int = 50,
    method: str = "uniform",
    induced: "_Induced | None" = None,
):
    """Split ``subset`` into two connected, population-balanced parts.

    Draws up to ``max_tree_retries`` spanning trees, searching each for a
    balanced cut; returns ``(part1, part2)`` node arrays aligned to
    ``target_pops``, or ``None`` once the budget is exhausted. Both parts are
    connected by construction (each is one side of a tree cut). Raises
    ``DisconnectedSubset`` when ``subset`` is not connected. ``induced`` is
    ``subset``'s induced subgraph, for a caller that splits one subset many
    times; it is built here when not given.
    """
    if induced is None:
        induced = _Induced(graph, subset)
    for _ in range(max_tree_retries):
        tree = _draw_tree(induced, rng, method)
        cut = find_balanced_cut(tree, target_pops, tolerance, rng)
        if cut is None:
            continue
        inside = tree.subtree_mask(cut.child)
        sub, rest = induced.nodes[inside], induced.nodes[~inside]
        if cut.subtree_is_first:
            return sub, rest
        return rest, sub
    return None
