"""Synthetic rook-adjacency grid fixtures.

Grids use unit geometry (area 1, node perimeter 4, shared boundaries 1) so
district perimeters and Polsby-Popper values have closed forms. These
builders back the test fixtures, the demo scripts, and the large benchmark
graph; they are deliberately deterministic given a seed.
"""
from __future__ import annotations

import numpy as np

from .graph import (
    AdjacencyEdge,
    Contest,
    ElectionSet,
    Plan,
    PrecinctGraph,
    PrecinctNode,
    build_graph,
)


def grid_nodes_edges(rows: int, cols: int, county_mode: str = "columns",
                     muni_mode: str = "quadrants", unit_pop: int = 1):
    """Nodes and rook edges for a rows x cols grid, row-major ids p0, p1, ...

    ``county_mode``/``muni_mode`` choose the admin-unit layout: ``columns``,
    ``rows``, ``quadrants`` (2x2 blocks of the grid), or ``single``.
    """

    def unit_of(r: int, c: int, mode: str) -> str:
        if mode == "columns":
            return f"U{c}"
        if mode == "rows":
            return f"U{r}"
        if mode == "quadrants":
            return f"U{(r >= rows // 2) * 2 + (c >= cols // 2)}"
        if mode == "single":
            return "U0"
        raise ValueError(f"unknown unit mode {mode!r}")

    nodes = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            nodes.append(
                PrecinctNode(
                    precinct_id=f"p{i}",
                    population=unit_pop,
                    county_id=unit_of(r, c, county_mode).replace("U", "C"),
                    muni_id=unit_of(r, c, muni_mode).replace("U", "M"),
                    area=1.0,
                    perimeter=4.0,
                )
            )
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append(AdjacencyEdge(i, i + 1, 1.0))
            if r + 1 < rows:
                edges.append(AdjacencyEdge(i, i + cols, 1.0))
    return nodes, edges


def column_lean_contest(rows: int, cols: int, name: str, dem_by_col,
                        turnout: int = 100, noise: int = 0, seed: int = 0) -> Contest:
    """Contest with Democratic votes set per column (plus optional noise).

    ``dem_by_col[c]`` is the Democratic vote count out of ``turnout`` in
    column c; noise perturbs each node's split by at most ``noise`` votes.
    """
    return _lean_contest(rows, cols, name, lambda r, c: dem_by_col[c], turnout, noise, seed)


def row_lean_contest(rows: int, cols: int, name: str, dem_by_row,
                     turnout: int = 100, noise: int = 0, seed: int = 0) -> Contest:
    """:func:`column_lean_contest` with the Democratic votes set per row."""
    return _lean_contest(rows, cols, name, lambda r, c: dem_by_row[r], turnout, noise, seed)


def _lean_contest(rows, cols, name, dem_at, turnout, noise, seed) -> Contest:
    """Contest whose node at row r, column c has ``dem_at(r, c)`` Democratic
    votes out of ``turnout``, each moved by a noise draw in ``-noise..noise``
    (drawn in row-major node order) and clipped to ``0..turnout``."""
    rng = np.random.default_rng(seed)
    dem = np.empty(rows * cols, dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            d = int(dem_at(r, c))
            if noise:
                d += int(rng.integers(-noise, noise + 1))
            dem[r * cols + c] = min(max(d, 0), turnout)
    return Contest(name=name, dem=dem, rep=(turnout - dem).astype(np.int64))


def grid_graph(rows: int, cols: int, contests=None, county_mode: str = "columns",
               muni_mode: str = "quadrants", unit_pop: int = 1) -> PrecinctGraph:
    nodes, edges = grid_nodes_edges(rows, cols, county_mode, muni_mode, unit_pop)
    if contests is None:
        contests = [
            Contest(
                "E0",
                np.full(rows * cols, 55, dtype=np.int64),
                np.full(rows * cols, 45, dtype=np.int64),
            )
        ]
    return build_graph(nodes, edges, ElectionSet(contests))


def band_plan(rows: int, cols: int, k: int) -> Plan:
    """Equal-size contiguous strips along the boustrophedon (snake) order.

    Snake order makes every strip of consecutive nodes a path, hence
    connected. Requires k to divide rows * cols.
    """
    n = rows * cols
    if n % k:
        raise ValueError(f"k={k} must divide {n}")
    size = n // k
    assignment = np.empty(n, dtype=np.int64)
    pos = 0
    for r in range(rows):
        cs = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        for c in cs:
            assignment[r * cols + c] = pos // size
            pos += 1
    return Plan(assignment, k)


def grid4_graph() -> PrecinctGraph:
    """The committed 4x4 test fixture, rebuilt in memory.

    Two contests lean in opposite spatial directions (PRES by column, SEN by
    row) with small deterministic noise, so different partitions of the grid
    produce genuinely different seat counts.
    """
    pres = column_lean_contest(4, 4, "PRES", (72, 56, 44, 31), noise=3, seed=11)
    sen = row_lean_contest(4, 4, "SEN", (64, 53, 47, 33), noise=3, seed=23)
    return grid_graph(4, 4, contests=[pres, sen], county_mode="columns",
                      muni_mode="quadrants")
