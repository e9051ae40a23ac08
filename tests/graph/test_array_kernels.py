"""The array-backed Kahn kernel is bit-identical to ``Dag.topological_order``.

``kahn_order_indices`` operates on dense ids and flat successor lists;
this property test interns random layered DAGs and checks that it
reproduces ``Dag.topological_order`` exactly — including the
second-layer overlay and serialization-chain successors the
incremental engine feeds it.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import CycleError
from repro.graph.dag import NodeInterner
from repro.graph.generators import layered
from repro.graph.longest_path import kahn_order_indices


def _interned(dag):
    """Flatten a Dag into the kernel representation."""
    interner = NodeInterner(dag.nodes())
    n = len(interner)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b, _w in dag.edges():
        ia, ib = interner.id_of(a), interner.id_of(b)
        succ[ia].append(ib)
        indeg[ib] += 1
    return interner, n, succ, indeg


@pytest.mark.parametrize("seed", range(6))
def test_kernels_match_dag_functions(seed):
    dag = layered(4 + seed % 3, 4, edge_probability=0.5, seed=seed)
    interner, n, succ, indeg = _interned(dag)
    indeg_before = list(indeg)

    order = kahn_order_indices(n, indeg, succ, interner.keys())
    assert sorted(order) == list(range(n))
    assert [interner.key_of(v) for v in order] == dag.topological_order()
    assert indeg == indeg_before  # the caller's array is not consumed


def test_kernel_second_layer_and_chain_match_merged_graph():
    """Splitting edges across the overlay/chain inputs is equivalent to
    one merged graph ordered by the Dag function."""
    rng = random.Random(11)
    base = layered(4, 3, edge_probability=0.5, seed=2)
    interner, n, succ, indeg = _interned(base)

    merged = base.copy()
    # Second layer: a few extra edges consistent with the base order.
    order = kahn_order_indices(n, indeg, succ, interner.keys())
    pos = [0] * n
    for idx, v in enumerate(order):
        pos[v] = idx
    succ2 = [[] for _ in range(n)]
    indeg_all = list(indeg)
    added = 0
    for a in range(n):
        for b in range(n):
            if a != b and pos[a] < pos[b] and added < 5:
                ka, kb = interner.key_of(a), interner.key_of(b)
                if not merged.has_edge(ka, kb):
                    merged.add_edge(ka, kb, rng.uniform(0.1, 2.0))
                    succ2[a].append(b)
                    indeg_all[b] += 1
                    added += 1
    # Chain: zero-weight path over three order-consecutive nodes.
    chain_next = [-1] * n
    chain_nodes = order[1:4]
    for u, v in zip(chain_nodes, chain_nodes[1:]):
        if not merged.has_edge(interner.key_of(u), interner.key_of(v)):
            merged.add_edge(interner.key_of(u), interner.key_of(v), 0.0)
            chain_next[u] = v
            indeg_all[v] += 1

    assert added and max(chain_next) >= 0

    overlay_order = kahn_order_indices(
        n, indeg_all, succ, interner.keys(), succ2, chain_next
    )
    assert [interner.key_of(v) for v in overlay_order] == (
        merged.topological_order()
    )


def test_kahn_kernel_reports_cycles():
    succ = [[1], [2], [0]]
    indeg = [1, 1, 1]
    with pytest.raises(CycleError) as exc:
        kahn_order_indices(3, indeg, succ, ["a", "b", "c"])
    assert set(exc.value.cycle) == {"a", "b", "c"}
