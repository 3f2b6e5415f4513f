"""Elimination semantics, contraction correctness, and the cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridamp import (
    GenParams,
    Ordering,
    RankOverflowError,
    Tensor,
    amplitude_of,
    build_model,
    contract,
    eliminate_variable,
    estimate_cost,
    generate,
    model_value_bruteforce,
)
from gridamp import elimination
from gridamp.graph_model import GraphModel, VarInfo, copy_adj
from gridamp.tensor import multiply_all

from conftest import edge_names, letter_ids, with_custom_gates


def ordering_starting_with(model, first):
    rest = sorted(v for v in model.vertices if v not in first)
    return Ordering(tuple(first) + tuple(rest))


class TestEliminateVariable:
    def test_leaf_elimination_adds_no_fill(self, ref4q_model):
        c = letter_ids(ref4q_model)["c"]
        out = eliminate_variable(ref4q_model, c)
        assert len(out.vertices) == 9
        assert edge_names(out) == edge_names(ref4q_model) - {"ce"}

    def test_high_degree_elimination_fills_neighbor_clique(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        out = eliminate_variable(ref4q_model, ids["e"])
        before = edge_names(ref4q_model)
        after = edge_names(out)
        assert after - before == {"ac", "af", "bc", "bf", "cf"}
        assert before - after == {"ae", "be", "ce", "ef"}
        made = [f for f in out.factors if f.rank == 4]
        assert len(made) == 1
        assert set(made[0].axes) == {ids[n] for n in "abcf"}

    def test_isolated_vertex_with_boundary_factor(self):
        g = GraphModel()
        g._add_vertex(0, VarInfo(0, 0))
        g._add_factor(Tensor((0,), [1, 0]))
        out = eliminate_variable(g, 0)
        assert out.vertices == set()
        assert not out.factors
        assert out.scalar == 1.0 + 0j

    def test_vertex_without_factors_doubles_scalar(self):
        g = GraphModel()
        g._add_vertex(0, VarInfo(0, 0))
        out = eliminate_variable(g, 0)
        assert out.scalar == 2.0 + 0j

    def test_unknown_variable(self, ref4q_model):
        with pytest.raises(KeyError):
            eliminate_variable(ref4q_model, 999)


class TestContract:
    def test_reference_model_any_ordering(self, ref4q_circuit, ref4q_model):
        expected = model_value_bruteforce(ref4q_model)
        for first in ("e", "c", "j"):
            order = ordering_starting_with(
                ref4q_model, [letter_ids(ref4q_model)[first]]
            )
            assert abs(contract(ref4q_model, order) - expected) < 1e-12

    def test_letter_order_matches_oracle(self, ref4q_circuit, ref4q_model):
        ids = letter_ids(ref4q_model)
        order = Ordering(tuple(ids[ch] for ch in "abcdefghij"))
        amp = contract(ref4q_model, order)
        assert abs(amp - amplitude_of(ref4q_circuit, "0000")) < 1e-12

    def test_empty_model(self):
        g = GraphModel()
        g.scalar = 0.25 + 0.5j
        assert contract(g, Ordering(())) == 0.25 + 0.5j

    def test_ordering_must_cover(self, ref4q_model):
        with pytest.raises(ValueError):
            contract(ref4q_model, Ordering((0, 1)))

    def test_ordering_invariance_random_models(self):
        rng = np.random.default_rng(42)
        for seed in range(4):
            c = generate(GenParams(3, 3, 8, seed=seed))
            model = build_model(c, "0" * 9)
            vs = sorted(model.vertices)
            results = []
            for _ in range(20):
                order = list(vs)
                rng.shuffle(order)
                results.append(contract(model, Ordering(tuple(order))))
            for r in results[1:]:
                assert abs(r - results[0]) < 1e-10

    def test_rank_overflow_identifies_step(self, ref4q_model):
        e = letter_ids(ref4q_model)["e"]
        order = ordering_starting_with(ref4q_model, [e])
        with pytest.raises(RankOverflowError) as err:
            contract(ref4q_model, order, max_rank=3)
        assert "step 0" in str(err.value)

    def test_bit_reproducible(self, ref4q_model):
        order = Ordering(tuple(sorted(ref4q_model.vertices)))
        a = contract(ref4q_model, order)
        b = contract(ref4q_model, order)
        assert a == b


class TestEstimateCost:
    def test_reference_degrees(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        est = estimate_cost(ref4q_model, ordering_starting_with(ref4q_model, [ids["e"]]))
        assert est.steps[0].degree == 4
        assert est.steps[0].cost == 16

    def test_leaf_first_costs(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        est = estimate_cost(
            ref4q_model, ordering_starting_with(ref4q_model, [ids["c"], ids["d"]])
        )
        assert est.steps[0].cost == 2
        assert est.steps[1].cost == 2

    def test_degree_zero_step_costs_one(self):
        g = GraphModel()
        g._add_vertex(0, VarInfo(0, 0))
        est = estimate_cost(g, Ordering((0,)))
        assert est.steps[0].cost == 1
        assert est.total == 1
        assert est.max_rank == 0

    def test_total_is_sum_and_max_rank_is_max_degree(self, ref4q_model):
        order = Ordering(tuple(sorted(ref4q_model.vertices)))
        est = estimate_cost(ref4q_model, order)
        assert est.total == sum(s.cost for s in est.steps)
        assert est.max_rank == max(s.degree for s in est.steps)

    def test_materialized_ranks_track_degrees(self, ref4q_model, monkeypatch):
        order = Ordering(tuple(sorted(ref4q_model.vertices)))
        est = estimate_cost(ref4q_model, order)
        ranks: list[int] = []

        def recording(*args, **kwargs):  # each step's product tensor
            product = multiply_all(*args, **kwargs)
            ranks.append(product.rank)
            return product

        monkeypatch.setattr(elimination, "multiply_all", recording)
        contract(ref4q_model, order)
        assert ranks == [s.degree + 1 for s in est.steps]
        assert max(ranks) == est.max_rank + 1

    def test_graph_dynamics_agree_with_elimination(self, ref4q_model):
        order = sorted(ref4q_model.vertices)
        est = estimate_cost(ref4q_model, Ordering(tuple(order)))
        g = ref4q_model
        for step, v in zip(est.steps, order):
            assert step.degree == len(g.adj[v])
            g = eliminate_variable(g, v)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 5000),
    custom_every=st.sampled_from([0, 2, 3]),
    data=st.data(),
)
def test_contract_matches_bruteforce(seed, custom_every, data):
    """Random orderings, circuits with and without non-diagonal two-qubit
    gates; the input model is left as it was, and the amplitude equals
    eliminating one variable at a time bit for bit."""
    c = generate(GenParams(2, 3, 8, seed=seed))
    if custom_every:
        c = with_custom_gates(c, custom_every, seed)
    model = build_model(c, "0" * 6)
    if len(model.vertices) > 16:
        return
    order = Ordering(tuple(data.draw(st.permutations(sorted(model.vertices)))))
    factors = list(model.factors)
    arrays = [f.data.copy() for f in factors]
    adj = copy_adj(model.adj)
    scalar = model.scalar

    amp = contract(model, order)

    assert abs(amp - model_value_bruteforce(model)) < 1e-10
    assert model.factors == factors
    assert all(np.array_equal(f.data, a) for f, a in zip(model.factors, arrays))
    assert model.adj == adj
    assert model.scalar == scalar
    stepwise = model
    for v in order:
        stepwise = eliminate_variable(stepwise, v)
    assert amp == complex(stepwise.scalar)
