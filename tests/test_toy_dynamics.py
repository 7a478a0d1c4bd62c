import re

import numpy as np
import pytest

from srr import toy_dynamics
from srr.errors import ConfigError
from srr.layers import mssa
from srr.linalg import orthonormal_basis, rng_for, stable_seed
from srr.rates import grad_taylor_terms, projected_coding_rate, split_heads
from srr.toy_dynamics import (
    RULES,
    DynamicsTrace,
    LayerRates,
    _normalize,
    _rc_scaled,
    _spread_ok,
    run_dynamics,
    traces_to_csv,
)


def start_state(seed, d, N):
    return rng_for(seed, "tokens").standard_normal((d, N))


def layer_basis(seed, d, layer):
    return orthonormal_basis(d, stable_seed(seed, "basis", layer))


def proj_sum(Z, U, K):
    out = np.zeros_like(Z)
    for Uk in split_heads(U, K):
        out += Uk @ (Uk.T @ Z)
    return out


def cubic_sum(Z, U, K):
    out = np.zeros_like(Z)
    for Uk in split_heads(U, K):
        A = Uk.T @ Z
        out += Uk @ (A @ (A.T @ A))
    return out


class TestPlumbing:
    def test_rule_registry(self):
        assert RULES == ("a", "b", "c", "d", "e", "n")

    @pytest.mark.parametrize("rule", ["E_softmax", "E", 5])
    def test_only_tags_accepted(self, rule):
        with pytest.raises(ConfigError, match="^rule must be one of 'a', 'b', 'c', 'd', 'e', 'n'"):
            run_dynamics(rule, N=8, d=8, K=2, L=2, seed=3)

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            run_dynamics("z", N=8, d=8, K=2, L=2)

    def test_head_mismatch(self):
        with pytest.raises(ConfigError):
            run_dynamics("a", N=8, d=10, K=4, L=2)

    def test_rows_numbered_from_one(self):
        tr = run_dynamics("a", N=8, d=8, K=2, L=5, seed=1)
        assert [r.layer for r in tr.rows] == [1, 2, 3, 4, 5]
        assert not tr.truncated

    def test_determinism_and_seed_sensitivity(self):
        t1 = run_dynamics("e", N=16, d=16, K=2, L=3, seed=7)
        t2 = run_dynamics("e", N=16, d=16, K=2, L=3, seed=7)
        t3 = run_dynamics("e", N=16, d=16, K=2, L=3, seed=8)
        assert [(r.rc_before, r.rc_after) for r in t1.rows] == [
            (r.rc_before, r.rc_after) for r in t2.rows
        ]
        assert t1.rows[0].rc_before != t3.rows[0].rc_before


class TestRateAgainstDenseRoute:
    """The trace evaluates R_c from per-head singular values in the log
    domain; check it against the Cholesky-based dense evaluation."""

    def test_initial_rate(self):
        d, N, K, gamma, seed = 16, 8, 2, 1.3, 11
        Z0 = start_state(seed, d, N)
        U1 = layer_basis(seed, d, 1)
        for rule in RULES:
            tr = run_dynamics(rule, N=N, d=d, K=K, alpha=0.5, gamma=gamma, seed=seed, L=1)
            want = projected_coding_rate(Z0, U1, K, gamma)
            assert tr.rows[0].rc_before == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_layer_one_update(self, rule):
        d, N, K, alpha, gamma, seed = 16, 8, 2, 0.5, 1.3, 11
        Z0 = start_state(seed, d, N)
        U1 = layer_basis(seed, d, 1)
        if rule == "a":
            from srr.rates import grad_projected_coding_rate

            Z1 = Z0 - alpha * grad_projected_coding_rate(Z0, U1, K, gamma)
        elif rule == "b":
            Z1 = Z0 - alpha * gamma * proj_sum(Z0, U1, K) + alpha * gamma**2 * cubic_sum(Z0, U1, K)
        elif rule == "c":
            Z1 = Z0 - alpha * gamma * proj_sum(Z0, U1, K)
        elif rule == "d":
            Z1 = Z0 + alpha * gamma**2 * cubic_sum(Z0, U1, K)
        elif rule == "e":
            Z1 = Z0 + alpha * gamma**2 * mssa(Z0, U1, K)
        else:
            Z1 = Z0 - alpha * gamma**2 * mssa(Z0, U1, K)
        want = projected_coding_rate(Z1, U1, K, gamma)
        tr = run_dynamics(rule, N=N, d=d, K=K, alpha=alpha, gamma=gamma, seed=seed, L=1)
        assert tr.rows[0].rc_after == pytest.approx(want, rel=1e-9)


class TestQualitativeBehavior:
    """Per-layer direction of the rate under each rule, small scale."""

    KW = dict(N=32, d=64, K=4, alpha=1.0, gamma=1.0, seed=0, L=12)

    def deltas(self, rule):
        tr = run_dynamics(rule, **self.KW)
        assert len(tr.rows) == 12 and not tr.truncated
        return [r.rc_after - r.rc_before for r in tr.rows]

    def test_exact_descent_decreases(self):
        assert all(d < 0 for d in self.deltas("a"))

    def test_two_term_expansion_increases(self):
        assert all(d > 0 for d in self.deltas("b"))

    def test_second_term_alone_increases(self):
        assert all(d > 0 for d in self.deltas("d"))

    def test_softmax_update_increases(self):
        assert all(d > 0 for d in self.deltas("e"))

    def test_negative_softmax_decreases(self):
        assert all(d < 0 for d in self.deltas("n"))

    def test_first_term_alone_collapses(self):
        # complete heads make the first-order step remove the whole state
        tr = run_dynamics("c", **self.KW)
        assert tr.rows[0].rc_before > 1.0
        assert tr.rows[0].rc_after < 1e-20

    def test_growth_rules_outrun_float64(self):
        # the cubic rules leave unscaled float64 range within a few layers
        # (max |Z| overflows by layer 5); the scaled state keeps every
        # recorded rate finite through all 12
        for rule in ("b", "d"):
            tr = run_dynamics(rule, **self.KW)
            assert tr.rows[-1].rc_after > 1e6
            assert all(
                np.isfinite([r.rc_before, r.rc_after]).all() for r in tr.rows
            )


class TestFirstOrderRule:
    """Rule c forms its step alone, with the bits of the Taylor gradient's first term, and rule d
    forms the second term alone."""

    @pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (0.5, 1.3)])
    def test_rows_match_the_taylor_gradient_replay(self, alpha, gamma):
        # at the default toy size; under (1, 1) the rates fall ~30 decades a layer, to 0.0 at layer 11
        seed, N, L, d, K = 0, 32, 12, 64, 4
        Zh, c = _normalize(start_state(seed, d, N))
        want = []
        for layer in range(1, L + 1):
            U = layer_basis(seed, d, layer)
            blocks = split_heads(U, K)
            before = _rc_scaled(Zh, c, blocks, gamma)
            Z = np.exp(c) * Zh
            Zh, c = _normalize(Z - alpha * grad_taylor_terms(Z, U, K, gamma)[0])
            want.append((layer, before, _rc_scaled(Zh, c, blocks, gamma)))
        tr = run_dynamics("c", alpha=alpha, gamma=gamma, seed=seed)
        assert not tr.truncated
        assert [(r.layer, r.rc_before, r.rc_after) for r in tr.rows] == want

    def test_never_forms_the_cubic_term(self, monkeypatch):
        calls = []
        real = toy_dynamics._grad_second_order
        monkeypatch.setattr(toy_dynamics, "_grad_second_order", lambda *a: calls.append(a) or real(*a))
        run_dynamics("c", L=3)
        assert calls == []
        run_dynamics("b", L=3)  # the spy does see the rules that call it
        run_dynamics("d", L=3)
        assert len(calls) == 6

    def test_rule_d_never_forms_the_first_order_term(self, monkeypatch):
        calls = []
        real = toy_dynamics._grad_first_order
        monkeypatch.setattr(toy_dynamics, "_grad_first_order", lambda *a: calls.append(a) or real(*a))
        run_dynamics("d", L=3)
        assert calls == []
        run_dynamics("b", L=3)  # the spy does see the rules that call it
        run_dynamics("c", L=3)
        assert len(calls) == 6


class TestTruncation:
    def test_scale_jump_truncates(self):
        # one enormous step pushes the log-scale past what exp() can
        # reconstruct; the trace keeps layer 1 and stops with the flag set
        tr = run_dynamics("e", N=4, d=4, K=1, L=5, alpha=1e305, seed=0)
        assert tr.truncated
        assert len(tr.rows) == 1
        assert np.isfinite([tr.rows[0].rc_before, tr.rows[0].rc_after]).all()

    @pytest.mark.parametrize("alpha, gamma", [(1e308, 1.0), (1.0, 1e155), (1.0, 1e200), (1.0, 1e308)])
    @pytest.mark.parametrize("rule", ["b", "c", "d", "e", "n"])
    def test_overflowing_update_truncates(self, rule, alpha, gamma):
        # an update that leaves float64 range, through alpha or through
        # gamma**2 (1e310 and up, where a Python float's ** raises), ends the
        # trace, flagged, with the rows before it kept; a numpy warning would
        # fail the test (rule a's gradient is bounded, and its trace ends on
        # the scale check)
        tr = run_dynamics(rule, N=6, d=8, K=2, L=4, alpha=alpha, gamma=gamma, seed=0)
        assert tr.truncated and len(tr.rows) < 4
        assert np.isfinite([[r.rc_before, r.rc_after] for r in tr.rows]).all()

    def test_vanishing_scale_truncates(self, monkeypatch):
        # alpha * gamma = 1 cancels rule b's first-order term, so the log-scale c falls
        # every layer until the damping exp(-2c) leaves float64 range (spread guard off)
        monkeypatch.setattr(toy_dynamics, "_spread_ok", lambda Zh: True)
        tr = run_dynamics("b", N=8, d=8, K=2, L=40, alpha=1e60, gamma=1e-60, seed=0)
        assert tr.truncated and len(tr.rows) == 10

    @pytest.mark.parametrize("kw", [dict(alpha=np.nan), dict(alpha=-np.inf), dict(gamma=np.inf)])
    def test_non_finite_scales_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            run_dynamics("c", N=4, d=4, K=1, L=2, **kw)

    @pytest.mark.parametrize("kw", [dict(K=0), dict(L=2.5), dict(N=0), dict(d="4")])
    def test_sizes_held_to_the_count_rule(self, kw):
        (name, value), = kw.items()
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be an int >= 1, got {value!r}")):
            run_dynamics("c", **dict(dict(N=4, d=4, K=1, L=2), **kw))

    def test_spread_guard(self):
        assert _spread_ok(np.zeros((3, 3)))
        assert _spread_ok(np.diag([1.0, 1e-90]))
        assert not _spread_ok(np.diag([1.0, 1e-100]))
        assert not _spread_ok(np.diag([1.0, 0.0]))  # direction already lost


class TestCsv:
    def test_format(self):
        traces = [
            DynamicsTrace(rule="e", rows=[LayerRates(1, 1.5, 2.25), LayerRates(2, 2.0, 3.0)]),
            DynamicsTrace(rule="n", rows=[LayerRates(1, 0.125, 0.0625)]),
        ]
        text = traces_to_csv(traces)
        assert text == (
            "rule,layer,rc_before,rc_after\n"
            "e,1,1.5,2.25\n"
            "e,2,2.0,3.0\n"
            "n,1,0.125,0.0625\n"
        )

    def test_roundtrip_precision(self):
        tr = run_dynamics("e", N=8, d=8, K=2, L=2, seed=5)
        lines = traces_to_csv([tr]).strip().split("\n")[1:]
        for row, line in zip(tr.rows, lines):
            _, _, before, after = line.split(",")
            assert float(before) == row.rc_before
            assert float(after) == row.rc_after
