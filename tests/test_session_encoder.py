import numpy as np
import pytest

import nextsession.tensor as T
from nextsession.session_encoder import KINDS, IseConfig, SessionEncoder

from helpers import finite_difference, graph_size


def encoder(kind, dim=6, seed=0, **kw):
    return SessionEncoder(IseConfig(kind=kind, **kw), dim, np.random.default_rng(seed))


def rows(data):
    return T.Tensor(np.asarray(data, dtype=np.float32))


class TestPooling:
    def test_mean_singletons_are_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 6)).astype(np.float32)
        out = encoder("mean").encode_sessions(T.Tensor(x), [1, 1, 1, 1])
        np.testing.assert_array_equal(out.data, x)

    def test_max_example(self):
        out = encoder("max", dim=2).encode_sessions(rows([[1, 3], [3, 1]]), [2])
        np.testing.assert_allclose(out.data, [[3, 3]])

    def test_max_relu_rectifies_before_pooling(self):
        out = encoder("max_relu", dim=2).encode_sessions(
            rows([[-1, -3], [-2, -0.5]]), [2]
        )
        np.testing.assert_allclose(out.data, [[0, 0]])
        plain = encoder("max", dim=2).encode_sessions(
            rows([[-1, -3], [-2, -0.5]]), [2]
        )
        np.testing.assert_allclose(plain.data, [[-1, -0.5]])

    @pytest.mark.parametrize("kind", ["mean", "max", "max_relu"])
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 6)).astype(np.float32)
        lengths = [4, 2, 3]
        enc = encoder(kind)
        base = enc.encode_sessions(T.Tensor(x), lengths).data
        for _ in range(20):
            perm = np.concatenate([
                rng.permutation(4),
                4 + rng.permutation(2),
                6 + rng.permutation(3),
            ])
            shuffled = enc.encode_sessions(T.Tensor(x[perm]), lengths).data
            np.testing.assert_allclose(shuffled, base, atol=1e-6)

    def test_recurrent_is_order_sensitive(self):
        enc = encoder("recurrent", dim=4, seed=2)
        x = np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)
        fwd = enc.encode_sessions(T.Tensor(x), [3]).data
        rev = enc.encode_sessions(T.Tensor(x[::-1].copy()), [3]).data
        assert not np.allclose(fwd, rev)


class TestContracts:
    def test_empty_session_rejected(self):
        with pytest.raises(ValueError, match="empty session"):
            encoder("mean").encode_sessions(rows(np.zeros((2, 6))), [2, 0])

    def test_length_sum_must_match(self):
        with pytest.raises(ValueError, match="lengths sum"):
            encoder("mean").encode_sessions(rows(np.zeros((3, 6))), [2, 2])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown session aggregator"):
            encoder("median")

    @pytest.mark.parametrize("kind", KINDS)
    def test_output_shape(self, kind):
        x = np.random.default_rng(0).normal(size=(7, 6)).astype(np.float32)
        out = encoder(kind).encode_sessions(T.Tensor(x), [3, 1, 3])
        assert out.shape == (3, 6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_cross_session_flow(self, kind):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 6)).astype(np.float32)
        lengths = [3, 2, 3]
        enc = encoder(kind, seed=7)
        base = enc.encode_sessions(T.Tensor(x), lengths).data
        for target, (lo, hi) in enumerate([(0, 3), (3, 5), (5, 8)]):
            bumped = x.copy()
            bumped[lo:hi] += rng.normal(size=(hi - lo, 6)).astype(np.float32)
            out = enc.encode_sessions(T.Tensor(bumped), lengths).data
            for row in range(3):
                if row == target:
                    assert not np.allclose(out[row], base[row])
                else:
                    np.testing.assert_array_equal(out[row], base[row])


class TestGradients:
    @pytest.mark.parametrize("kind", ["recurrent", "attention"])
    def test_input_gradients_match_finite_difference(self, kind):
        enc = encoder(kind, dim=4, seed=9, layers=1, heads=2)
        params = enc.parameters()
        for p in params.values():
            p.data = p.data.astype(np.float64)
        x0 = np.random.default_rng(4).normal(size=(5, 4))
        w = np.random.default_rng(5).normal(size=(2, 4))

        x = T.Tensor(x0.copy(), requires_grad=True)
        loss = T.sum_all(T.mul(enc.encode_sessions(x, [3, 2]), T.Tensor(w)))
        loss.backward()

        def make_loss(arrays):
            xt = T.Tensor(arrays[0])
            return float(
                np.sum(enc.encode_sessions(xt, [3, 2]).data * w)
            )

        numeric = finite_difference(make_loss, [x0.copy()])
        err = np.max(np.abs(x.grad - numeric[0]) / np.maximum(1.0, np.abs(numeric[0])))
        assert err < 1e-4

    def test_recurrent_parameter_gradients(self):
        enc = encoder("recurrent", dim=3, seed=1)
        params = enc.parameters()
        names = sorted(params)
        for p in params.values():
            p.data = p.data.astype(np.float64)
        x0 = np.random.default_rng(2).normal(size=(4, 3))

        loss = T.sum_all(enc.encode_sessions(T.Tensor(x0), [2, 2]))
        loss.backward()

        def make_loss(arrays):
            for n, arr in zip(names, arrays):
                params[n].data = arr
            return float(np.sum(enc.encode_sessions(T.Tensor(x0), [2, 2]).data))

        numeric = finite_difference(make_loss, [params[n].data for n in names])
        for n, num in zip(names, numeric):
            g = params[n].grad
            if g is None:
                g = np.zeros_like(num)
            err = np.max(np.abs(g - num) / np.maximum(1.0, np.abs(num)))
            assert err < 1e-4, f"{n}: {err}"


def loop_recurrent(enc, item_vecs, lengths):
    """The recurrent kind as one cell run per session (the old body)."""
    tokens, start = [], 0
    for ln in lengths:
        rows = T.gather(item_vecs, np.arange(start, start + ln))
        tokens.append(enc.gru.run(rows)[-1])
        start += ln
    return tokens[0] if len(tokens) == 1 else T.concat(tokens, axis=0)


def float64_encoder(kind, dim, seed):
    enc = encoder(kind, dim=dim, seed=seed)
    for p in enc.parameters().values():
        p.data = p.data.astype(np.float64)
    return enc


RAGGED = {
    "unsorted": [2, 5, 1, 3],
    "tied": [3, 3, 2, 2, 3],
    "all_length_one": [1, 1, 1],
    "single_session": [4],
    "single_item": [1],
    "one_long_session": [1, 12, 2, 1],
    "ascending": [1, 2, 3, 4],
}


class TestParallelRecurrent:
    """The session-parallel recurrent kind against the per-session loop."""

    def outputs_and_grads(self, enc, x0, lengths, w, run):
        params = enc.parameters()
        for p in params.values():
            p.grad = None
        x = T.Tensor(x0.copy(), requires_grad=True)
        out = run(x, lengths)
        T.sum_all(T.mul(out, T.Tensor(w))).backward()
        grads = [x.grad] + [params[n].grad for n in sorted(params)]
        return out.data, grads

    def compare(self, lengths, seed):
        rng = np.random.default_rng(seed)
        enc = float64_encoder("recurrent", 5, seed)
        x0 = rng.normal(size=(sum(lengths), 5))
        w = rng.normal(size=(len(lengths), 5))
        got, got_g = self.outputs_and_grads(enc, x0, lengths, w, enc.encode_sessions)
        want, want_g = self.outputs_and_grads(
            enc, x0, lengths, w, lambda x, ln: loop_recurrent(enc, x, ln)
        )
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for g, wg in zip(got_g, want_g):
            np.testing.assert_allclose(g, wg, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(RAGGED))
    def test_matches_the_per_session_loop_in_float64(self, case):
        self.compare(RAGGED[case], seed=len(case))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_on_random_ragged_lengths(self, seed):
        rng = np.random.default_rng(100 + seed)
        lengths = [int(v) for v in rng.integers(1, 7, size=rng.integers(1, 10))]
        self.compare(lengths, seed)

    def test_matches_in_float32(self):
        rng = np.random.default_rng(3)
        enc = encoder("recurrent", dim=8, seed=3)
        lengths = [3, 1, 6, 2, 6, 4]
        x = T.Tensor(rng.normal(size=(sum(lengths), 8)).astype(np.float32))
        got = enc.encode_sessions(x, lengths).data
        want = loop_recurrent(enc, x, lengths).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_ragged_gradients_match_finite_difference(self):
        lengths = [1, 3, 2, 3]
        enc = float64_encoder("recurrent", 3, 11)
        params = enc.parameters()
        names = sorted(params)
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(sum(lengths), 3))
        w = rng.normal(size=(len(lengths), 3))

        x = T.Tensor(x0.copy(), requires_grad=True)
        T.sum_all(T.mul(enc.encode_sessions(x, lengths), T.Tensor(w))).backward()
        analytic = [x.grad] + [params[n].grad for n in names]

        def make_loss(arrays):
            for n, arr in zip(names, arrays[1:]):
                params[n].data = arr
            return float(np.sum(enc.encode_sessions(T.Tensor(arrays[0]), lengths).data * w))

        numeric = finite_difference(make_loss, [x0.copy()] + [params[n].data for n in names])
        for name, g, num in zip(["input"] + names, analytic, numeric):
            assert g is not None, name
            err = np.max(np.abs(g - num) / np.maximum(1.0, np.abs(num)))
            assert err < 1e-4, f"{name}: {err}"

    def test_graph_grows_with_session_length_not_count(self):
        enc = encoder("recurrent", dim=4, seed=0)
        rng = np.random.default_rng(0)
        sizes = []
        for m in (2, 40):
            x = T.Tensor(rng.normal(size=(3 * m, 4)).astype(np.float32), requires_grad=True)
            sizes.append(graph_size(enc.encode_sessions(x, [3] * m)))
        assert sizes[0] == sizes[1], sizes
