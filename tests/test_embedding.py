import numpy as np
import pytest

import nextsession.tensor as T
from nextsession.embedding import EmbeddingSpace

from helpers import finite_difference


def make_space(num_items=7, dim=6, features=False, seed=0):
    rng = np.random.default_rng(seed)
    if features:
        item_features = rng.integers(0, 3, size=(num_items, 2))
        return EmbeddingSpace(
            num_items, dim, T.Parameters(rng),
            feature_schema=(("topic", 3), ("price_bin", 3)),
            feature_dim=4,
            item_features=item_features,
        )
    return EmbeddingSpace(num_items, dim, T.Parameters(rng))


class TestEmbedItems:
    def test_output_shape(self):
        space = make_space()
        out = space.embed_items([0, 3, 3])
        assert out.shape == (3, 6)

    def test_identical_rows_for_identical_inputs(self):
        space = make_space(features=True)
        out = space.embed_items([2, 2, 5])
        np.testing.assert_array_equal(out.data[0], out.data[1])
        assert not np.array_equal(out.data[0], out.data[2])

    def test_zero_feature_schema_uses_id_only(self):
        space = make_space(features=False)
        out = space.embed_items([1])
        assert out.shape == (1, 6)
        assert space.feature_tables == {}

    def test_out_of_vocabulary_raises(self):
        space = make_space(num_items=5)
        with pytest.raises(IndexError, match="out of vocabulary"):
            space.embed_items([4, 5])
        with pytest.raises(IndexError, match="out of vocabulary"):
            space.embed_items([-1])

    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            make_space().embed_items([])

    def test_feature_width_validated(self):
        schema = (("topic", 3), ("price_bin", 3))
        with pytest.raises(ValueError, match="item_features shape"):
            EmbeddingSpace(4, 6, T.Parameters(np.random.default_rng(0)),
                           feature_schema=schema,
                           item_features=np.zeros((4, 3), dtype=int))
        with pytest.raises(IndexError, match="'price_bin' value out of range"):
            EmbeddingSpace(4, 6, T.Parameters(np.random.default_rng(0)),
                           feature_schema=schema,
                           item_features=np.array([[0, 1], [2, 3], [1, 1], [0, 0]]))


class TestTiedOutputVectors:
    def test_catalog_rows_match_single_item_calls_bitwise(self):
        space = make_space(num_items=9, features=True, seed=4)
        full = space.output_item_vectors().data
        assert full.shape == (9, 6)
        for i in range(9):
            single = space.embed_items([i]).data[0]
            np.testing.assert_array_equal(full[i], single)

    @pytest.mark.parametrize("features", [False, True])
    def test_catalog_equals_embedding_every_id_bitwise(self, features):
        space = make_space(num_items=11, features=features, seed=5)
        full = space.output_item_vectors().data
        want = space.embed_items(np.arange(11)).data
        np.testing.assert_array_equal(full.view(np.uint8), want.view(np.uint8))

    def test_rows_finite(self):
        full = make_space().output_item_vectors().data
        assert np.isfinite(full).all()

    def test_scoring_consistency(self):
        space = make_space(num_items=4, dim=5, seed=1)
        user = np.random.default_rng(0).normal(size=5).astype(np.float32)
        full = space.output_item_vectors().data @ user
        per_item = np.array(
            [float(space.embed_items([i]).data[0] @ user) for i in range(4)],
            dtype=np.float32,
        )
        np.testing.assert_allclose(full, per_item, rtol=1e-6)


class TestGradients:
    def test_table_row_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        ids = np.array([0, 2, 2, 4])
        weights = rng.normal(size=(4, 5))

        # run the whole check in float64 so the finite differences are tight
        space = make_space(num_items=6, dim=5, seed=11)
        names = ["item_table", "fuse_w1", "fuse_b1", "fuse_w2", "fuse_b2"]
        params = [getattr(space, n) for n in names]
        for p in params:
            p.data = p.data.astype(np.float64)

        loss = T.sum_all(T.mul(space.embed_items(ids), T.Tensor(weights)))
        loss.backward()

        def make_loss(arrays):
            for p, arr in zip(params, arrays):
                p.data = arr
            return float(np.sum(space.embed_items(ids).data * weights))

        numeric = finite_difference(make_loss, [p.data for p in params])
        for name, p, num in zip(names, params, numeric):
            err = np.max(np.abs(p.grad - num) / np.maximum(1.0, np.abs(num)))
            assert err < 1e-4, f"{name}: {err}"

    def test_untouched_rows_get_no_gradient(self):
        space = make_space(num_items=8, dim=4)
        out = space.embed_items([1, 3])
        T.sum_all(out).backward()
        grad = space.item_table.grad
        touched = {1, 3}
        for i in range(8):
            if i in touched:
                assert np.abs(grad[i]).sum() > 0
            else:
                assert np.abs(grad[i]).sum() == 0
