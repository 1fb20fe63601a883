"""The ragged-lengths contract.

Every public entry point that takes the row count of each sequence packed
in its input rejects a bad lengths array with one and the same one-line
ValueError, raised by ``tensor.check_lengths`` and not by numpy.
"""

import numpy as np
import pytest

import nextsession.tensor as T
from nextsession.attention import EncoderBlock, GRUCell
from nextsession.model import NextSessionModel
from nextsession.sequence_encoder import BACKBONES, SequenceEncoder, SseConfig
from nextsession.session_encoder import KINDS, IseConfig, SessionEncoder
from nextsession.trainer import TrainConfig

from helpers import ragged

DIM, ROWS = 4, 3

# none of these is the row count of each sequence packed in ROWS rows
BAD_LENGTHS = {"empty": [], "2-D": [[1, 2]], "zero": [3, 0], "negative": [-1, 4],
               "wrong-sum": [1, 1], "ragged": [[1], [2, 3]]}


def rows():
    return T.Tensor(np.random.default_rng(0).normal(size=(ROWS, DIM)).astype(np.float32))


def store():
    return T.Parameters(np.random.default_rng(0))


def call_gru(lengths):
    cell = GRUCell(DIM, DIM, store(), "gru")
    return T.gru(rows(), lengths, cell.w, cell.b)


def call_attention(lengths):
    block = EncoderBlock(DIM, 2, store(), "block")
    return T.attention(rows(), lengths, False, block.heads, block.wqkv, block.wo)


def call_encoder_block(lengths):
    block = EncoderBlock(DIM, 2, store(), "block")
    return block(rows(), lengths, causal=True)


def call_encode_sessions(kind):
    return lambda lengths: SessionEncoder(IseConfig(kind=kind), DIM, store()).encode_sessions(
        rows(), lengths)


def call_encode(backbone):
    cfg = SseConfig(backbone=backbone, layers=1, heads=2, max_positions=8)
    return lambda lengths: SequenceEncoder(cfg, DIM, store()).encode(rows(), lengths=lengths)


def model():
    cfg = TrainConfig(dim=DIM, sse=SseConfig(layers=1, heads=2, max_positions=8))
    return NextSessionModel(cfg, 5, store())


ENTRY_POINTS = {
    "tensor.gru": call_gru,
    "tensor.attention": call_attention,
    "tensor.encoder_block": call_encoder_block,
    "tensor.segment_reduce.mean": lambda lengths: T.segment_reduce(rows(), lengths, "mean"),
    "tensor.segment_reduce.max": lambda lengths: T.segment_reduce(rows(), lengths, "max"),
    **{f"encode_sessions.{kind}": call_encode_sessions(kind) for kind in KINDS},
    **{f"encode.{backbone}": call_encode(backbone) for backbone in BACKBONES},
    "forward_sessions": lambda lengths: model().forward_sessions((np.arange(ROWS), lengths)),
    "user_vector": lambda lengths: model().user_vector(ragged([[0], [1], [2]]), lengths),
}


@pytest.mark.parametrize("bad", BAD_LENGTHS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_lengths_get_the_one_message(entry, bad):
    lengths = BAD_LENGTHS[bad]
    with pytest.raises(ValueError) as err:
        ENTRY_POINTS[entry](lengths)
    assert str(err.value) == (f"lengths {lengths} must be a non-empty 1-D list of counts >= 1 "
                              f"summing to the {ROWS} rows")
    assert err.traceback[-1].name == "check_lengths"


@pytest.mark.parametrize("lengths", [[1, 2], (3,), np.array([2, 1], np.int32)],
                         ids=["list", "tuple", "int32"])
def test_good_lengths_come_back_as_int64(lengths):
    got = T.check_lengths(lengths, ROWS)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.asarray(lengths))
