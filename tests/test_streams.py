import numpy as np
import pytest

from poissonpolymer.streams import fnv1a64, splitmix64, stream_key, substream, substreams


def test_keys_are_64_bit():
    for key in (stream_key(0, "paths", 0), stream_key(2 ** 64 - 1, "cloud", 10 ** 9)):
        assert 0 <= key < 2 ** 64


def test_distinct_tags_and_indices_decorrelate():
    base = stream_key(42, "paths", 0)
    assert stream_key(42, "paths", 1) != base
    assert stream_key(42, "cloud", 0) != base
    assert stream_key(43, "paths", 0) != base


def test_frozen_reference_values():
    # pinned so the documented mixing rule cannot drift silently
    assert stream_key(0, "paths", 0) == 5420494297485046174
    assert stream_key(12345, "cloud", 7) == 13550411154129448752
    assert stream_key(2 ** 64 - 1, "cloud-extra", 3) == 5248502668513570113


def test_substream_replay_and_independence():
    a = substream(7, "paths", 1).random(5)
    b = substream(7, "paths", 1).random(5)
    c = substream(7, "paths", 2).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mix_primitives_stable():
    assert splitmix64(0) == 16294208416658607535
    assert fnv1a64("paths") == fnv1a64("paths")
    assert fnv1a64("paths") != fnv1a64("cloud")


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("tag", ["paths", "cloud", "cloud-extra"])
@pytest.mark.parametrize("index", [0, 10 ** 9])
def test_generator_is_the_documented_philox(seed, tag, index):
    # the stream rule's Philox key, handed to numpy's own key argument (as
    # uint64: a list of Python ints above 2^53 would pass through float64)
    k = stream_key(seed, tag, index)
    key = np.array([k, splitmix64(k ^ 0x9E3779B97F4A7C15)], dtype=np.uint64)
    reference = np.random.Philox(key=key)
    gen = substream(seed, tag, index)
    state, expected = gen.bit_generator.state, reference.state
    assert state["bit_generator"] == expected["bit_generator"] == "Philox"
    for part in ("counter", "key"):
        assert np.array_equal(state["state"][part], expected["state"][part])
    assert np.array_equal(state["buffer"], expected["buffer"])
    assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) == \
        (expected["buffer_pos"], expected["has_uint32"], expected["uinteger"])
    assert np.array_equal(gen.integers(0, 2 ** 63, size=16),
                          np.random.Generator(reference).integers(0, 2 ** 63, size=16))


def test_substreams_share_no_state():
    a, b = substream(5, "cloud", 3), substream(5, "cloud", 3)
    assert a.bit_generator is not b.bit_generator
    a.random(1000)
    assert np.array_equal(b.random(4), substream(5, "cloud", 3).random(4))


def _state(gen):
    state = gen.bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["state"]["key"]),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


def _documented_philox(seed, tag, index):
    k = stream_key(seed, tag, index)
    key = np.array([k, splitmix64(k ^ 0x9E3779B97F4A7C15)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("tag", ["paths", "cloud", "cloud-extra"])
def test_substreams_equal_substream_bit_for_bit(seed, tag):
    indices = [0, 1, 10 ** 9, 2 ** 64 - 1, 1]
    taken = 0
    for index, gen in zip(indices, substreams(seed, tag, indices)):
        references = substream(seed, tag, index), _documented_philox(seed, tag, index)
        for ref in references:
            assert _state(gen) == _state(ref)
        u = gen.random(2)
        word = gen.integers(0, 2 ** 32, dtype=np.uint32)
        for ref in references:
            assert np.array_equal(u, ref.random(2))
            assert word == ref.integers(0, 2 ** 32, dtype=np.uint32)
            assert _state(gen) == _state(ref)
        # the next index must not inherit a partly used buffer or a cached uint32
        state = gen.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
        taken += 1
    assert taken == len(indices)


def test_substreams_follow_the_index_iterable_lazily():
    seen = []

    def indices():
        for index in (3, 8):
            seen.append(index)
            yield index

    gens = substreams(4, "cloud", indices())
    assert seen == []
    assert np.array_equal(next(gens).random(5), substream(4, "cloud", 3).random(5))
    assert seen == [3]
