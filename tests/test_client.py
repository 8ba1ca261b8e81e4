"""Layered encoding tests: parameters, placement grid, columns, ingestion."""

import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from math import comb

import numpy as np
import pytest

from layeragg import client
from layeragg.client import (
    LayerMap,
    SchemeParams,
    encode_client,
    format_layer_grid,
    load_gradient,
    partition_gradient,
    random_gradient,
    reassemble_gradient,
)
from layeragg.errors import ConfigurationError
from layeragg.gf import GF
from layeragg.mds import decode_from, encode, make_generator


@pytest.fixture(scope="module")
def gf8():
    return GF(8)


def test_derived_quantities():
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    assert params.layers == comb(6, 4) == 15
    assert params.lam == 30
    assert params.d == 4
    assert params.p_padded == 120
    assert params.b == comb(5, 3) == 10
    assert params.alpha == comb(4, 2) == 6
    # counting identities
    assert params.lam * params.d == params.p_padded
    assert params.b * params.n_h == params.layers * (params.nu + params.s)


def test_derived_quantities_are_computed_once_and_equality_uses_the_fields(monkeypatch):
    calls = []
    real_comb = client.comb

    def counting_comb(n, k):
        calls.append((n, k))
        return real_comb(n, k)

    monkeypatch.setattr(client, "comb", counting_comb)
    fields = dict(p=121, n_e=7, n_h=6, s=2, nu=2)
    params, fresh = SchemeParams(**fields), SchemeParams(**fields)
    names = ("layers", "lam", "d", "p_padded", "b", "alpha", "layer_map")
    first = [getattr(params, name) for name in names]
    assert first[:6] == [15, 30, 5, 150, 10, 6]
    made = len(calls)
    assert made == 3  # one comb each for layers, b and alpha
    assert [getattr(params, name) for name in names] == first
    assert len(calls) == made
    # the cached values do not enter equality or the hash
    assert params == fresh and hash(params) == hash(fresh)
    assert hash(params) == hash(tuple(fields.values()))
    assert params != replace(params, p=120) and replace(params, p=120).d == 4
    with pytest.raises(FrozenInstanceError):
        params.p = 120


def test_padding_rounds_up():
    params = SchemeParams(p=100, n_e=2, n_h=4, s=1, nu=2)
    assert params.lam == 8
    assert params.d == 13
    assert params.p_padded == 104


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=0, n_e=1, n_h=4, s=1, nu=1),
        dict(p=8, n_e=0, n_h=4, s=1, nu=1),
        dict(p=8, n_e=1, n_h=1, s=1, nu=1),
        dict(p=8, n_e=1, n_h=4, s=0, nu=1),
        dict(p=8, n_e=1, n_h=4, s=4, nu=1),
        dict(p=8, n_e=1, n_h=4, s=1, nu=0),
        dict(p=8, n_e=1, n_h=4, s=1, nu=4),
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SchemeParams(**kwargs)


def test_layer_map_pairs_in_lexicographic_order():
    layers = LayerMap(4, 2)
    assert list(layers) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert list(LayerMap(4, 4)) == [(0, 1, 2, 3)]
    assert LayerMap(6, 4)[0] == (0, 1, 2, 3)


def test_layer_map_column_counts():
    for n_h in (4, 5, 6):
        for k in range(1, n_h + 1):
            layers = LayerMap(n_h, k)
            b = comb(n_h - 1, k - 1)
            assert layers.cells.shape == (n_h, b)
            for j in range(n_h):
                assert len(layers.column_layers(j)) == b
    with pytest.raises(ConfigurationError):
        LayerMap(4, 5)


def test_layer_map_positions_list_each_helpers_cells_layers_ascending():
    for n_h in range(1, 9):
        for k in range(1, n_h + 1):
            layers = LayerMap(n_h, k)
            listing = [[] for _ in range(n_h)]
            for layer, subset in enumerate(layers):
                for slot, h in enumerate(subset):
                    listing[h].append((layer, slot))
            count = len(layers.slot_helpers)
            assert layers.positions.tolist() == [[l * k + t for l, t in cells] for cells in listing]
            assert layers.cells.tolist() == [[t * count + l for l, t in cells] for cells in listing]
            for j in range(n_h):
                assert layers.column_layers(j) == tuple(l for l, _ in listing[j])
            for table in (layers.slot_helpers, layers.positions, layers.cells):
                assert not table.flags.writeable


def test_layer_map_holds_three_tables_alone():
    # 91,390 layers of 4 slots: a fourth table, or a tuple per layer, would
    # hold at least 2.8 MiB more
    tracemalloc.start()
    try:
        layers = LayerMap(40, 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = comb(40, 4) * 4 * np.dtype(np.intp).itemsize
    assert layers.slot_helpers.nbytes == table
    assert held <= 3 * table + (1 << 20)


@pytest.mark.parametrize("name", ["p", "n_e", "n_h", "s", "nu"])
@pytest.mark.parametrize("bad", [2.0, 2.5, True, "2"], ids=["float", "fraction", "bool", "str"])
def test_scheme_params_reject_a_field_that_is_not_an_integer(name, bad):
    # unchecked, p=24.5 gives d = 4.0, and n_h=4.0 fails inside comb
    good = dict(p=24, n_e=2, n_h=4, s=1, nu=2)
    with pytest.raises(ConfigurationError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        SchemeParams(**{**good, name: bad})
    # numpy integers stay accepted
    assert SchemeParams(**{**good, name: np.int64(good[name])}) == SchemeParams(**good)


def test_layer_map_row_lookup():
    layers = LayerMap(4, 3)
    # helper 0 appears in layers 0,1,2 at rows 0,1,2 of its column
    assert layers.column_layers(0) == (0, 1, 2)
    assert layers.column_layers(0).index(1) == 1
    with pytest.raises(ValueError):
        layers.column_layers(0).index(3)  # layer 3 = (1,2,3) skips helper 0


def test_partition_round_trip_exact(gf8):
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)  # lam=8, d=3
    g = np.arange(24, dtype=np.uint8)
    blocks = partition_gradient(g, params, gf8)
    assert blocks.shape == (4, 2, 3)
    assert np.array_equal(blocks.reshape(-1), g)
    assert np.array_equal(reassemble_gradient(blocks, params), g)


def test_partition_pads_with_zeros(gf8):
    params = SchemeParams(p=21, n_e=1, n_h=4, s=1, nu=2)  # lam=8, d=3, padded=24
    g = np.arange(1, 22, dtype=np.uint8)
    blocks = partition_gradient(g, params, gf8)
    flat = blocks.reshape(-1)
    assert np.array_equal(flat[:21], g)
    assert np.array_equal(flat[21:], np.zeros(3, dtype=np.uint8))
    assert np.array_equal(reassemble_gradient(blocks, params), g)


def test_single_layer_when_nu_is_max(gf8):
    # nu = n_h - s puts everything in one layer with three subvectors
    params = SchemeParams(p=9, n_e=1, n_h=4, s=1, nu=3)
    assert params.layers == 1 and params.lam == 3 and params.b == 1
    blocks = partition_gradient(np.arange(9, dtype=np.uint8), params, gf8)
    assert blocks.shape == (1, 3, 3)


def test_encode_client_zero_gradient(gf8):
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)
    code = make_generator(gf8, 2, 1)
    arr = encode_client(np.zeros(24, dtype=np.uint8), params, code)
    assert not arr.fragments.any()


def test_encode_client_grid_matches_four_helper_layout(gf8):
    # n_h=4, s=1, nu=2: layers (0,1,2),(0,1,3),(0,2,3),(1,2,3); layer 2 holds
    # (g0, _, g1, p0) so helper 0 sees g0, helper 2 sees g1, helper 3 parity.
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)
    code = make_generator(gf8, 2, 1)
    g = np.arange(24, dtype=np.uint8)
    arr = encode_client(g, params, code)
    blocks = partition_gradient(g, params, gf8)
    assert params.layer_map[2] == (0, 2, 3)
    from layeragg.mds import encode as mds_encode

    for layer in range(4):
        assert np.array_equal(arr.fragments[layer], mds_encode(code, blocks[layer]))
    # systematic fragments are the raw subvectors
    assert np.array_equal(arr.fragments[2, 0], blocks[2, 0])
    assert np.array_equal(arr.fragments[2, 1], blocks[2, 1])


def test_encode_client_nu_one_has_six_pair_layers(gf8):
    params = SchemeParams(p=12, n_e=1, n_h=4, s=1, nu=1)
    code = make_generator(gf8, 1, 1)
    arr = encode_client(np.arange(12, dtype=np.uint8), params, code)
    assert arr.fragments.shape == (6, 2, 2)
    assert params.b == 3


def test_columns_have_b_symbols_and_match_grid(gf8):
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)
    code = make_generator(gf8, 2, 1)
    arr = encode_client(np.arange(24, dtype=np.uint8), params, code)
    total = 0
    for j in range(4):
        col = arr.column(j)
        assert col.shape == (params.b, params.d)
        total += col.shape[0]
    assert total == params.layers * (params.nu + params.s)
    # first column rows are layers 0,1,2 at slot 0
    assert params.layer_map.column_layers(0) == (0, 1, 2)
    for row, layer in enumerate(params.layer_map.column_layers(0)):
        assert np.array_equal(arr.column(0)[row], arr.fragments[layer, 0])


@pytest.mark.parametrize("m", [4, 8, 16])
@pytest.mark.parametrize(
    "p,n_h,s,nu",
    [(120, 6, 2, 2), (121, 6, 2, 2), (11, 5, 2, 2), (1, 5, 2, 2), (24, 4, 1, 3)],
    ids=["exact", "padded", "pad-spans-layers", "one-symbol", "one-layer"],
)
def test_columns_are_the_grid_gather_of_per_layer_encodes(m, p, n_h, s, nu):
    fld = GF(m)
    params = SchemeParams(p=p, n_e=1, n_h=n_h, s=s, nu=nu)
    code = make_generator(fld, nu, s)
    g = random_gradient(np.random.default_rng([m, p]), fld, p)
    arr = encode_client(g, params, code)
    blocks = partition_gradient(g, params, fld)
    grid = np.stack([encode(code, blocks[layer]) for layer in range(params.layers)])
    layers = params.layer_map
    columns = np.array(
        [[grid[layer, layers[layer].index(j)] for layer in layers.column_layers(j)] for j in range(n_h)]
    )
    assert arr.columns.dtype == fld.dtype and np.array_equal(arr.columns, columns)
    assert np.array_equal(arr.fragments, grid)
    assert not arr.columns.flags.writeable
    for j in range(n_h):
        assert np.shares_memory(arr.column(j), arr.columns)
        assert np.array_equal(arr.column(j), columns[j])


def test_per_layer_any_nu_subset_decodes(gf8):
    from itertools import combinations

    params = SchemeParams(p=30, n_e=1, n_h=5, s=2, nu=2)
    code = make_generator(gf8, 2, 2)
    rng = np.random.default_rng(0)
    g = random_gradient(rng, gf8, 30)
    arr = encode_client(g, params, code)
    blocks = partition_gradient(g, params, gf8)
    for layer in range(params.layers):
        for slots in combinations(range(4), 2):
            got = decode_from(code, list(slots), arr.fragments[layer, list(slots)])
            assert np.array_equal(got, blocks[layer])


def test_encoding_is_linear_in_the_gradient(gf8):
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)
    code = make_generator(gf8, 2, 1)
    rng = np.random.default_rng(9)
    ga = random_gradient(rng, gf8, 24)
    gb = random_gradient(rng, gf8, 24)
    fa = encode_client(ga, params, code).fragments
    fb = encode_client(gb, params, code).fragments
    fsum = encode_client(ga ^ gb, params, code).fragments
    assert np.array_equal(fa ^ fb, fsum)


def test_encode_client_writes_into_a_reused_codeword_buffer(gf8):
    params = SchemeParams(p=30, n_e=2, n_h=5, s=2, nu=2)
    code = make_generator(gf8, 2, 2)
    rng = np.random.default_rng(4)
    buffer = np.empty((4, params.layers * params.d), dtype=np.uint8)
    for _ in range(2):
        g = random_gradient(rng, gf8, 30)
        arr = encode_client(g, params, code, out=buffer)
        assert arr.codeword is buffer
        assert np.array_equal(arr.columns, encode_client(g, params, code).columns)
    for bad in (buffer[:, 1:], buffer.astype(np.uint16), np.empty((buffer.shape[1], 4), np.uint8).T):
        with pytest.raises(ValueError, match="out must be a C-contiguous"):
            encode_client(g, params, code, out=bad)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_each_codeword_of_a_batch_is_the_encode_of_its_gradient_alone(monkeypatch, m):
    # L*d = 5*3 is odd, so at m <= 8 each row of a batch of one edge ends
    # in the parity product's odd-symbol tail, and a longer batch's rows
    # hold codewords that straddle 16-bit units
    field = GF(m)
    params = SchemeParams(p=29, n_e=7, n_h=5, s=2, nu=2)
    n, width = params.nu + params.s, params.layers * params.d
    assert width % 2
    code = make_generator(field, params.nu, params.s)
    rng = np.random.default_rng(m)
    grads = [random_gradient(rng, field, params.p) for _ in range(params.n_e)]
    alone = [encode_client(g, params, code) for g in grads]
    buffer = np.empty(n * width * params.n_e, dtype=field.dtype)
    for edges in (1, 2, 3, params.n_e):
        monkeypatch.setattr(client, "ENCODE_BYTES", edges * n * width * field.element_bytes)
        batch = client.edges_per_batch(params, field)
        assert batch == edges
        for start in range(0, params.n_e, batch):
            part = grads[start : start + batch]
            out = buffer[: len(part) * n * width].reshape(n, -1)
            batched = encode_client(iter(part), params, code, out=out)
            for b, array in enumerate(batched):
                assert np.shares_memory(array.codeword, out[:, b * width : (b + 1) * width])
            for arrays in (
                batched,
                encode_client(part, params, code),
                encode_client(np.stack(part), params, code),
            ):
                assert len(arrays) == len(part)
                for b, array in enumerate(arrays):
                    want = alone[start + b]
                    assert array.codeword.shape == (n, width)
                    assert np.array_equal(array.codeword, want.codeword)
                    assert np.array_equal(array.columns, want.columns)
                    assert np.array_equal(array.fragments, want.fragments)


def test_a_batch_must_fill_its_out_buffer(gf8):
    params = SchemeParams(p=29, n_e=3, n_h=5, s=2, nu=2)
    code = make_generator(gf8, 2, 2)
    g = np.zeros(29, dtype=np.uint8)
    out = np.empty((4, 3 * params.layers * params.d), dtype=np.uint8)
    assert len(encode_client([g] * 3, params, code, out=out)) == 3
    for count in (2, 4):
        with pytest.raises(ValueError, match="the batch has"):
            encode_client(iter([g] * count), params, code, out=out)
    for bad in (out[:, 1:], out[:, :-1].copy(), out[:3]):
        with pytest.raises(ValueError, match=re.escape("out must be a C-contiguous (4, B*15)")):
            encode_client([g], params, code, out=bad)
    with pytest.raises(ValueError, match=re.escape("out must be a C-contiguous (4, 15)")):
        encode_client(g, params, code, out=out)


def test_encode_client_rejects_mismatched_pieces(gf8):
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)
    with pytest.raises(ValueError):
        encode_client(np.zeros(24, dtype=np.uint8), params, make_generator(gf8, 2, 2))


def test_format_layer_grid_shows_fragment_labels():
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)
    grid = format_layer_grid(params)
    lines = grid.splitlines()
    assert len(lines) == 5
    assert "g0" in lines[1] and "p0" in lines[1]


def test_load_gradient_json_and_raw(tmp_path, gf8):
    jpath = tmp_path / "g.json"
    jpath.write_text(json.dumps([0, 1, 255, 256, 300]))
    g = load_gradient(jpath, gf8, p=5)
    assert np.array_equal(g, np.array([0, 1, 255, 0, 44], dtype=np.uint8))

    rpath = tmp_path / "g.bin"
    rpath.write_bytes(bytes([7, 0, 250]))
    g2 = load_gradient(rpath, gf8, p=3)
    assert np.array_equal(g2, np.array([7, 0, 250], dtype=np.uint8))

    with pytest.raises(ConfigurationError):
        load_gradient(rpath, gf8, p=5)

    f16 = GF(16)
    r16 = tmp_path / "g16.bin"
    r16.write_bytes((0x0201).to_bytes(2, "little") + (0xFFFF).to_bytes(2, "little"))
    g3 = load_gradient(r16, f16, p=2)
    assert np.array_equal(g3, np.array([0x0201, 0xFFFF], dtype=np.uint16))
    with pytest.raises(ConfigurationError):
        load_gradient(rpath, f16, p=2)  # 3 bytes is not a multiple of 2

    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}')
    with pytest.raises(ConfigurationError):
        load_gradient(bad, gf8, p=1)


def test_random_gradient_deterministic(gf8):
    a = random_gradient(np.random.default_rng(5), gf8, 10)
    b = random_gradient(np.random.default_rng(5), gf8, 10)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8


def _generator_state(rng: np.random.Generator) -> dict:
    """The bit generator's state; the pending half-word counts only while
    has_uint32 says there is one."""
    state = rng.bit_generator.state
    if not state.get("has_uint32", 1):
        state.pop("uinteger")
    state["state"] = {key: np.asarray(value).tolist() for key, value in state["state"].items()}
    return state


RANDOM_GRADIENT_LENGTHS = [1, 2, 3, 5, 7, 53760, 2**20 + 1]


@pytest.mark.parametrize("m", [4, 8, 16])
@pytest.mark.parametrize(
    "bits", [np.random.PCG64, np.random.MT19937], ids=["PCG64", "MT19937"]
)
def test_random_gradient_is_integers_draw_for_draw(m, bits):
    # Consecutive draws of odd and even byte counts leave a pending 32-bit
    # half-word in PCG64 after some of them, which the next draw must use.
    # MT19937 puts its first 32-bit draw in the high half of a 64-bit one,
    # so it matches only if it takes integers.
    fld = GF(m)
    ours, theirs = (np.random.Generator(bits(1)) for _ in range(2))
    for p in RANDOM_GRADIENT_LENGTHS + RANDOM_GRADIENT_LENGTHS[::-1] + [3, 3]:
        got = random_gradient(ours, fld, p)
        want = theirs.integers(0, fld.order, size=p, dtype=fld.dtype)
        assert got.dtype == want.dtype == fld.dtype and got.shape == (p,)
        assert np.array_equal(got, want), p
        assert _generator_state(ours) == _generator_state(theirs), p
    assert ours.integers(0, 2**63, size=5).tolist() == theirs.integers(0, 2**63, size=5).tolist()
    assert np.array_equal(ours.random(3), theirs.random(3))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("p", RANDOM_GRADIENT_LENGTHS)
def test_random_gradient_after_a_pending_half_word(m, p):
    fld = GF(m)
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for rng in (ours, theirs):
        rng.integers(0, 2**32, size=1, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"]
    got = random_gradient(ours, fld, p)
    assert np.array_equal(got, theirs.integers(0, fld.order, size=p, dtype=fld.dtype))
    assert _generator_state(ours) == _generator_state(theirs)
    assert ours.integers(0, 2**32, size=3).tolist() == theirs.integers(0, 2**32, size=3).tolist()


@pytest.mark.parametrize(
    "text, needle",
    [
        ("[1.7, 2, 3]", "entry 0 is 1.7"),
        ("[1, true, 3]", "entry 1 is True"),
        ('[1, 2, "a"]', "entry 2 is 'a'"),
        ("[1, [2], 3]", "entry 1 is [2]"),
        ("[1, null, 3]", "entry 1 is None"),
        ("[1, 2", "invalid JSON"),
    ],
)
def test_load_gradient_rejects_non_integer_json(tmp_path, gf8, text, needle):
    path = tmp_path / "g.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=re.escape(needle)) as info:
        load_gradient(path, gf8, p=3)
    assert str(path) in str(info.value)


def test_load_gradient_truncates_integers_past_64_bits(tmp_path, gf8):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([2**70 + 5, -1, 0]))
    g = load_gradient(path, gf8, p=3)
    assert g.dtype == gf8.dtype
    assert g.tolist() == [5, 255, 0]
