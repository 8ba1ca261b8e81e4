"""Client-side layered vector code: parameter set, layer placement, columns.

A gradient of p field symbols is split into L*nu subvectors of length d.
Layer l is the MDS encoding of nu of them, and its nu+s coded fragments
are placed on the helper subset H_l, the l-th (nu+s)-subset of helpers
in lexicographic order. Stacking the filled cells of each helper column
gives the b symbols that are actually transmitted to that helper.

Helper and edge indices are 0-based throughout, including in JSON files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import comb
from pathlib import Path

import numpy as np

from .errors import CapExceededError, ConfigurationError
from .gf import GF, is_integer
from .mds import MdsCode, fill_parity

# encode and simulate refuse parameters whose estimated memory
# (check_memory) is above this many bytes. The cap is fixed, like the
# enumeration cap, so that the same parameters get the same exit code on
# every host; runs above it are refused even where they would fit.
MEMORY_CAP = 1 << 31

# A round encodes its edges in batches of as many codewords as fit in
# this many bytes, and at least one (edges_per_batch): one parity product
# a batch, through the code's 16-bit unit tables (GF.matmul_fixed).
ENCODE_BYTES = 5 << 18


@dataclass(frozen=True)
class SchemeParams:
    """System and code parameters with the derived layered-code quantities.

    The derived quantities are computed once per instance, on first read;
    equality and hashing use the five fields alone.

    p      gradient length in field symbols
    n_e    number of edge nodes
    n_h    number of helper nodes
    s      straggling links tolerated per edge, 1 <= s <= n_h - 1
    nu     code parameter, 1 <= nu <= n_h - s
    """

    p: int
    n_e: int
    n_h: int
    s: int
    nu: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_integer(value):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
        if self.p < 1:
            raise ConfigurationError(f"p must be positive, got {self.p}")
        if self.n_e < 1:
            raise ConfigurationError(f"n_e must be positive, got {self.n_e}")
        if self.n_h < 2:
            raise ConfigurationError(f"need at least 2 helpers, got n_h={self.n_h}")
        if not 1 <= self.s <= self.n_h - 1:
            raise ConfigurationError(
                f"s must lie in [1, n_h-1] = [1, {self.n_h - 1}], got {self.s}"
            )
        if not 1 <= self.nu <= self.n_h - self.s:
            raise ConfigurationError(
                f"nu must lie in [1, n_h-s] = [1, {self.n_h - self.s}], got {self.nu}"
            )

    @cached_property
    def layers(self) -> int:
        """L, the number of layers."""
        return comb(self.n_h, self.nu + self.s)

    @cached_property
    def lam(self) -> int:
        """lambda = L * nu, the number of gradient subvectors."""
        return self.layers * self.nu

    @cached_property
    def d(self) -> int:
        """Subvector length; the gradient is zero-padded when lam does not divide p."""
        return -(-self.p // self.lam)

    @cached_property
    def p_padded(self) -> int:
        return self.d * self.lam

    @cached_property
    def b(self) -> int:
        """Symbols per helper column (the subpacketization level)."""
        return comb(self.n_h - 1, self.nu + self.s - 1)

    @cached_property
    def alpha(self) -> int:
        """Number of s-subsets of a layer's helper set."""
        return comb(self.nu + self.s, self.s)

    @cached_property
    def layer_map(self) -> "LayerMap":
        """The placement of the layers on the helpers, shared per (n_h, nu+s)."""
        return _layer_map(self.n_h, self.nu + self.s)


class LayerMap:
    """The (nu+s)-subsets of [0, n_h) in lexicographic order, with column indexes.

    slot_helpers[l, t] is the t-th helper of subset l, ascending, and the
    map's item l is that row as a tuple. A helper holds one slot per layer,
    so its b cells, layers ascending, are positions[j] = layer * (nu+s) +
    slot of slot_helpers (one stable sort of it by helper). Helper j's
    column holds the layers column_layers(j), and cells[j, r] = slot * L +
    layer of its row r: the (n_h, b) gather that takes a slot-major
    codeword to its columns. A map holds these three read-only tables
    alone, 24 bytes a slot, since the maps are shared.
    """

    def __init__(self, n_h: int, k: int):
        if not 1 <= k <= n_h:
            raise ConfigurationError(f"subset size {k} out of range [1, {n_h}]")
        helpers = chain.from_iterable(combinations(range(n_h), k))
        self.slot_helpers = np.fromiter(helpers, np.intp, comb(n_h, k) * k).reshape(-1, k)
        self.positions = np.argsort(self.slot_helpers, axis=None, kind="stable").reshape(n_h, -1)
        layers, self.cells = np.divmod(self.positions, k)
        self.cells *= len(self.slot_helpers)
        self.cells += layers
        for table in (self.slot_helpers, self.positions, self.cells):
            table.setflags(write=False)

    def __getitem__(self, layer: int) -> tuple[int, ...]:
        return tuple(self.slot_helpers[layer].tolist())

    def __iter__(self):
        return map(self.__getitem__, range(len(self.slot_helpers)))

    def column_layers(self, j: int) -> tuple[int, ...]:
        return tuple((self.positions[j] // self.slot_helpers.shape[1]).tolist())


@lru_cache(maxsize=64)
def _layer_map(n_h: int, k: int) -> LayerMap:
    return LayerMap(n_h, k)


def partition_gradient(
    g: np.ndarray, params: SchemeParams, field: GF, out: np.ndarray | None = None
) -> np.ndarray:
    """Split (and zero-pad) a length-p gradient into an (L, nu, d) block array.

    Block (l, j) holds coordinates [(l*nu + j)*d, (l*nu + j + 1)*d) of the
    padded gradient, so concatenating blocks in (l, j) order restores it.
    out, when given, is an (L, nu, d) array (a view, say) to write the
    blocks into; only its padded tail is zeroed.
    """
    g = np.asarray(g, dtype=field.dtype)
    if g.shape != (params.p,):
        raise ValueError(f"gradient must have shape ({params.p},), got {g.shape}")
    layers, nu, d = params.layers, params.nu, params.d
    if out is None:
        out = np.empty((layers, nu, d), dtype=field.dtype)
    full = params.p // (nu * d)
    out[:full] = g[: full * nu * d].reshape(full, nu, d)
    if full < layers:
        tail = np.zeros((layers - full) * nu * d, dtype=field.dtype)
        tail[: params.p - full * nu * d] = g[full * nu * d :]
        out[full:] = tail.reshape(layers - full, nu, d)
    return out


def reassemble_gradient(blocks: np.ndarray, params: SchemeParams) -> np.ndarray:
    """Inverse of partition_gradient, truncated back to the declared length."""
    return blocks.reshape(params.p_padded)[: params.p].copy()


@dataclass(frozen=True)
class CodewordArray:
    """One edge's encoded gradient as a slot-major (nu+s, L*d) codeword:
    row k holds slot k of every layer, so cell slot*L + layer
    (LayerMap.cells' numbering) is that row of codeword.reshape(-1, d).

    columns[j], gathered on first read and read-only, holds the b cells
    sent to helper j, whose layers are params.layer_map.column_layers(j);
    column(j) is a view of it. fragments, the (L, nu+s, d) grid of every
    layer's coded fragments, is a copy for display and checks.
    """

    params: SchemeParams
    codeword: np.ndarray  # (nu+s, L*d)

    @cached_property
    def columns(self) -> np.ndarray:
        columns = self.codeword.reshape(-1, self.params.d).take(self.params.layer_map.cells, axis=0)
        columns.setflags(write=False)
        return columns

    def column(self, j: int) -> np.ndarray:
        """The b symbols sent to helper j, in increasing layer order."""
        return self.columns[j]

    @property
    def fragments(self) -> np.ndarray:
        """fragments[l, k] is the symbol placed at cell (l, H_l[k]) of the
        L x n_h grid: slot k of layer l."""
        return self.codeword.reshape(len(self.codeword), -1, self.params.d).swapaxes(0, 1).copy()


def check_code(code: MdsCode, params: SchemeParams) -> None:
    """Raise ConfigurationError unless code is the scheme's [nu+s, nu] code."""
    if (code.nu, code.s) != (params.nu, params.s):
        raise ConfigurationError(
            f"code is [{code.n},{code.nu}] but params want [{params.nu + params.s},{params.nu}]"
        )


def edges_per_batch(params: SchemeParams, field: GF) -> int:
    """Edges whose codewords one parity product encodes in a round: as
    many as fit in ENCODE_BYTES, and at least one."""
    codeword = params.layers * (params.nu + params.s) * params.d * field.element_bytes
    return max(1, ENCODE_BYTES // codeword)


def encode_client(
    g_i, params: SchemeParams, code: MdsCode, out: np.ndarray | None = None
) -> CodewordArray | list[CodewordArray]:
    """Encode one edge's gradient, a (p,) array, into one slot-major
    codeword, or an iterable of B edges' gradients into a list of B.

    A batch's codewords are the column blocks of one (nu+s, B*L*d) array,
    edge b's the b-th, so each is a view whose rows are strided.
    partition_gradient writes each gradient's message blocks into its
    codeword as it is read, and the gradient is dropped before the next
    is read, so a lazy iterable has one gradient alive at a time. Then one
    parity product encodes every layer of every edge. out, when given, is
    a C-contiguous (nu+s, B*L*d) array of the field's dtype that receives
    the codewords, B = 1 for one gradient, so batch after batch can reuse
    one buffer, each encode overwriting the last; a batch must then have
    exactly B gradients.
    """
    check_code(code, params)
    n, width, dtype = code.n, params.layers * params.d, code.field.dtype
    single = isinstance(g_i, np.ndarray) and g_i.ndim < 2
    gradients = [g_i] if single else g_i
    if out is None:
        gradients = list(gradients)
        out = np.empty((n, len(gradients) * width), dtype=dtype)
    elif (
        out.ndim != 2 or out.shape[0] != n or out.shape[1] % width or out.dtype != dtype
        or not out.flags.c_contiguous or single and out.shape[1] != width
    ):
        shape = f"({n}, {'' if single else 'B*'}{width})"
        raise ValueError(f"out must be a C-contiguous {shape} array of {dtype}")
    count = out.shape[1] // width
    # message row k of layer l of edge b is block (l, k) of its gradient
    blocks = out[: code.nu].reshape(code.nu, count, params.layers, params.d).transpose(1, 2, 0, 3)
    b = 0
    for g in gradients:
        if b == count:
            raise ValueError(f"the batch has more gradients than out's {count} codewords")
        partition_gradient(g, params, code.field, out=blocks[b])
        b += 1
        del g  # before the next is read, so one gradient of the batch is alive
    if b < count:
        raise ValueError(f"the batch has {b} gradients for out's {count} codewords")
    fill_parity(code, out)
    if single:
        return CodewordArray(params=params, codeword=out)
    return [
        CodewordArray(params=params, codeword=out[:, b * width : (b + 1) * width])
        for b in range(count)
    ]


def format_layer_grid(params: SchemeParams) -> str:
    """Render the L x n_h placement grid with g/p fragment labels."""
    header = ["layer"] + [f"H{j}" for j in range(params.n_h)]
    rows = [header]
    for layer, subset in enumerate(params.layer_map):
        cells = [""] * params.n_h
        for slot, h in enumerate(subset):
            cells[h] = f"g{slot}" if slot < params.nu else f"p{slot - params.nu}"
        rows.append([str(layer)] + cells)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


def check_memory(params: SchemeParams, field: GF, grid: bool = False) -> None:
    """Raise CapExceededError, carrying the estimate, when what a command
    holds for params is estimated above MEMORY_CAP bytes: a gradient, a
    round's encode buffer (one codeword, or ENCODE_BYTES when that is
    larger), one more array of a codeword's size (the helper columns, or
    a round's group sums), the layer map's tables (72 bytes per layer
    slot: an upper bound, as a map holds 24 and its build peaks near 32),
    a plan's per-edge cells (8 bytes per edge and layer slot) and, with
    grid, format_layer_grid's rows and text (about 12 bytes per cell: a
    pointer and the padded text). Reads only params' closed forms, so
    nothing is allocated or planned first. The message gives the estimate
    as a power of two, since it may have more digits than an int may print.
    """
    slots = params.layers * (params.nu + params.s)
    codeword = slots * params.d * field.element_bytes
    estimate = (
        params.p * field.element_bytes
        + max(codeword, ENCODE_BYTES)
        + codeword
        + 72 * slots
        + 8 * params.n_e * slots
        + grid * 12 * (params.layers + 1) * (params.n_h + 1)
    )
    if estimate > MEMORY_CAP:
        raise CapExceededError(
            f"{params} would take at least 2^{estimate.bit_length() - 1} bytes, "
            f"above the cap of 2^{MEMORY_CAP.bit_length() - 1}",
            estimate=estimate,
        )


def random_gradient(rng: np.random.Generator, field: GF, p: int) -> np.ndarray:
    """p uniform symbols: exactly rng.integers(0, field.order, size=p,
    dtype=field.dtype), leaving rng in the state that call leaves it.

    For m = 8 and 16, integers takes each symbol from consecutive 32-bit
    draws, low bytes first, and PCG64 serves 32-bit draws as the halves of
    its 64-bit outputs, low half first, keeping the high half for the next
    32-bit draw. So on a PCG64 generator the same bytes are read straight
    from 64-bit draws: a pending half first, then whole outputs, then one
    32-bit draw for an odd word left over, which keeps its high half
    pending as integers would. For 2^20 symbols at m = 8 this took 0.54
    ms against integers' 1.49 ms on a 2-vCPU Xeon host. m = 4
    draws each symbol as a bounded value, not as bits, and other bit
    generators form their 32-bit and 64-bit draws otherwise (MT19937 puts
    the first 32-bit draw in the high half), so both take integers.
    """
    width = field.element_bytes
    bits = rng.bit_generator
    if field.order != 1 << (8 * width) or type(bits) is not np.random.PCG64:
        return rng.integers(0, field.order, size=p, dtype=field.dtype)
    words = -(-p * width // 4)  # the 32-bit draws integers would take
    head = rng.integers(0, 1 << 32, size=min(words, bits.state["has_uint32"]), dtype=np.uint32)
    pairs, tail = divmod(words - head.size, 2)
    body = rng.integers(0, 1 << 64, size=pairs, dtype=np.uint64).astype("<u8", copy=False)
    if head.size or tail:
        rest = rng.integers(0, 1 << 32, size=tail, dtype=np.uint32)
        body = np.concatenate([head, body.view("<u4"), rest], dtype="<u4")
    return body.view(f"<u{width}")[:p].astype(field.dtype, copy=False)


def load_gradient(path: str | Path, field: GF, p: int) -> np.ndarray:
    """Read a gradient from a JSON integer array or a raw little-endian file.

    Raw files carry one element per ceil(m/8) bytes; values are reduced
    into the field by truncation to m bits. The file must hold p symbols,
    and a JSON entry that is not an integer (a float, a bool, a string, a
    nested list) is rejected, naming its index.
    """
    path = Path(path)
    if path.suffix == ".json":
        try:
            values = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(values, list):
            raise ConfigurationError(f"{path}: expected a JSON array of integers")
        for k, value in enumerate(values):
            if not is_integer(value):
                raise ConfigurationError(
                    f"{path}: entry {k} is {value!r}, expected an integer"
                )
        # masked as Python integers, so values past 64 bits truncate too
        g = np.array([value & (field.order - 1) for value in values], dtype=field.dtype)
    else:
        raw = path.read_bytes()
        width = field.element_bytes
        if len(raw) % width:
            raise ConfigurationError(
                f"{path}: length {len(raw)} is not a multiple of {width} bytes"
            )
        g = field.reduce(np.frombuffer(raw, dtype=f"<u{width}").astype(np.int64))
    if len(g) != p:
        raise ConfigurationError(f"{path}: got {len(g)} symbols, expected p={p}")
    return g
