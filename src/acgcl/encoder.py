"""GCN encoder producing node embeddings for stacks of subgraphs and their
mirrors.

Propagation per layer: H <- prelu((An @ H) @ W, slope) where An is the
symmetrically normalized adjacency with self loops added. Every subgraph of a
batch has the same size k, so a batch is one (n, k, k) stack of An blocks and
one (n * k, d) feature matrix. A run keeps its views as bool 0/1 stacks,
and ``gcn_forward_batched`` normalizes each batch it is given as it
propagates it (``sym_normalized_adjacency``).
A layer is the propagation An @ H and one ``linear_prelu`` node, which keeps
An @ H and W but not their product. On the constant input features An @ X
is a constant: layer 1 records no propagation, and its backward pass forms
only the gradients of W and the slope. One or two layers; slopes are learnable scalars initialized at 0.25;
weights use seeded uniform Glorot initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, SizeError
from .util import ROLE_PARAMS, rng_for


@dataclass
class GcnParams:
    weights: list[ad.Tensor]    # per-layer (d_in, d_out)
    slopes: list[ad.Tensor]     # per-layer scalar prelu slopes

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def all_parameters(self) -> list[ad.Tensor]:
        return [*self.weights, *self.slopes]


def init_gcn_params(in_dim: int, out_dim: int, n_layers: int, seed: int) -> GcnParams:
    if n_layers not in (1, 2):
        raise ConfigError(f"gcn_layers: must be 1 or 2, got {n_layers}")
    rng = rng_for(seed, ROLE_PARAMS)
    dims = [in_dim] + [out_dim] * n_layers
    weights, slopes = [], []
    for layer in range(n_layers):
        fan_in, fan_out = dims[layer], dims[layer + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
        slopes.append(ad.parameter(np.asarray(0.25)))
    return GcnParams(weights=weights, slopes=slopes)


def sym_normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 with degrees taken after adding self loops, for
    one 0/1 (k, k) adjacency, bool or float, or a (..., k, k) stack of them.

    Entry (i, j) is fl(s_i * s_j) with s = 1 / sqrt(deg) where A + I is 1,
    and +0.0 elsewhere: the outer product of s, masked by A, with s_i^2
    added on the diagonal (doubled where A has a self loop). Those are the
    bits of scaling the float A + I by s on both sides, in a third of the
    time. Degrees and the outer product go through ``einsum``, whose loops
    beat numpy's reductions and broadcasts over short rows."""
    adjacency = np.asarray(adjacency, dtype=bool)
    diagonal = np.arange(adjacency.shape[-1])
    degree = np.einsum("...ij->...i", adjacency.view(np.uint8), dtype=np.intp)
    inv_sqrt = 1.0 / np.sqrt(degree + 1.0)
    a_hat = np.einsum("...i,...j->...ij", inv_sqrt, inv_sqrt)
    a_hat *= adjacency
    a_hat[..., diagonal, diagonal] += inv_sqrt * inv_sqrt
    return a_hat


def gcn_forward_batched(params: GcnParams, views: np.ndarray, features_flat, *,
                        centers_only: bool, ids=slice(None)) -> ad.Tensor:
    """Embed many subgraphs at once.

    views: a (n, k, k) stack of 0/1 adjacencies, bool or numbers, of which
    the n_subgraphs rows ``ids``, all by default, are normalized here into
    the constant An blocks. Gathering them here frees the gathered 0/1
    batch before it propagates.
    features_flat: (n_subgraphs * k, in_dim). Row block i of the result is
    the (k, d) embedding of subgraph i. With ``centers_only`` the last
    layer propagates at full width but sends only each subgraph's center
    row (its first) through its weight and slope, and row i of the
    (n_subgraphs, d) result is the center embedding of subgraph i.
    """
    a_hat_blocks = sym_normalized_adjacency(views[ids])
    h = ad.as_tensor(features_flat)
    last = params.n_layers - 1
    for layer, (weight, slope) in enumerate(zip(params.weights, params.slopes)):
        h = ad.block_matmul(a_hat_blocks, h)
        if centers_only and layer == last:
            h = ad.take_rows(h, np.arange(0, h.shape[0], a_hat_blocks.shape[-1]))
        h = ad.linear_prelu(h, weight, slope)
    return h


def derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform permutation repaired to have no fixed point (n >= 2)."""
    if n < 2:
        raise SizeError("derangement needs at least 2 elements")
    perm = rng.permutation(n)
    fixed = np.flatnonzero(perm == np.arange(n))
    if fixed.size == 1:
        i = int(fixed[0])
        j = (i + 1) % n
        perm[i], perm[j] = perm[j], perm[i]
    elif fixed.size > 1:
        perm[fixed] = perm[np.roll(fixed, -1)]
    return perm
