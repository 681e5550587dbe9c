"""Composed-path building blocks for the tests' tape oracles.

The model runs every projection inside a fused node, whose adapter term is
adapters.adapted_forward on arrays. The oracles in test_moe_fused.py and
test_attention_fused.py rebuild the graphs those nodes replaced from tape
ops, and `project` is the projection they compose them from.
"""

from hotmoe.adapters import AdapterPair
from hotmoe.tensor import Tensor


def project(x: Tensor, W: Tensor, pair: AdapterPair | None) -> Tensor:
    """x @ W plus, with pair, the adapter term s * (x A) B, on the tape."""
    if pair is None:
        return x @ W
    return x @ W + ((x @ pair.A) @ pair.B) * pair.scale
