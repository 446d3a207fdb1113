"""Per-node arrays of a tree's step blocks, for tests that compare against them."""

import numpy as np


def per_node(tree, name, k):
    """Step k's `name` array ("cond_prob", "dw" or "reveal_label") with one entry per
    node: the child block of one parent tiled over the parents of step k - 1.  Step 0
    is its roots, stored per node already."""
    block = getattr(tree, name)[k]
    if k == 0:
        return block
    return np.tile(block, (tree.n_nodes(k - 1),) + (1,) * (block.ndim - 1))
