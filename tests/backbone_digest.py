"""Digest of a frozen backbone, for tests that show it unchanged."""

import hashlib


def backbone_arrays(backbone):
    """Every frozen array: the two embeddings, then each block's weights."""
    yield backbone.patch_embed
    yield backbone.cls_embed
    for blk in backbone.blocks:
        yield from (blk.w_qkv, blk.w_out, blk.w_up, blk.w_down)


def backbone_checksum(backbone) -> str:
    digest = hashlib.sha256()
    for arr in backbone_arrays(backbone):
        digest.update(arr.tobytes())
    return digest.hexdigest()
