"""The model's structure counted against the paper's datapath figures.

The test-side specification (:class:`ComposedDatapath`) is walked
generically for the fabric primitives it is built from, and the counts are
compared with the catalog's published DRAB-LOCUS datapath figures. The
block RAMs go into tiles by the packing rule
:func:`~drablocus.tables.datapath_bram_utilization` states: two substitution
RAMs share a tile, and each product RAM has one to itself.
"""

from composed_datapath import ComposedDatapath
from drablocus.fabric import BramModel, DspXorSlice, Register
from drablocus.metrics import default_catalog
from drablocus.tables import build_mixcolumns_image, build_sbox_image

PRIMITIVES = (BramModel, DspXorSlice, Register)
SUBSTITUTION_RAMS_PER_TILE = 2
PRODUCT_RAMS_PER_TILE = 1


def primitives(root) -> list:
    """Every fabric primitive reachable from ``root`` through attributes,
    lists and tuples, each once."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, PRIMITIVES):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def census(root) -> dict[str, int]:
    parts = primitives(root)
    rams = [p for p in parts if isinstance(p, BramModel)]
    images = [ram.image for ram in rams]
    substitution = images.count(build_sbox_image())
    product = images.count(build_mixcolumns_image())
    assert substitution + product == len(rams), "a RAM holds neither table image"
    return {
        "dsps": sum(isinstance(p, DspXorSlice) for p in parts),
        "flip_flops": sum(p.width for p in parts if isinstance(p, Register)),
        "rams": len(rams),
        "brams": -(-substitution // SUBSTITUTION_RAMS_PER_TILE)
        + -(-product // PRODUCT_RAMS_PER_TILE),
    }


def test_census_of_the_specification_matches_the_published_datapath_figures():
    published = default_catalog().design("DRAB-LOCUS").datapath
    assert census(ComposedDatapath()) == {
        "dsps": published.dsps,
        "flip_flops": published.flip_flops,
        "rams": 16,
        "brams": published.brams,
    }
