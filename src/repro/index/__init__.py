"""Index substrate: a static array B+-tree and the two iDistance partition patterns.

:class:`BPlusTree` holds sorted keys and their values as plain arrays and
answers a batch of range searches with two ``searchsorted`` calls, charging
pages in closed form.  :class:`IDistanceIndex` is the standard pattern
(Fig. 1); :class:`RingIDistance` is ProMIPS' ring + sub-partition pattern
(§VI, Fig. 3).
"""

from repro.index.bptree import BPlusTree
from repro.index.idistance import IDistanceIndex
from repro.index.ring_idistance import RingIDistance

__all__ = [
    "BPlusTree",
    "IDistanceIndex",
    "RingIDistance",
]
