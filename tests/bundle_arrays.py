"""Read or rewrite one named array of a saved design bundle.

The bundle holds its arrays raveled into one float64 vector in
`bundle.ARRAY_FILE`, in the order of `bundle._array_shapes` for meta.txt's
n_y and n_u; this splits that vector the same way, without the load's
checks, so a test can edit one array and see what the load makes of it.
"""

import math
import os

import numpy as np

from orbitmpc import bundle
from orbitmpc.fileio import read_kv


def bundle_array(directory, name, value=None):
    """A copy of the array `name` of the bundle in `directory`; with
    `value`, first write it in that array's place in the vector."""
    meta = read_kv(os.path.join(directory, "meta.txt"))
    path = os.path.join(directory, bundle.ARRAY_FILE)
    vector = np.load(path)
    start = 0
    for key, shape in bundle._array_shapes(int(meta["n_y"]), int(meta["n_u"])).items():
        stop = start + math.prod(shape)
        if key == name:
            if value is not None:
                vector[start:stop] = np.ravel(value)
                np.save(path, vector)
            return vector[start:stop].reshape(shape).copy()
        start = stop
    raise KeyError(name)
