"""The bundle document encoder as it was before ``io.dumps`` read ``Exact``
arrays.

``encode`` boxes every ``Exact`` array into nested lists of its reduced
fraction strings through an object array, every ``Fraction`` into its string
and every tuple into a list, for ``json.dumps(encode(doc), sort_keys=True,
indent=2)``.  ``io.dumps(doc)`` must give the same bytes.  It also walks
lists, which the former encoder was never given (its callers boxed the
lists' items first).
"""

from fractions import Fraction
from typing import Any

import numpy as np

from prenovikov.core import Exact


def encode(value: Any) -> Any:
    if isinstance(value, Exact):  # one string per distinct entry
        flat = value.num.ravel().tolist()
        text = {x: str(Fraction(x, value.den)) for x in set(flat)}
        return np.array([text[x] for x in flat], dtype=object).reshape(value.shape).tolist()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in sorted(value.items())}
    return value
