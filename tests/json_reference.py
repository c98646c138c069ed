"""Reference CLI renderer for the tests.

The package's earlier emit path, kept verbatim: ``_encode`` turns every
Fraction inside dicts, lists and tuples into a "p/q" string, and
``json.dumps(..., sort_keys=True, indent=2)`` writes the document through
the standard library's pure-Python encoder. ``chorepick.cli._render`` must
return the same text.
"""

import json
from fractions import Fraction


def _encode(value):
    """Render every Fraction inside dicts, lists and tuples as a "p/q" string.

    Dict keys pass through unchanged; the str keys the commands build sort
    as text under sort_keys ("10" before "2")."""
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [str(v) if type(v) is Fraction else _encode(v) for v in value]
    if type(value) is Fraction:
        return str(value)
    return value


def dumps(payload) -> str:
    return json.dumps(_encode(payload), sort_keys=True, indent=2)
