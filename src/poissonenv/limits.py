"""The one degree cap of the word and enveloping-algebra layers.

POISSON_ENV_MAX_DEGREE (default 8) bounds every degree: words, straightened
products, smash products, saturation windows and module round trips.  Its
ceiling is 10 because the work grows exponentially in the degree r: a word
of r letters has 2^r bipartitions, which smash._splits enumerates once per
word (1,024 at r = 10), and q_mono_mult takes one q_gen_mult step per
letter of its right factor.  So every degree the cap admits can also be
enumerated.  module-alg checks its bound against the cap too, though it
reads the letters only and costs the same at every degree.

An algebra reads the variable once, at its first check (NCPA.degree_cap),
and every check that has an algebra at hand passes that value on, so the
product and straighten misses of a command do not read the environment again.
It, the CLI's degrees and the files' rationals are read by _ascii_int.
"""

from __future__ import annotations

import os
import re

DEFAULT_DEGREE_CAP = 8
MAX_DEGREE_CAP = 10
DEGREE_CAP_ENV = "POISSON_ENV_MAX_DEGREE"


class DegreeCapExceeded(Exception):
    """An operation was asked for a degree above the configured cap."""


_INTEGER = re.compile(r"[+-]?[0-9]+")  # not \d, which takes any Unicode digit


def _ascii_int(text: str) -> int:
    """The ASCII decimal integer text, with an optional sign and
    surrounding whitespace; int() alone would also take "1_000" and
    non-ASCII digits."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def degree_cap() -> int:
    raw = os.environ.get(DEGREE_CAP_ENV)
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        value = _ascii_int(raw)
    except ValueError:
        raise DegreeCapExceeded(f"{DEGREE_CAP_ENV} must be an integer, got {raw!r}")
    if value < 0:
        raise DegreeCapExceeded(f"{DEGREE_CAP_ENV} must be nonnegative, got {value}")
    if value > MAX_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"{DEGREE_CAP_ENV} must be at most {MAX_DEGREE_CAP}, got {value}"
        )
    return value


def check_degree(degree: int, what: str = "degree", cap: int | None = None) -> None:
    """Raise DegreeCapExceeded if degree exceeds cap, by default the
    configured one, read now."""
    if cap is None:
        cap = degree_cap()
    if degree > cap:
        raise DegreeCapExceeded(f"{what} {degree} exceeds cap {cap}")
