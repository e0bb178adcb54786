"""A golden snapshot of artinschreier.analyze on seeded random constants.

Each case draws a constant c over F_2, F_3, F_4, F_5 or F_9 and a value
group among Z, (1/2)Z, (1/3)Z and (1/p^oo)Z, with one to three terms and
now and then a precision bound, and runs ``analyze`` at target 8.  Cases
with a negative exponent over the hull are kept rare, because there the
surgery loop mostly runs into its 256-step budget.  tests/as_snapshot.txt
holds one line per case: the field, the group and c, then the case and the
outcome's JSON with sorted keys, or the error class and its message.  It
covers what the ``as`` command cannot reach: residue fields F_4 and F_9 and
the groups (1/3)Z and (1/p^oo)Z.  To record it again (only when an
outcome change is intended), run
``PYTHONPATH=src python tests/test_as_snapshot.py``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from valuedfields.artinschreier import analyze
from valuedfields.errors import ValuedFieldError
from valuedfields.fields import GF
from valuedfields.groups import ZZ_GROUP, one_over_m, p_power_hull
from valuedfields.series import make_series

GOLDEN = Path(__file__).parent / "as_snapshot.txt"
FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)]
CASES = 150
TARGET = 8


def _group(rng, p):
    """A group with the denominators its exponents may carry."""
    kind = rng.randrange(4)
    if kind == 0:
        return ZZ_GROUP, [1]
    if kind == 3:
        return p_power_hull(p), [1, p, p * p]
    m = kind + 1
    return one_over_m(m), [1, m]


def _case(rng):
    field = rng.choice(FIELDS)
    p = field.characteristic
    group, dens = _group(rng, p)
    # a negative exponent over the hull is eliminable at every step
    low = 0 if group.law == "p_power" and rng.random() < 0.9 else -2 * p
    units = [x for x in field.elements() if not x.is_zero()]
    pairs = [
        (Fraction(rng.randint(low, 2 * p), rng.choice(dens)), rng.choice(units))
        for _ in range(rng.randint(1, 3))
    ]
    precision = rng.randint(-1, 3) if rng.random() < 0.1 else None
    return make_series(field, group, pairs, precision)


def _line(c) -> str:
    head = f"{c.field} {c.group} {c}"
    try:
        case, outcome = analyze(c, TARGET)
    except ValuedFieldError as e:
        return f"{head} -> {type(e).__name__}: {e}"
    return f"{head} -> {case} {json.dumps(outcome.to_json(), sort_keys=True)}"


def _record() -> str:
    rng = random.Random(32)
    return "".join(_line(_case(rng)) + "\n" for _ in range(CASES))


def test_analyze_matches_the_snapshot():
    assert _record() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(_record(), encoding="utf-8")
