"""Lift the power-series root of X^p - X - t and watch the precision double.

Run:  python3 demos/frobenius_root.py
"""

from valuedfields.artinschreier import as_poly
from valuedfields.fields import GF
from valuedfields.groups import ZZ_GROUP
from valuedfields.hensel import hensel_lift
from valuedfields.series import (
    frobenius_root,
    render_series,
    stream_expand,
    t_pow,
    truncate,
)


def main():
    for p in (2, 3):
        field, group = GF(p), ZZ_GROUP
        bound = p ** 4
        f = as_poly(t_pow(field, group, 1))
        lifted = hensel_lift(f, None, bound)
        print(f"p = {p}: root of X^{p} - X - t, truncated at t^({bound})")
        print("  root  =", render_series(lifted.root))
        print("  steps =", " -> ".join(str(s) for s in lifted.steps),
              "(residual valuation before each correction)")
        catalog = stream_expand(frobenius_root(p), bound)
        same = truncate(lifted.root, group.elem(bound)).terms == catalog.terms
        print("  catalog stream matches term-exactly:", same)
        print()


if __name__ == "__main__":
    main()
