"""Parameterize the cusp y^2 = x^3 by x = t, y = t^(3/2), then compare a
uniformization witness at the singular origin and at a smooth center.

Run:  python3 demos/cusp_place.py
"""

from fractions import Fraction

from valuedfields.fields import GF, QQ
from valuedfields.groups import ZZ_GROUP, one_over_m
from valuedfields.hensel import implicit_solve
from valuedfields.places import (
    SeriesEmbedPlace,
    UniformizationWitness,
    place_value,
    verify_uniformization_witness,
)
from valuedfields.polys import mpoly
from valuedfields.series import make_series, t_pow


def main():
    half = one_over_m(2)
    origin = SeriesEmbedPlace(
        QQ,
        half,
        (("x", t_pow(QQ, half, 1)), ("y", t_pow(QQ, half, Fraction(3, 2)))),
    )
    curve = mpoly(("x", "y"), {(0, 2): QQ.one(), (3, 0): -QQ.one()})
    y = mpoly(("x", "y"), {(0, 1): QQ.one()})
    print("branch through the origin: x = t, y = t^(3/2)")
    print("  v(y)         =", place_value(origin, y))
    print("  v(y^2 - x^3) =", place_value(origin, curve))
    witness = UniformizationWitness(("x",), ("y",), (curve,))
    print("  witness checks at the origin:", verify_uniformization_witness(witness, origin))
    print()

    # recenter at x = 1 + t over F_7, where the curve is smooth: the
    # implicit function theorem re-solves y from the point (1, 1)
    field = GF(7)
    one = make_series(field, ZZ_GROUP, [(0, 1)])
    xs = make_series(field, ZZ_GROUP, [(0, 1), (1, 1)])
    curve7 = mpoly(("x", "y"), {(0, 2): field.one(), (3, 0): -field.one()})
    (ys,) = implicit_solve([curve7], ("x", "y"), (one, one), (xs,), 8).solved
    smooth = SeriesEmbedPlace(field, ZZ_GROUP, (("x", xs), ("y", ys)))
    witness7 = UniformizationWitness(("x",), ("y",), (curve7,))
    print("same curve at the smooth center x = 1 + t over F_7")
    print("  witness checks:", verify_uniformization_witness(witness7, smooth))


if __name__ == "__main__":
    main()
