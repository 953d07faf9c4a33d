import os
import random
import subprocess
import sys
from pathlib import Path

import d2lie
import pytest
from oracles import build_root_system, cartan_number, eps, reflect, wadd, weyl_orbit, wneg, wsub, wzero

from d2lie.algebra import express_in_simple_roots, pack_weight, unpack_weight


def test_root_count_l4():
    assert len(build_root_system(4).roots) == 24


def test_root_counts_general():
    for l in range(3, 9):
        sys = build_root_system(l)
        assert len(sys.roots) == 2 * l * (l - 1)
        assert len(sys.root_set) == len(sys.roots)


def test_rank_below_three_rejected():
    with pytest.raises(ValueError):
        build_root_system(2)


def test_simple_roots_l5():
    sys = build_root_system(5)
    assert sys.simple[4] == wadd(eps(5, 4), eps(5, 5))          # alpha_5 = e4+e5
    assert sys.simple[3] == (0, 0, 0, 1, -1)                    # alpha_4 = e4-e5
    assert sys.simple[0] == (1, -1, 0, 0, 0)


def test_alpha3_plus_alpha4_is_2e3_for_l4():
    sys = build_root_system(4)
    assert wadd(sys.simple[2], sys.simple[3]) == (0, 0, 2, 0)


def test_cartan_number_diagonal():
    sys = build_root_system(4)
    for a in sys.simple:
        assert cartan_number(a, a) == 2


def test_cartan_number_adjacent_chain():
    assert cartan_number((1, -1, 0), (0, 1, -1)) == -1


def test_dynkin_fork():
    # alpha_l meets alpha_(l-2), not alpha_(l-1)
    for l in (4, 5, 6, 7):
        sys = build_root_system(l)
        assert cartan_number(sys.simple[l - 1], sys.simple[l - 3]) != 0
        assert cartan_number(sys.simple[l - 1], sys.simple[l - 2]) == 0


def test_cartan_number_range_on_root_pairs():
    sys = build_root_system(5)
    for a in sys.roots:
        for b in sys.roots:
            assert cartan_number(a, b) in (-2, -1, 0, 1, 2)


def test_reflections_preserve_root_set():
    for l in (3, 4, 5):
        sys = build_root_system(l)
        for a in sys.simple:
            assert {reflect(r, a) for r in sys.roots} == set(sys.root_set)


def test_orbit_of_zero():
    sys = build_root_system(4)
    assert weyl_orbit(wzero(4), sys) == frozenset({wzero(4)})


def test_orbit_2e4_l5():
    sys = build_root_system(5)
    mu = wadd(sys.simple[4], sys.simple[3])
    assert mu == (0, 0, 0, 2, 0)
    orbit = weyl_orbit(mu, sys)
    expected = set()
    for i in range(1, 6):
        e2 = tuple(2 * c for c in eps(5, i))
        expected |= {e2, wneg(e2)}
    assert orbit == frozenset(expected)
    assert len(orbit) == 10


def test_orbit_idempotent():
    sys = build_root_system(4)
    orbit = weyl_orbit((1, -1, 1, -1), sys)
    for w in list(orbit)[:5]:
        assert weyl_orbit(w, sys) == orbit


def test_three_orbits_for_l4():
    sys = build_root_system(4)
    a1, a3, a4 = sys.simple[0], sys.simple[2], sys.simple[3]
    orbits = [
        weyl_orbit(wadd(a1, a3), sys),
        weyl_orbit(wadd(a1, a4), sys),
        weyl_orbit(wadd(a3, a4), sys),
    ]
    union = set()
    total = 0
    for o in orbits:
        total += len(o)
        assert not (union & o)
        union |= o
    assert total == 24
    assert len(union) == 24


def test_weyl_group_acts_by_even_signed_permutations():
    # Orbit of a generic weight = all coordinate permutations with an even
    # number of sign flips.
    sys = build_root_system(3)
    orbit = weyl_orbit((1, 2, 3), sys)
    from itertools import permutations, product

    expected = set()
    for perm in permutations((1, 2, 3)):
        for signs in product((1, -1), repeat=3):
            if signs.count(-1) % 2 == 0:
                expected.add(tuple(s * c for s, c in zip(signs, perm)))
    assert orbit == frozenset(expected)


def test_express_simple_root_is_unit_vector():
    sys = build_root_system(5)
    assert express_in_simple_roots(sys.simple[2]) == (0, 0, 1, 0, 0)


def test_express_2e1_l5():
    mu = (2, 0, 0, 0, 0)
    assert express_in_simple_roots(mu) == (2, 2, 2, 1, 1)


def test_express_outside_root_lattice():
    assert express_in_simple_roots(eps(5, 1)) is None


def test_express_reads_the_rank_off_the_weight():
    # 2 eps_1 = 2 alpha_1 + alpha_2 + alpha_3 at D_3; below rank 3 there is no D_l.
    assert express_in_simple_roots((2, 0, 0)) == (2, 1, 1)
    with pytest.raises(ValueError, match="rank"):
        express_in_simple_roots((2, 0))


def test_express_roundtrip_all_roots():
    sys = build_root_system(6)
    for r in sys.roots:
        c = express_in_simple_roots(r)
        assert c is not None
        acc = wzero(6)
        for coeff, a in zip(c, sys.simple):
            acc = wadd(acc, tuple(coeff * x for x in a))
        assert acc == r


def test_packed_weights_round_trip_and_add():
    # Signed sums of up to five weights with negative coordinates, l up to
    # 20: packing each weight and adding the ints gives the packed tuple sum,
    # which unpacks to it, and the ints order as the tuples do.
    rng = random.Random(44)
    for _ in range(400):
        l, bits = rng.randint(1, 20), rng.randint(4, 9)
        top = ((1 << (bits - 1)) - 1) // 5
        weights = [tuple(rng.randint(-top, top) for _ in range(l)) for _ in range(rng.randint(1, 5))]
        total, packed = weights[0], pack_weight(weights[0], bits)
        for w in weights[1:]:
            sign = rng.choice((1, -1))
            total = (wadd if sign > 0 else wsub)(total, w)
            packed += sign * pack_weight(w, bits)
        assert packed == pack_weight(total, bits)
        assert unpack_weight(packed, l, bits) == total
        half = 1 << (bits - 1)
        a, b = (tuple(rng.randint(1 - half, half - 1) for _ in range(l)) for _ in range(2))
        assert unpack_weight(pack_weight(a, bits), l, bits) == a
        assert (pack_weight(a, bits) < pack_weight(b, bits)) == (a < b)


def test_packed_weight_too_wide_for_its_field_raises():
    for w in ((0, 8), (-8, 0), (100,)):
        with pytest.raises(ValueError, match="does not fit a 4-bit field"):
            pack_weight(w, 4)
    assert unpack_weight(pack_weight((7, -7), 4), 2, 4) == (7, -7)
    # The check is a raise, not an assert, so it survives python -O.
    env = {**os.environ, "PYTHONPATH": str(Path(d2lie.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from d2lie.algebra import pack_weight; pack_weight((8,), 4)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1 and "ValueError" in proc.stderr
