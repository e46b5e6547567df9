"""The brute-force reference paths themselves."""

import pytest

from polyimage.errors import InvalidInputError
from polyimage.oracle import brute_image, brute_joint_count
from polyimage.polyarith import parse_poly
from polyimage.primeimage import image_mask, joint_count


def test_brute_image_examples():
    assert len(brute_image(parse_poly("x^2"), 105)) == 24
    assert brute_image(parse_poly("x"), 10) == list(range(10))


def test_brute_image_cap():
    with pytest.raises(InvalidInputError):
        brute_image(parse_poly("x^2"), 10**6 + 1)


def test_brute_joint_count_examples():
    f = parse_poly("x^2")
    assert brute_joint_count(f, 105, [1]) == 4
    assert brute_joint_count(f, 105, [0, 0]) == len(brute_image(f, 105))
    q = parse_poly("x^4-2x^2")
    assert brute_joint_count(q, 13, [1]) == joint_count(image_mask(q, 13), [1])
