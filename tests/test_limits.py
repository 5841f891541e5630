import pytest

from poissonenv.limits import DegreeCapExceeded, check_degree, degree_cap


def test_check_degree_names_what_exceeds_the_default_cap():
    check_degree(8)
    with pytest.raises(DegreeCapExceeded, match="^saturation degree 9 exceeds cap 8$"):
        check_degree(9, "saturation degree")


@pytest.mark.parametrize("value", [0, 10])
def test_cap_range_ends_are_admitted(monkeypatch, value):
    monkeypatch.setenv("POISSON_ENV_MAX_DEGREE", str(value))
    assert degree_cap() == value
    check_degree(value)
