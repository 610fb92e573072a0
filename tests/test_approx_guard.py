import pytest


@pytest.mark.parametrize("expected, rel", [(1.0, 1e-13), (1e-13, 1e-6), ([0.0, 1e-20], 1e-3),
                                           ({"x": 1e-9}, 1e-6), (1j * 1e-9, 1e-6)])
def test_approx_guard_fails_a_rel_below_the_default_abs(expected, rel):
    """tests/conftest.py fails a pytest.approx whose default abs of 1e-12
    exceeds rel |expected| for a nonzero expected value."""
    with pytest.raises(pytest.fail.Exception, match="give an explicit abs"):
        pytest.approx(expected, rel=rel)


def test_approx_guard_passes_an_explicit_abs_and_a_zero_expected_value():
    assert 1.0 + 1e-14 == pytest.approx(1.0, rel=1e-13, abs=0)
    assert 1e-13 == pytest.approx(0.0, rel=1e-6)
    assert [1.0, 2.0] == pytest.approx([1.0, 2.0], rel=1e-9)
