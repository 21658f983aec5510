import pytest

from vqcat.quantale import builtin
from vqcat.vcat import quantale_as_vcategory, validate_vcategory

from categories import terminal_category


@pytest.fixture(scope="session")
def two():
    return builtin("two")


@pytest.fixture(scope="session")
def heyting3():
    return builtin("heyting3")


@pytest.fixture(scope="session")
def sugihara3():
    return builtin("sugihara3")


@pytest.fixture(scope="session")
def luk3():
    return builtin("lukasiewicz3")


@pytest.fixture(scope="session")
def r422():
    return builtin("r422")


@pytest.fixture(scope="session")
def chain2(two):
    """The two-element chain as a category over the Boolean quantale."""
    return validate_vcategory(two, ("x0", "x1"), ((1, 1), (0, 1)))


@pytest.fixture(scope="session")
def v_two(two):
    return quantale_as_vcategory(two)


@pytest.fixture(scope="session")
def v_luk(luk3):
    return quantale_as_vcategory(luk3)


@pytest.fixture(scope="session")
def one_top(two):
    # one object, hom = top; the degenerate cocomplete category
    return terminal_category(two)
