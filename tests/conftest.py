import gc

import pytest

from vqcat.dist import Distributor
from vqcat.quantale import builtin
from vqcat.vcat import VCategory, quantale_as_vcategory, validate_vcategory

from categories import terminal_category


ROW_FIELDS = {VCategory: "hom", Distributor: "mat"}


def assert_bytes_rows(obj):
    """A test failure if the matrix of a V-category or distributor is not a
    tuple of `bytes` rows."""
    field = ROW_FIELDS[type(obj)]
    rows = getattr(obj, field)
    if type(rows) is not tuple or not all(type(row) is bytes for row in rows):
        pytest.fail(f"{type(obj).__name__}.{field} is not a tuple of bytes rows")


def checked_init(init):
    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert_bytes_rows(self)

    return checked


@pytest.fixture(scope="session", autouse=True)
def one_row_type():
    """Every V-category and distributor of the run holds its rows as `bytes`,
    the one type of a vector of quantale elements: those built while the
    tests were collected are checked once, every later one as it is built."""
    for obj in gc.get_objects():
        if type(obj) in ROW_FIELDS:
            assert_bytes_rows(obj)
    saved = {cls: cls.__init__ for cls in ROW_FIELDS}
    for cls, init in saved.items():
        cls.__init__ = checked_init(init)
    yield
    for cls, init in saved.items():
        cls.__init__ = init


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
