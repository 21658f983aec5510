"""The one search in two parts: `presheaf.search_tails` keeps the graph of
its distinct tails, and `presheaf.render_rows`, the only place that builds
rows, renders it.  D(X) answers `len` from the graph's count, so counting
D(X), deciding cocompleteness, `vq presheaves` without `--list` and a
`presheaves` constructor that the object cap refuses render no row; the
count is the number of rows; and a mask that is empty from the root at a
depth that nothing narrows is met where the unshared search meets it."""

import pytest
from hypothesis import given, settings

from vqcat import presheaf
from vqcat.cli import main
from vqcat.cocomplete import check_cocomplete
from vqcat.errors import SizeExceeded
from vqcat.presheaf import enumerate_presheaves, search_tails, search_vfunctors
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.vcat import discrete, validate_vcategory

from categories import (
    ORACLE_CATEGORIES,
    oracle_category,
    poset,
    random_categories,
    search_by_placement,
)
from test_presheaf import PRESHEAF_NODES, pinned_category


@pytest.fixture
def no_rows(monkeypatch):
    """`render_rows` raises, so a step that builds a row fails."""

    def refuse(tails):
        raise AssertionError("rows rendered")

    monkeypatch.setattr(presheaf, "render_rows", refuse)


def test_counting_d_of_bool5_renders_no_row(no_rows):
    dx = enumerate_presheaves(poset(tuple(range(32)), lambda i, j: i & j == i))
    assert len(dx) == 7581
    with pytest.raises(AssertionError, match="rows rendered"):
        dx.rows


@pytest.mark.parametrize("name", ["bool4-two", "V-luk8", "V-heyt9"])
def test_deciding_cocompleteness_renders_no_row(name, no_rows):
    x = pinned_category(name)
    dx = enumerate_presheaves(x)
    assert check_cocomplete(x, dx).dx is dx
    assert len(dx) > 0
    with pytest.raises(AssertionError, match="rows rendered"):
        dx.vectors


def _discrete_file(tmp_path, n, *lines):
    p = tmp_path / "c.vcat"
    p.write_text(
        "quantale two builtin two\n"
        "vcategory C = discrete two " + " ".join(f"c{i}" for i in range(n)) + "\n"
        + "".join(line + "\n" for line in lines),
        encoding="utf-8",
    )
    return str(p)


def test_presheaves_without_list_renders_no_row(tmp_path, capsys, no_rows):
    path = _discrete_file(tmp_path, 8)
    assert main(["presheaves", path]) == 0
    assert capsys.readouterr().out == "vcategory C: 256 presheaves\n"
    with pytest.raises(AssertionError, match="rows rendered"):
        main(["presheaves", "--list", path])


def test_presheaves_constructor_refused_by_the_object_cap_renders_no_row(
    tmp_path, capsys, no_rows
):
    path = _discrete_file(tmp_path, 10, "vcategory P = presheaves C")
    assert main(["vcat", "validate", "--caps", "8,3,1000000", path]) == 3
    assert "vcategory P has 1024 objects (cap 3)" in capsys.readouterr().err


def test_rows_are_rendered_once(monkeypatch):
    rendered = []
    render = presheaf.render_rows

    def counted(tails):
        rendered.append(tails.count)
        return render(tails)

    monkeypatch.setattr(presheaf, "render_rows", counted)
    dx = enumerate_presheaves(pinned_category("bool4-two"))
    assert rendered == []
    assert dx.index[dx.vectors[5]] == 5 and dx.rows is dx.rows
    assert rendered == [168] == [len(dx)]


@pytest.mark.parametrize("name", sorted(PRESHEAF_NODES) + ORACLE_CATEGORIES)
def test_the_count_is_the_number_of_rows(name):
    x = pinned_category(name) if name in PRESHEAF_NODES else oracle_category(name)
    dx = enumerate_presheaves(x)
    n = len(dx)
    assert n == len(dx.vectors) == len(set(dx.vectors)) == len(dx.rows)


@settings(max_examples=100, deadline=None)
@given(random_categories([builtin(n) for n in BUILTIN_NAMES]))
def test_the_count_is_the_number_of_rows_on_random_categories(x):
    dx = enumerate_presheaves(x)
    n = len(dx)
    assert n == len(dx.vectors) == len(set(dx.vectors))


def empty_last_mask(iso):
    """x0, x1 and x2 over sugihara3, x2 with top on its diagonal: no object
    of a discrete codomain can hold it, and nothing narrows its mask.  With
    `iso`, x0 and x1 are isomorphic, so x0 narrows x1 to its own image."""
    q = builtin("sugihara3")
    e, b, t = q.unit, q.bottom, q.top
    u = e if iso else b
    return validate_vcategory(q, ("x0", "x1", "x2"), ((e, u, b), (u, e, b), (b, b, t)))


@pytest.mark.parametrize("iso", [False, True], ids=["none-narrowed", "x1-narrowed"])
@pytest.mark.parametrize("images", [2, 3])
def test_an_empty_mask_that_nothing_narrows(iso, images):
    # every branch reaches x2 and ends there, x2 placing nothing: two or
    # three nodes for x0, then x1's images (one each once narrowed)
    dom = empty_last_mask(iso)
    cod = discrete(dom.quantale, [f"c{i}" for i in range(images)])
    expected, nodes = search_by_placement(dom, cod)
    assert expected == [] and nodes == images + (images if iso else images * images)
    assert search_tails(dom, cod, nodes, "functor").count == 0
    assert search_vfunctors(dom, cod, nodes, "functor") == expected
    with pytest.raises(SizeExceeded) as exc:
        search_vfunctors(dom, cod, nodes - 1, "functor")
    assert str(exc.value) == f"functor enumeration exceeded {nodes - 1} nodes"
    assert exc.value.estimate == nodes - 1
