"""Workspace file parsing, serialization round-trips, error reporting."""

import pytest

from vqcat.errors import ParseError, SizeExceeded
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.textio import (
    parse_files,
    parse_text,
    show_distributor,
    show_quantale,
    show_vcategory,
)

CHAIN2 = """
quantale two builtin two
vcategory C2 over two
  objects x0 x1
  hom x0 x1 = 1
"""


def test_parse_basic_workspace():
    ws = parse_text(CHAIN2)
    assert ws.quantales["two"] == builtin("two")
    c2 = ws.vcats["C2"]
    assert c2.objects == ("x0", "x1")
    assert c2.hom == ((1, 1), (0, 1))  # defaults fill diag=e, rest=bottom


def test_literal_quantale_block():
    text = """
quantale Q
  elements 0 a 1
  order 0<a a<1
  unit 1
  mult 0*0=0 0*a=0 0*1=0 a*a=a a*1=a 1*1=1
"""
    ws = parse_text(text)
    assert ws.quantales["Q"] == builtin("heyting3")


def test_derived_vcategory_constructors():
    text = CHAIN2 + """
vcategory V = ofquantale two
vcategory VV = tensor V V
vcategory Cop = op C2
vcategory D = discrete two p q
vcategory P = presheaves C2
"""
    ws = parse_text(text)
    assert len(ws.vcats["VV"]) == 4
    assert ws.vcats["Cop"].hom == ((1, 0), (1, 1))
    assert len(ws.vcats["P"]) == 3


def test_presheaves_constructor_caps():
    text = CHAIN2 + "vcategory P = presheaves C2\n"
    assert len(parse_text(text, obj_cap=3).vcats["P"]) == 3
    with pytest.raises(SizeExceeded):
        parse_text(text, obj_cap=2)
    with pytest.raises(SizeExceeded):
        parse_text(text, node_cap=2)


def test_tensor_constructor_caps():
    # B has 9 objects, so 81 hom entries: refused before they are built
    text = "quantale two builtin two\nvcategory A = discrete two a b c\nvcategory B = tensor A A\n"
    assert len(parse_text(text, node_cap=81).vcats["B"]) == 9
    with pytest.raises(SizeExceeded, match="vcategory B would have 9 x 9 hom entries"):
        parse_text(text, node_cap=80)


def test_distributor_block():
    text = CHAIN2 + """
distributor phi : C2 -> C2
  val x0 x0 = 1
  val x1 x0 = 1
  val x1 x1 = 1
"""
    ws = parse_text(text)
    phi = ws.dists["phi"]
    # val <dom obj> <cod obj> = v sets mat[cod][dom]; mat is cod-major
    assert phi.mat == ((1, 1), (0, 1))


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_text("quantale Q\n  elements a a\n")
    assert exc.value.line_no == 2


def test_duplicate_name_rejected():
    with pytest.raises(ParseError):
        parse_text(CHAIN2 + CHAIN2)


def test_unknown_reference_rejected():
    with pytest.raises(ParseError):
        parse_text("vcategory X = op Nope\n")


def test_show_quantale_roundtrip():
    for name in BUILTIN_NAMES:
        q = builtin(name)
        assert parse_text(show_quantale("Q", q)).quantales["Q"] == q


def test_show_vcategory_roundtrip():
    ws = parse_text(CHAIN2)
    text = show_quantale("two", ws.quantales["two"]) + show_vcategory(
        "C2", "two", ws.vcats["C2"]
    )
    again = parse_text(text)
    assert again.vcats["C2"] == ws.vcats["C2"]


def test_show_distributor_roundtrip():
    text = CHAIN2 + """
distributor phi : C2 -> C2
  val x0 x0 = 1
  val x1 x0 = 1
  val x1 x1 = 1
"""
    ws = parse_text(text)
    shown = (
        show_quantale("two", ws.quantales["two"])
        + show_vcategory("C2", "two", ws.vcats["C2"])
        + show_distributor("phi", "C2", "C2", ws.dists["phi"])
    )
    assert parse_text(shown).dists["phi"].mat == ws.dists["phi"].mat


def test_parse_files(tmp_path):
    p = tmp_path / "w.vcat"
    p.write_text(CHAIN2, encoding="utf-8")
    ws = parse_files([str(p)])
    assert "C2" in ws.vcats
