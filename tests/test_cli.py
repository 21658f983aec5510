"""In-process exercises of the vq command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vqcat
from vqcat import cli, textio
from vqcat.cli import main
from vqcat.corpus import data_text, run_corpus
from vqcat.dist import compose_dist, right_extension, right_lifting
from vqcat.presheaf import PresheafCategory
from vqcat.textio import parse_text, show_distributor

CHAIN2 = """
quantale two builtin two
vcategory C2 over two
  objects x0 x1
  hom x0 x1 = 1
"""


@pytest.fixture()
def chain2_file(tmp_path):
    p = tmp_path / "chain2.vcat"
    p.write_text(CHAIN2, encoding="utf-8")
    return str(p)


@pytest.fixture()
def r422_file(tmp_path):
    p = tmp_path / "vv.vcat"
    p.write_text(data_text("vtimesv_r422.vcat"), encoding="utf-8")
    return str(p)


def test_quantale_show_builtin(capsys):
    assert main(["quantale", "show", "two"]) == 0
    out = capsys.readouterr().out
    assert "quantale two" in out
    assert "residuation" in out


def test_quantale_validate_all_builtins(capsys):
    assert main(["quantale", "validate", "two", "lukasiewicz3", "r422"]) == 0


def test_vcat_validate(chain2_file, capsys):
    assert main(["vcat", "validate", chain2_file]) == 0


def test_vcat_order(chain2_file, capsys):
    assert main(["vcat", "order", chain2_file]) == 0
    assert "x0" in capsys.readouterr().out


def test_vcat_separated_negative(r422_file, capsys):
    # the r422 square is not separated; witness reported, exit 2
    assert main(["vcat", "separated", r422_file]) == 2
    out = capsys.readouterr().out
    assert "not separated" in out


@pytest.fixture()
def freedisc2_file(tmp_path):
    p = tmp_path / "freedisc2.vcat"
    p.write_text(data_text("freedisc2.vcat"), encoding="utf-8")
    return str(p)


def test_shared_parser_leaks_nothing_between_calls(freedisc2_file, capsys):
    # main reuses one parser per process; no flag of one call reaches the next
    assert cli._build_parser() is cli._build_parser()
    assert main(["presheaves", "--list", freedisc2_file]) == 0
    assert "  <1,1,1,1>" in capsys.readouterr().out
    assert main(["presheaves", freedisc2_file]) == 0
    assert capsys.readouterr().out == (
        "vcategory D2: 4 presheaves\nvcategory FreeD2: 6 presheaves\n"
    )
    for argv in (
        ["presheaves", "--caps", "8,8,5", freedisc2_file],
        ["--caps", "8,8,5", "presheaves", freedisc2_file],
    ):
        assert main(argv) == 3
        assert "exceeded 5 nodes" in capsys.readouterr().err
        assert main(["presheaves", freedisc2_file]) == 0
    capsys.readouterr()
    assert main(["corpus", "--machine"]) == 0
    assert capsys.readouterr().out.startswith("quantale.builtins.two.size=2\n")
    assert main(["corpus"]) == 0
    assert capsys.readouterr().out == "\n".join(run_corpus(machine=False)[1]) + "\n"


def test_help_names_every_command_group(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    groups = ("quantale", "vcat", "presheaves", "cauchy", "check", "tensor", "dist", "corpus")
    assert "{" + ",".join(groups) + "}" in texts[0]


def test_presheaves_count_and_list(chain2_file, capsys):
    assert main(["presheaves", chain2_file]) == 0
    assert "3" in capsys.readouterr().out
    assert main(["presheaves", "--list", chain2_file]) == 0
    assert "<" in capsys.readouterr().out


def test_presheaves_without_list_decodes_no_vector(chain2_file, capsys, monkeypatch):
    def refuse(pc):
        raise AssertionError("presheaf vectors decoded")

    monkeypatch.setattr(PresheafCategory, "vectors", property(refuse))
    assert main(["presheaves", chain2_file]) == 0
    assert capsys.readouterr().out == "vcategory C2: 3 presheaves\n"
    with pytest.raises(AssertionError, match="decoded"):
        main(["presheaves", "--list", chain2_file])


def test_cauchy(chain2_file, capsys):
    assert main(["cauchy", chain2_file]) == 0


def test_check_theorem(chain2_file, capsys):
    assert main(["check", "theorem", chain2_file]) == 0
    out = capsys.readouterr().out
    assert "consistent" in out


def test_check_cocomplete_negative(tmp_path, capsys):
    p = tmp_path / "s.vcat"
    p.write_text(
        "quantale sugihara3 builtin sugihara3\n"
        "vcategory V = ofquantale sugihara3\n"
        "vcategory VV = tensor V V\n",
        encoding="utf-8",
    )
    # 9 objects exceeds the default cap, so raise it explicitly
    assert main(["check", "cocomplete", str(p)]) == 3
    assert main(["check", "cocomplete", "--caps", "8,9,2000000", str(p)]) == 2


def test_tensor_command(chain2_file, capsys):
    assert main(["tensor", chain2_file, chain2_file, "--list"]) == 0
    out = capsys.readouterr().out
    assert "2" in out


def test_tensor_galois_on_bool3(tmp_path, capsys):
    # D(bool3 (x) bool3) has 7.8 M presheaves; --galois enumerates none of them
    lines = ["quantale two builtin two", "vcategory B3 over two"]
    lines.append("  objects " + " ".join(f"s{i}" for i in range(8)))
    lines += [f"  hom s{i} s{j} = 1" for i in range(8) for j in range(8) if i != j and i & j == i]
    p = tmp_path / "bool3.vcat"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["tensor", str(p), str(p), "--galois"]) == 0
    out = capsys.readouterr().out
    assert "carrier has 512 ideal presheaves" in out
    assert "galois correspondence: holds" in out


def test_size_cap_exit_code(chain2_file, capsys):
    assert main(["presheaves", "--caps", "8,1,1000", chain2_file]) == 3


def test_quantale_past_256_elements_exit_code(tmp_path, capsys):
    # the 257-chain with meet as tensor: a size cap, not a traceback
    n = 257
    lines = [
        "quantale Q",
        "  elements " + " ".join(f"e{i}" for i in range(n)),
        "  order " + " ".join(f"e{i}<e{i + 1}" for i in range(n - 1)),
        f"  unit e{n - 1}",
    ]
    lines += ["  mult " + " ".join(f"e{i}*e{j}=e{i}" for j in range(i, n)) for i in range(n)]
    p = tmp_path / "chain257.vcat"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["quantale", "validate", str(p)]) == 3
    assert "quantale has 257 elements (limit 256)" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.vcat"
    p.write_text("quantale Q\n  elements a a\n", encoding="utf-8")
    assert main(["quantale", "validate", str(p)]) == 1


def test_missing_file_exit_code(capsys):
    assert main(["vcat", "validate", "/nonexistent.vcat"]) == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64


@pytest.mark.parametrize("caps", ["8,8", "a,b,c", "8,8,1e6", "8,8,-5", "-1,8,100"])
def test_malformed_caps_usage_error(chain2_file, caps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["presheaves", "--caps", caps, chain2_file])
    assert exc.value.code == 64
    assert "--caps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "action, first, second, calculus, name",
    [
        ("compose", "phi", "psi", compose_dist, "phi.psi"),
        ("ext", "phi", "psi", right_extension, "ext_phi_psi"),
        ("lift", "psi", "phi", right_lifting, "lift_psi_phi"),
    ],
    ids=("compose", "ext", "lift"),
)
def test_dist_compose(tmp_path, capsys, action, first, second, calculus, name):
    # phi is the hom of C2 and psi the top distributor; the three results differ
    text = (
        CHAIN2
        + "distributor phi : C2 -> C2\n"
        "  val x0 x0 = 1\n  val x1 x0 = 1\n  val x1 x1 = 1\n"
        "distributor psi : C2 -> C2\n"
        "  val x0 x0 = 1\n  val x0 x1 = 1\n  val x1 x0 = 1\n  val x1 x1 = 1\n"
    )
    p = tmp_path / "d.vcat"
    p.write_text(text, encoding="utf-8")
    assert main(["dist", action, first, second, str(p)]) == 0
    dists = parse_text(text).dists
    res = calculus(dists[first], dists[second])
    assert capsys.readouterr().out == show_distributor(name, "C2", "C2", res)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dist", "compose", "a", "phi"], "unknown distributor 'a'"),
        (["dist", "ext", "phi", "b"], "unknown distributor 'b'"),
        (["dist", "lift", "c", "phi"], "unknown distributor 'c'"),
        (["vcat", "tensor", "C2", "Z"], "unknown vcategory 'Z'"),
        (["vcat", "tensor", "Y", "C2"], "unknown vcategory 'Y'"),
    ],
)
def test_unknown_name_is_bad_input(tmp_path, capsys, argv, message):
    # a name the workspace does not define is named with its kind, exit 1
    p = tmp_path / "d.vcat"
    p.write_text(
        CHAIN2 + "distributor phi : C2 -> C2\n  val x0 x0 = 1\n  val x1 x0 = 1\n  val x1 x1 = 1\n",
        encoding="utf-8",
    )
    assert main(argv + [str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_machine_flag_position(capsys):
    # --machine is accepted after the subcommand as well
    assert main(["quantale", "show", "two", "--machine"]) == 0


def test_quantale_mismatch_is_a_typed_error(tmp_path, capsys):
    p = tmp_path / "mixed.vcat"
    p.write_text(
        "quantale two builtin two\n"
        "quantale L builtin lukasiewicz3\n"
        "vcategory A = ofquantale two\n"
        "vcategory B = ofquantale L\n"
        "vcategory W = tensor A B\n",
        encoding="utf-8",
    )
    assert main(["vcat", "validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


NON_SEPARATED = """
quantale two builtin two
vcategory S over two
  objects x0 x1
  hom x0 x1 = 1
  hom x1 x0 = 1
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "cocomplete"], 2),
        (["check", "ccd"], 2),
        (["check", "nuclear"], 2),
        (["check", "theorem"], 2),
        (["tensor", "FILE"], 1),
    ],
)
def test_non_separated_exit_codes(tmp_path, capsys, argv, code):
    # every check reports the input as not cocomplete, a counterexample;
    # tensor needs cocomplete factors, so there it is bad input
    p = tmp_path / "s.vcat"
    p.write_text(NON_SEPARATED, encoding="utf-8")
    assert main([a if a != "FILE" else str(p) for a in argv] + [str(p)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "vcategory S: not cocomplete (not separated: x0 ~ x1)\n"
    else:
        assert err.startswith("error: ") and "separated" in err


def _presheaves_file(tmp_path, n):
    p = tmp_path / "p.vcat"
    p.write_text(
        "quantale two builtin two\n"
        "vcategory C = discrete two " + " ".join(f"c{i}" for i in range(n)) + "\n"
        "vcategory P = presheaves C\n",
        encoding="utf-8",
    )
    return str(p)


def test_presheaves_constructor_obeys_node_cap(tmp_path, capsys):
    # D(C) of a 10-object discrete C needs 2,046 search nodes
    assert main(["vcat", "validate", "--caps", "8,3,1000", _presheaves_file(tmp_path, 10)]) == 3
    assert "presheaf enumeration exceeded 1000 nodes" in capsys.readouterr().err


def test_presheaves_constructor_obeys_object_cap(tmp_path, capsys, monkeypatch):
    def refuse(pc):
        raise AssertionError("the hom matrix was built before the object cap")

    path = _presheaves_file(tmp_path, 10)
    monkeypatch.setattr(PresheafCategory, "cat", property(refuse))
    assert main(["vcat", "validate", "--caps", "8,3,1000000", path]) == 3
    assert "vcategory P has 1024 objects (cap 3)" in capsys.readouterr().err


def test_presheaves_constructor_within_caps(tmp_path, capsys):
    assert main(["vcat", "validate", "--caps", "8,8,1000", _presheaves_file(tmp_path, 3)]) == 0
    assert "vcategory P: valid (8 objects)" in capsys.readouterr().out



@pytest.fixture()
def vluk_file(tmp_path):
    p = tmp_path / "vluk.vcat"
    p.write_text(data_text("vluk.vcat"), encoding="utf-8")
    return str(p)


def test_universal_codomain_over_another_quantale(chain2_file, vluk_file, capsys):
    assert main(["tensor", chain2_file, chain2_file, "--check-universal", vluk_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "quantale" in err


def test_universal_codomain_obeys_object_cap(chain2_file, tmp_path, capsys):
    p = tmp_path / "chain10.vcat"
    names = [f"c{i}" for i in range(10)]
    p.write_text(
        "quantale two builtin two\nvcategory C over two\n  objects " + " ".join(names) + "\n"
        + "".join(f"  hom {a} {b} = 1\n" for i, a in enumerate(names) for b in names[i + 1 :]),
        encoding="utf-8",
    )
    assert main(["tensor", chain2_file, chain2_file, "--check-universal", str(p)]) == 3
    assert "vcategory C has 10 objects (cap 8)" in capsys.readouterr().err


@pytest.mark.parametrize("position", ["FILE_A", "FILE_B", "FILE_C"])
def test_tensor_file_without_vcategory_is_bad_input(chain2_file, tmp_path, capsys, position):
    bare = tmp_path / "bare.vcat"
    bare.write_text("quantale V builtin two\n", encoding="utf-8")
    files = {"FILE_A": chain2_file, "FILE_B": chain2_file, "FILE_C": chain2_file}
    files[position] = str(bare)
    argv = ["tensor", files["FILE_A"], files["FILE_B"], "--check-universal", files["FILE_C"]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bare} defines no vcategory\n"


@pytest.mark.parametrize("action", ["cocomplete", "ccd", "nuclear", "theorem"])
def test_check_file_without_vcategory_is_bad_input(tmp_path, capsys, action):
    bare = tmp_path / "bare.vcat"
    bare.write_text("quantale V builtin two\n", encoding="utf-8")
    assert main(["check", action, str(bare)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {bare} defines no vcategory\n"


def test_tensor_constructor_obeys_node_cap(tmp_path, capsys, monkeypatch):
    # C has 1,296 objects; D = C (x) C, with 1,679,616, is refused at the
    # default caps before its hom matrix is built
    tensor_vcat = textio.tensor_vcat

    def refuse_past_cap(x, y):
        assert (len(x) * len(y)) ** 2 <= 2_000_000, "the hom matrix was built past the cap"
        return tensor_vcat(x, y)

    monkeypatch.setattr(textio, "tensor_vcat", refuse_past_cap)
    p = tmp_path / "probe.vcat"
    p.write_text(
        "quantale two builtin two\n"
        "vcategory A = discrete two a0 a1 a2 a3 a4 a5\n"
        "vcategory B = tensor A A\n"
        "vcategory C = tensor B B\n"
        "vcategory D = tensor C C\n",
        encoding="utf-8",
    )
    assert main(["check", "cocomplete", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("size cap exceeded: vcategory D would have 1679616 x 1679616")


def test_tensor_factor_check_obeys_node_cap(vluk_file, capsys):
    # D(vluk) needs 16 nodes: the commands that list it stop at 5, while
    # `vq check cocomplete` and the factor checks of `vq tensor` enumerate
    # no presheaf, and the tensor's sup-map search needs 3 nodes
    for command in ("presheaves", "cauchy"):
        assert main([command, "--caps", "8,8,5", vluk_file]) == 3
        assert "presheaf enumeration exceeded 5 nodes" in capsys.readouterr().err
    assert main(["check", "cocomplete", "--caps", "8,8,5", vluk_file]) == 0
    assert capsys.readouterr().out == "vcategory V: cocomplete\n"
    assert main(["tensor", "--caps", "8,8,2", vluk_file, vluk_file]) == 3
    assert "functor enumeration exceeded 2 nodes" in capsys.readouterr().err
    assert main(["tensor", "--caps", "8,8,3", vluk_file, vluk_file]) == 0
    assert "carrier has 3 ideal presheaves" in capsys.readouterr().out


def test_closed_pipe_ends_quietly():
    # the read end is closed before the child writes, so its first write
    # fails with EPIPE: no message, exit 141 (128 + SIGPIPE)
    src = str(Path(vqcat.__file__).resolve().parent.parent)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vqcat.cli", "corpus"],
            stdout=w,
            stderr=subprocess.PIPE,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")
